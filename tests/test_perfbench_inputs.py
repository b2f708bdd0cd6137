"""The benchmark's custom workload writes its `.alg` inputs from the catalog
(parameter order seeds the substitutions, bracket rows give the text).  A
catalog change must not silently change what the benchmark measures."""

import hashlib

from perfbench import workloads

# sha256 of the 12 files the custom workload prepares at seed 177147, in the
# order it writes them.
CUSTOM_INPUTS_DIGEST = "be61eeb4a261b182e45e7604653e11c77f65afcec8c9d49e40e7da4b08471d82"


def test_custom_inputs_are_unchanged(tmp_path):
    workload = workloads.Custom()
    workload.prepare(177147, tmp_path)
    assert len(workload.specs) == 12
    digest = hashlib.sha256()
    for spec in workload.specs:
        with open(spec.path, "rb") as handle:
            digest.update(handle.read())
    assert digest.hexdigest() == CUSTOM_INPUTS_DIGEST
