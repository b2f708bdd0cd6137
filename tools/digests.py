"""Digests of the verify-all reports under every interpreter and hash seed.

Runs `bottsol verify-all` from this checkout's src/ for each report in
REPORTS, under each interpreter and each PYTHONHASHSEED in HASH_SEEDS, and
prints each report's sha256 with the runs that gave it.  A report is
deterministic, so every run must print the same bytes and exit with the same
code; the script exits 1 when one does not.  The interpreters are the ones
named on the command line or, by default, every Python 3.10 or newer in
pyenv's versions directory ($PYENV_ROOT/versions, else ~/.pyenv/versions).
Run it by hand from any directory:

    python tools/digests.py [python ...]
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
REPORTS = {
    "structured, seed 177147": ("verify-all", "--format", "structured", "--seed", "177147"),
    "structured, seed 5": ("verify-all", "--format", "structured", "--seed", "5"),
    "text, default seed": ("verify-all",),
}
HASH_SEEDS = ("0", "1", "12345")
WORKERS = 2


def interpreters() -> list:
    """Every pyenv Python 3.10 or newer, oldest first."""
    versions = Path(os.environ.get("PYENV_ROOT", Path.home() / ".pyenv")) / "versions"
    found = []
    for home in versions.glob("*"):
        parts = home.name.split(".")
        python = home / "bin" / "python3"
        if len(parts) >= 2 and all(p.isdigit() for p in parts[:2]) and python.exists():
            if (int(parts[0]), int(parts[1])) >= (3, 10):
                found.append((tuple(int(p) for p in parts if p.isdigit()), str(python)))
    return [python for _, python in sorted(found)]


def version(python: str) -> str:
    return subprocess.run([python, "-c", "import platform; print(platform.python_version())"],
                          capture_output=True, text=True, check=True).stdout.strip()


def digest(python: str, hash_seed: str, argv: tuple) -> tuple:
    """(sha256 of standard output, exit code) of one bottsol run."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED=hash_seed,
               PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run([python, "-m", "bottsol.cli", *argv], capture_output=True, env=env,
                          cwd=ROOT)
    if done.returncode not in (0, 1, 2):
        sys.stderr.write(done.stderr.decode(errors="replace"))
    return hashlib.sha256(done.stdout).hexdigest(), done.returncode


def main(argv: list) -> int:
    pythons = argv or interpreters() or [sys.executable]
    names = {python: f"Python {version(python)}" for python in pythons}
    runs = [(report, python, seed) for report in REPORTS for python in pythons
            for seed in HASH_SEEDS]
    with ThreadPoolExecutor(WORKERS) as pool:
        results = list(pool.map(lambda run: digest(run[1], run[2], REPORTS[run[0]]), runs))
    outcomes = defaultdict(lambda: defaultdict(list))  # report -> (digest, code) -> runs
    for (report, python, seed), result in zip(runs, results):
        outcomes[report][result].append(f"{names[python]} PYTHONHASHSEED={seed}")
    print(f"{len(pythons)} interpreters ({', '.join(names.values())}) x "
          f"PYTHONHASHSEED {', '.join(HASH_SEEDS)}")
    agree = True
    for report, seen in outcomes.items():
        for (sha, code), where in seen.items():
            print(f"{report}: {sha} exit {code} in {len(where)}/{len(runs) // len(REPORTS)} runs")
            if len(seen) > 1:
                print("    " + "\n    ".join(where))
        agree = agree and len(seen) == 1
    print("all runs agree" if agree else "runs disagree")
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
