from bottsol import algebra, connection
from bottsol.pipeline import eta_signs, stage
from helpers import all_configurations


def test_every_call_form_shares_one_cache_entry():
    stage.cache_clear()
    first = stage("G1", "D")
    assert stage("G1", "D", False, None) is first
    assert stage("G1", "D", perturbed=False, eta_sign=None) is first
    assert stage.cache_info().currsize == 1


def _count_calls(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_one_spec_and_levi_civita_per_algebra(monkeypatch):
    specs = _count_calls(monkeypatch, algebra, "catalog")
    lcs = _count_calls(monkeypatch, connection, "levi_civita")
    stage.cache_clear()
    for config in all_configurations():
        stage(*config)
    assert stage.cache_info().currsize == 48
    assert len(specs) == len(lcs) == 8
    stage.cache_clear()
    assert stage.cache_info().currsize == 0
    stage("G4", "D1", True, -1)
    assert len(specs) == len(lcs) == 9


def test_stages_of_one_algebra_share_its_levi_civita():
    for group in algebra.GROUPS:
        for eta in eta_signs(group):
            plain = stage(group, "D", eta_sign=eta)
            perturbed = stage(group, "D2", True, eta)
            assert plain.spec is perturbed.spec
            assert plain.levi_civita is perturbed.levi_civita
