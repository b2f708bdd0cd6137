from bottsol.pipeline import stage


def test_every_call_form_shares_one_cache_entry():
    stage.cache_clear()
    first = stage("G1", "D")
    assert stage("G1", "D", False, None) is first
    assert stage("G1", "D", perturbed=False, eta_sign=None) is first
    assert stage.cache_info().currsize == 1

