import pytest

from bottsol import registry
from bottsol.registry import RegistryError

HEADER = "[theorem 9.1 group=G1 dist=D kind=families]\n"


@pytest.mark.parametrize("text, message", [
    ("family 1:\n", "theorems line 1: content before first block"),
    ("[theorem 9.1 group=G1 dist=D oops]\n", "bad token 'oops' in theorem header"),
    (HEADER + "clause G1:\n", "theorems line 2: bad clause header"),
    (HEADER + "family 1 2:\n", "theorems line 2: bad family header"),
    (HEADER + "bind mu = 0\n", "theorems line 2: directive outside a family"),
    (HEADER + "family 1:\n  solve mu\n", "theorems line 3: unknown directive 'solve mu'"),
    (HEADER + "family 1:\n  bind\n", "theorems line 3: unknown directive 'bind'"),
    (HEADER + "family 1:\n  completion frob mu\n",
     "theorems line 3: unknown directive 'frob mu'"),
])
def test_theorem_registry_errors(monkeypatch, text, message):
    monkeypatch.setattr(registry, "_data_text", lambda relpath: text)
    with pytest.raises(RegistryError) as exc:
        registry.load_theorems()
    assert str(exc.value) == message
