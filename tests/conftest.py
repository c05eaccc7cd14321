import numpy as np
import pytest


@pytest.fixture
def linalg_calls(monkeypatch):
    """(function, shape, mode) of each `np.linalg.qr`, `cholesky` and
    `eigvalsh` call from the fixture's set-up on; mode is `qr`'s, as
    passed, or None."""
    calls = []

    def spy(name):
        call = getattr(np.linalg, name)

        def spied(a, *args, **kwargs):
            calls.append((name, a.shape, kwargs.get("mode", args[0] if args else None)))
            return call(a, *args, **kwargs)

        return spied

    for name in ("qr", "cholesky", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, spy(name))
    return calls
