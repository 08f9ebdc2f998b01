import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(__file__))


@pytest.fixture
def philox_keys(monkeypatch):
    """The key of every Philox bit generator built while the test runs, as a
    tuple, in order of construction."""
    keys = []
    real = np.random.Philox

    def recording(*args, key=None, **kwargs):
        keys.append(tuple(np.asarray(key).tolist()))
        return real(*args, key=key, **kwargs)

    monkeypatch.setattr(np.random, "Philox", recording)
    return keys
