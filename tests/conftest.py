import os

from lightdet.cli import _THREAD_VARS  # stdlib-only module, safe before numpy

# single-threaded BLAS before numpy loads: deterministic reductions, no oversubscription
for var in _THREAD_VARS:
    os.environ.setdefault(var, "1")

import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture
def rng1():
    return np.random.default_rng(1)
