import numpy as np
import pytest

from ceofdm import WaveformConfig


@pytest.fixture(scope="session")
def reference_cfg():
    """L=24 subcarriers, TBP-200 equivalent bandwidth, M = 5 * tbp = 1000 samples."""
    return WaveformConfig(L=24, tbp=200.0)


@pytest.fixture(scope="session")
def small_cfg():
    """Small, fast config for property loops."""
    return WaveformConfig(L=8, h=0.15, samples=64)


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)
