import numpy as np
import pytest

from liemorph import GridSpec


@pytest.fixture
def grid64():
    """Desk-scale square grid."""
    return GridSpec(64, 64, 5000.0, 5000.0)


@pytest.fixture
def grid_small():
    """Small rectangular grid; asymmetric on purpose to catch axis mixups."""
    return GridSpec(16, 12, 3.0, 2.0)


@pytest.fixture
def grid16():
    """Unit-square 16x16 grid for dense-oracle comparisons."""
    return GridSpec(16, 16, 1.0, 1.0)


@pytest.fixture
def rng():
    return np.random.default_rng(42)


@pytest.fixture
def count_ffts(monkeypatch):
    """Call it to start counting numpy.fft.rfft2 and irfft2 calls; it
    returns the dict of counts, which the rest of the test updates."""

    def start():
        counts = {"rfft2": 0, "irfft2": 0}
        for name in counts:
            fn = getattr(np.fft, name)

            def counted(*args, _fn=fn, _name=name, **kwargs):
                counts[_name] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(np.fft, name, counted)
        return counts

    return start
