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
    """Call it to start counting 2-D real transforms; it returns the dict of
    counts, which the rest of the test updates.

    Forward calls are counted under "rfft2" and inverse ones under
    "irfft2".  The kernel makes its inverse transforms through
    numpy.fft.irfftn, since irfft2 ignores `out`, so irfftn and rfftn are
    counted too.  numpy's own irfft2 reaches irfftn by a module-internal
    name, not through numpy.fft, so no transform is counted twice.
    """

    def start():
        counts = {"rfft2": 0, "irfft2": 0}
        for name, key in (("rfft2", "rfft2"), ("rfftn", "rfft2"),
                          ("irfft2", "irfft2"), ("irfftn", "irfft2")):
            fn = getattr(np.fft, name)

            def counted(*args, _fn=fn, _key=key, **kwargs):
                counts[_key] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(np.fft, name, counted)
        return counts

    return start
