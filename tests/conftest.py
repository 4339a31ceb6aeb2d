import sys
import tracemalloc
import weakref

import numpy as np
import pytest

from liemorph import GridSpec, morph_engine, spectral_core, tsw_model


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

    Every real 2-D transform of the package goes through the pair
    `spectral_core._rfft2` and `_irfft2`, and one call transforms a whole
    stack (..., nx, ny).  Forward transforms are counted under "rfft2" and
    inverse ones under "irfft2", one per 2-D slice of the stack (the work;
    at a batch of one member, one per field), and the calls of either
    direction under "calls" (the per-call overhead, which a batch of any
    size shares).  Each liemorph module that holds a helper by name gets
    the counting one.
    """

    def start():
        counts = {"rfft2": 0, "irfft2": 0, "calls": 0}
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "liemorph"]
        for name, key in (("_rfft2", "rfft2"), ("_irfft2", "irfft2")):
            fn = getattr(spectral_core, name)

            def counted(x, *args, _fn=fn, _key=key, **kwargs):
                counts[_key] += x.size // (x.shape[-2] * x.shape[-1])
                counts["calls"] += 1
                return _fn(x, *args, **kwargs)

            for module in modules:
                if getattr(module, name, None) is fn:
                    monkeypatch.setattr(module, name, counted)
        return counts

    return start


def base_map(array):
    """The memory map an array is a view of, or None: the last link of the
    array's base chain, when it is a memoryview, exposes the map as .obj."""
    base = array
    while isinstance(base, np.ndarray):
        base = base.base
    return base.obj if isinstance(base, memoryview) else None


@pytest.fixture
def workspace_maps(monkeypatch):
    """Call it to record the memory map of every `tsw_model._Workspace`
    made from then on, the batch loops' included, and of each `keep`; it
    returns the list that receives (weakref to the map, its bytes, traced
    peak).  tracemalloc does not see a map, so while it traces, the peak
    it has traced up to the map's making is recorded and then reset: the
    memory's peak is the larger of that one and the map's bytes plus the
    traced peak after it."""

    def start():
        maps = []

        class Recorded(tsw_model._Workspace):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                self._record()

            def keep(self, mask):
                super().keep(mask)
                self._record()

            def _record(self):
                mapped, peak = base_map(self.spec), None
                if tracemalloc.is_tracing():
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.reset_peak()
                maps.append((weakref.ref(mapped), len(mapped), peak))

        for module in (tsw_model, morph_engine):
            monkeypatch.setattr(module, "_Workspace", Recorded)
        return maps

    return start
