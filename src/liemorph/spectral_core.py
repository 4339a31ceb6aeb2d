"""Fourier calculus on a doubly periodic rectangular grid.

All operators are defined through physical wavenumbers kx = 2*pi*m/lx so the
results do not depend on the FFT layout.  Fields are sampled at cell centers
(i*dx, j*dy) with the first array axis running along x.
"""

import functools
import math
import numbers

import numpy as np

# numpy's pocketfft gufuncs, the 1-D transforms that np.fft.rfftn and
# irfftn call along each axis.  The module is private (numpy >= 2.0);
# test_spectral_core checks the pair below bit for bit against
# np.fft.rfft2 and irfft2, on the oldest numpy the project admits and on
# the newest.
from numpy.fft import _pocketfft_umath as _pfu

__all__ = [
    "GridSpec",
    "ScalarField",
    "gradient",
    "divergence",
    "curl_2d",
    "inverse_helmholtz",
    "hou_li_filter",
    "hou_li_multiplier",
    "coarsen",
    "refine",
    "domain_integral",
]


def _is_real(v):
    """A real number, numpy scalars too, that is not a bool and is a finite float."""
    try:
        return isinstance(v, numbers.Real) and not isinstance(v, bool) and math.isfinite(v)
    except OverflowError:  # an integer too large for a float
        return False


def _is_int(v):
    """An integer, numpy integers too, that is not a bool."""
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


class GridSpec:
    """Geometry of a doubly periodic rectangular grid.

    Args:
        nx, ny: grid counts, integers (numpy integers too), even and
            >= 4 (spectral symmetry of real transforms).
        lx, ly: physical extents in length units (km), finite and > 0,
            and large enough that the squared wavenumbers are finite.
    """

    def __init__(self, nx, ny, lx, ly):
        # each error begins with the argument it rejects
        for name, n in (("nx", nx), ("ny", ny)):
            if not (_is_int(n) and n >= 4 and n % 2 == 0):
                raise ValueError(f"{name} must be an even integer >= 4, got {n!r}")
        for name, n, v in (("lx", nx, lx), ("ly", ny, ly)):
            if not (_is_real(v) and v > 0):
                raise ValueError(f"{name} must be positive and finite, got {v!r}")
            # every mode's |k|^2 = kx^2 + ky^2 must be finite: the axis's
            # Nyquist pi n / l, its largest, squared takes half the range
            k = math.pi * int(n) / float(v)
            if not math.isfinite(2.0 * k * k):
                raise ValueError(f"{name} is too small for finite squared wavenumbers, got {v!r}")
        nx, ny = int(nx), int(ny)
        self.nx = nx
        self.ny = ny
        self.lx = float(lx)
        self.ly = float(ly)
        self.dx = self.lx / nx
        self.dy = self.ly / ny
        # physical wavenumbers (rad / length unit), FFT ordering
        self.kx = 2.0 * np.pi * np.fft.fftfreq(nx, d=self.dx)
        self.ky = 2.0 * np.pi * np.fft.fftfreq(ny, d=self.dy)
        # rfft2 layout: full modes along x (kx), nonnegative modes along y
        self._ky_r = 2.0 * np.pi * np.fft.rfftfreq(ny, d=self.dy)
        self._k2_r = self.kx[:, None] ** 2 + self._ky_r[None, :] ** 2
        # odd derivatives drop the Nyquist mode (avoids asymmetric
        # imaginary leakage)
        self._ikx_odd = 1j * self.kx
        self._ikx_odd[nx // 2] = 0.0
        self._iky_odd = 1j * self._ky_r
        self._iky_odd[-1] = 0.0
        # Parseval weights of the rfft2 columns: the ky = 0 and Nyquist
        # columns hold one mode each, every other column a conjugate pair
        self._parseval_w = np.full(ny // 2 + 1, 2.0)
        self._parseval_w[[0, -1]] = 1.0

    @property
    def shape(self):
        return (self.nx, self.ny)

    @property
    def area(self):
        return self.lx * self.ly

    def xy(self):
        """Cell-center coordinate arrays X, Y of shape (nx, ny)."""
        x = self.dx * np.arange(self.nx)
        y = self.dy * np.arange(self.ny)
        return np.meshgrid(x, y, indexing="ij")

    def __eq__(self, other):
        if not isinstance(other, GridSpec):
            return NotImplemented
        return (self.nx, self.ny, self.lx, self.ly) == (other.nx, other.ny, other.lx, other.ly)

    def __hash__(self):
        return hash((self.nx, self.ny, self.lx, self.ly))

    def __repr__(self):
        return f"GridSpec(nx={self.nx}, ny={self.ny}, lx={self.lx}, ly={self.ly})"


class ScalarField:
    """Real values sampled on a GridSpec.

    The component storage for every field symbol; value [i, j] sits at the
    cell center (i*dx, j*dy).
    """

    def __init__(self, grid, values):
        values = np.asarray(values, dtype=float)
        if values.shape != grid.shape:
            raise ValueError(f"values shape {values.shape} != grid shape {grid.shape}")
        _check_finite(values, "ScalarField")
        self.grid = grid
        self.values = values

    @classmethod
    def zeros(cls, grid):
        return cls(grid, np.zeros(grid.shape))

    @classmethod
    def constant(cls, grid, c):
        return cls(grid, np.full(grid.shape, float(c)))

    @classmethod
    def from_function(cls, grid, fn):
        """Sample fn(X, Y) at the cell centers."""
        x, y = grid.xy()
        return cls(grid, fn(x, y))

    def copy(self):
        return ScalarField(self.grid, self.values.copy())

    # small arithmetic layer; fields are value types
    def _binop(self, other, op):
        if isinstance(other, ScalarField):
            if other.grid != self.grid:
                raise ValueError("grid mismatch")
            return ScalarField(self.grid, op(self.values, other.values))
        return ScalarField(self.grid, op(self.values, other))

    def __add__(self, other):
        return self._binop(other, np.add)

    def __sub__(self, other):
        return self._binop(other, np.subtract)

    def __mul__(self, other):
        return self._binop(other, np.multiply)

    def __neg__(self):
        return ScalarField(self.grid, -self.values)

    def __repr__(self):
        return f"ScalarField({self.grid!r}, min={self.values.min():.4g}, max={self.values.max():.4g})"


def _check_finite(values, what):
    if not np.all(np.isfinite(values)):
        raise ValueError(f"non-finite values in {what}")


# gufunc axes of a transform along x, the second-last axis
_X_AXES = [(-2,), (), (-2,)]


def _rfft2(x, out=None):
    # rfft2 over the last two axes, as np.fft.rfft2 makes it, written into
    # `out` when given: the real transform along y (even ny), then the
    # complex one along x in place.  Going straight to the gufuncs skips
    # the n-D wrapper's Python work, which each call pays under the GIL.
    # A stack (..., nx, ny) is transformed in one call, each 2-D slice bit
    # for bit as on its own, so the kernels make one call per stack.
    if out is None:
        out = np.empty((*x.shape[:-1], x.shape[-1] // 2 + 1), dtype=complex)
    _pfu.rfft_n_even(x, 1.0, out=out)
    return _pfu.fft(out, 1.0, out=out, axes=_X_AXES)


def _irfft2(xh, shape, out=None, tmp=None):
    # inverse rfft2 over the last two axes to values of grid shape `shape`,
    # as np.fft.irfft2(xh, shape) makes it, written into `out` when given.
    # The complex inverse along x goes into `tmp`, which may be xh itself
    # when the caller no longer needs the spectrum; without it a temporary
    # of xh's size is allocated, as np.fft.irfftn does.
    nx, ny = shape
    if out is None:
        out = np.empty((*xh.shape[:-1], ny))
    tmp = np.empty_like(xh) if tmp is None else tmp
    _pfu.ifft(xh, 1 / nx, out=tmp, axes=_X_AXES)
    return _pfu.irfft(tmp, 1 / ny, out=out)


def _scratch(shape):
    # temporaries of the kernel helpers for fields of values shape (..., nx,
    # ny): two real fields and two rfft2 spectra, (r, c)
    spec_shape = (*shape[:-1], shape[-1] // 2 + 1)
    return np.empty((2, *shape)), np.empty((2, *spec_shape), dtype=complex)


def _grad_hat(fh, grid, out=None, tmp=None):
    # values (2, ..., nx, ny) of d/dx and d/dy of the field with rfft2
    # spectrum fh, Nyquist zeroed, written into `out` when given; tmp, when
    # given, is a complex array of shape (2, *fh.shape) that receives
    # fh * ik and takes the one inverse's complex pass
    tmp = np.empty((2, *fh.shape), dtype=complex) if tmp is None else tmp
    np.multiply(fh, grid._ikx_odd[:, None], out=tmp[0])
    np.multiply(fh, grid._iky_odd[None, :], out=tmp[1])
    return _irfft2(tmp, grid.shape, out, tmp)


def _deriv(values, grid, axis):
    # d/dx (axis 0) or d/dy (axis 1) of the values, Nyquist zeroed
    fh = _rfft2(values)
    fh *= grid._ikx_odd[:, None] if axis == 0 else grid._iky_odd[None, :]
    return _irfft2(fh, grid.shape, tmp=fh)


def gradient(f):
    """Spectral gradient (df/dx, df/dy) of a ScalarField."""
    _check_finite(f.values, "gradient input")
    g = f.grid
    return tuple(ScalarField(g, d) for d in _grad_hat(_rfft2(f.values), g))


def divergence(u):
    """Spectral divergence du1/dx + du2/dy of a DisplacementField."""
    _check_finite(u.u1.values, "divergence input")
    _check_finite(u.u2.values, "divergence input")
    g = u.u1.grid
    return ScalarField(g, _deriv(u.u1.values, g, 0) + _deriv(u.u2.values, g, 1))


def curl_2d(u):
    """Spectral scalar curl du2/dx - du1/dy of a DisplacementField."""
    _check_finite(u.u1.values, "curl input")
    _check_finite(u.u2.values, "curl input")
    g = u.u1.grid
    return ScalarField(g, _deriv(u.u2.values, g, 0) - _deriv(u.u1.values, g, 1))


def inverse_helmholtz(f):
    """Solve (I - Lap) g = f; each Fourier mode divided by 1 + kx^2 + ky^2."""
    _check_finite(f.values, "inverse_helmholtz input")
    fh = _rfft2(f.values)
    fh /= 1.0 + f.grid._k2_r
    return ScalarField(f.grid, _irfft2(fh, f.values.shape, tmp=fh))


def hou_li_multiplier(grid, a):
    """Hou-Li spectral multiplier exp(-36[(kx/kxmax)^a + (ky/kymax)^a]).

    Returned in the rfft2 layout.  The zero mode is untouched (factor 1).
    """
    if not (_is_real(a) and a > 0):
        raise ValueError(f"filter exponent a must be positive and finite, got {a!r}")
    rx = np.abs(grid.kx) / np.abs(grid.kx).max()
    ry = grid._ky_r / grid._ky_r.max()
    return np.exp(-36.0 * (rx[:, None] ** a + ry[None, :] ** a))


@functools.lru_cache(maxsize=16)
def _hou_li(grid, a):
    """hou_li_multiplier(grid, a), read-only; computed once per grid and
    exponent, and shared by equal grids."""
    mult = hou_li_multiplier(grid, a)
    mult.flags.writeable = False
    return mult


@functools.lru_cache(maxsize=16)
def _h1_weight(grid):
    """1 + |k|^2 of the odd derivatives, the H1 weight of each rfft2 mode,
    read-only; computed once per grid, and shared by equal grids."""
    w = 1.0 + (grid._ikx_odd.imag[:, None] ** 2 + grid._iky_odd.imag[None, :] ** 2)
    w.flags.writeable = False
    return w


def hou_li_filter(f, a):
    """Apply the Hou-Li filter of exponent a (see `hou_li_multiplier`)."""
    _check_finite(f.values, "hou_li_filter input")
    fh = _rfft2(f.values)
    fh *= _hou_li(f.grid, a)
    return ScalarField(f.grid, _irfft2(fh, f.values.shape, tmp=fh))


def _resample_modes(coeffs, n_new, axis):
    """Truncate or zero-pad normalized full-FFT coefficients along one axis.

    The Nyquist pair is merged on the way down and split half/half on the
    way up, which keeps coarsen(refine(g)) exact and real fields real.
    """
    n_old = coeffs.shape[axis]
    if n_new == n_old:
        return coeffs.copy()
    coeffs = np.moveaxis(coeffs, axis, 0)
    out = np.zeros((n_new,) + coeffs.shape[1:], dtype=complex)
    if n_new < n_old:
        m = n_new // 2
        out[:m] = coeffs[:m]
        out[m + 1 :] = coeffs[n_old - (n_new - m - 1) :]
        out[m] = coeffs[m] + coeffs[n_old - m]
    else:
        m = n_old // 2
        out[:m] = coeffs[:m]
        out[n_new - (m - 1) : n_new] = coeffs[m + 1 :]
        out[m] = 0.5 * coeffs[m]
        out[n_new - m] = 0.5 * coeffs[m]
    return np.moveaxis(out, 0, axis)


def _resample_values(values, grid, new_grid):
    """values on grid resampled onto new_grid through the complex fft2 and
    ifft2, as an array that owns its memory.

    The ifft2 result's real part is copied out, so the field does not pin
    that complex array, twice its size.  The copy keeps the array's memory
    order, F when the y axis is resampled (`_resample_modes` returns that
    axis moved back) and C otherwise: np.mean sums in memory order, and a
    C-order copy moves the observation variances of `assimilation.observe`
    by an ulp.  The copy is allocated before the transforms' temporaries,
    so a long-lived field does not sit above them on the heap and keep it
    from shrinking.
    """
    out = np.empty(new_grid.shape, order="F" if new_grid.ny != grid.ny else "C")
    fh = np.fft.fft2(values) / (grid.nx * grid.ny)
    fh = _resample_modes(fh, new_grid.nx, 0)
    fh = _resample_modes(fh, new_grid.ny, 1)
    np.copyto(out, np.fft.ifft2(fh * (new_grid.nx * new_grid.ny)).real)
    return out


def _check_coarse(fine, coarse):
    """Raise ValueError unless `coarse` is a coarse grid of `fine`: the same
    extents, and grid counts that divide fine's.  Each error begins with
    the coarse grid's attribute it rejects."""
    for name in ("lx", "ly"):
        if getattr(coarse, name) != getattr(fine, name):
            raise ValueError(f"{name} {getattr(coarse, name)} must equal the fine grid's "
                             f"{name} {getattr(fine, name)}")
    for name in ("nx", "ny"):
        if getattr(fine, name) % getattr(coarse, name):
            raise ValueError(f"{name} {getattr(coarse, name)} must divide the fine grid's "
                             f"{name} {getattr(fine, name)}")


def coarsen(f, coarse):
    """Spectral truncation of f onto `coarse`, a coarse grid of f's (see `_check_coarse`)."""
    _check_coarse(f.grid, coarse)
    return ScalarField(coarse, _resample_values(f.values, f.grid, coarse))


def refine(f, fine):
    """Spectral zero-padding of f onto `fine`, of which f's grid is a coarse grid."""
    _check_coarse(fine, f.grid)
    return ScalarField(fine, _resample_values(f.values, f.grid, fine))


def domain_integral(f):
    """Integral over the domain by the mean-value quadrature: mean * lx * ly."""
    return float(f.values.mean()) * f.grid.area
