"""Fourier and wavelet analysis on the grid.

Conventions:
  * f(x) = sum_k fhat(k) e^{2 pi i k x} with modes k in {-N/2+1, ..., N/2};
    arrays are stored in FFT layout.
  * P_+ keeps 0 < k < N/2, P_- keeps -N/2 < k < 0.  The k = 0 mode and the
    unpaired Nyquist mode N/2 belong to neither projection, so that real
    signals split symmetrically and H^2 = -I off those modes.
  * Hilbert transform is the multiplier -i sgn(k), sgn(0) = sgn(N/2) = 0,
    which maps real signals to real signals (cos -> sin).
  * The strong maximal function has one kernel, `_largest_mean`, for any d,
    on the torus or on the padded window [-1, 2)^d of `journe`.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .dyadic import (
    DyadicInterval,
    DyadicRectangle,
    Grid,
    ResolutionError,
    Signal,
)


# ---------------------------------------------------------------------------
# spectra


def mode_numbers(grid: Grid) -> np.ndarray:
    """Signed mode numbers along one axis in FFT layout; Nyquist reported as +N/2."""
    N = grid.n_points
    k = np.fft.fftfreq(N, d=1.0 / N).astype(int)
    k[N // 2] = N // 2
    return k


@functools.lru_cache(maxsize=None)
def axis_multiplier(kind: str, n_points: int) -> np.ndarray:
    """Read-only FFT-layout multiplier of one axis of n_points samples, built once:
    '+' and '-' keep 0 < k < N/2 and -N/2 < k < 0, 'mean' keeps k = 0 and N/2,
    'hilbert' is -i sgn(k) and 'signum' is sgn(k), with sgn(0) = sgn(N/2) = 0."""
    k = mode_numbers(Grid(n_points.bit_length() - 1))
    sgn = np.where(k == n_points // 2, 0.0, np.sign(k).astype(float))
    table = {"+": (sgn > 0) * 1.0, "-": (sgn < 0) * 1.0, "mean": (sgn == 0) * 1.0,
             "hilbert": -1j * sgn, "signum": sgn + 0j}
    table[kind].flags.writeable = False
    return table[kind]


def apply_multipliers(kinds: tuple, values: np.ndarray, out=None) -> np.ndarray:
    """Per-axis Fourier multipliers on an array whose last len(kinds) axes are the
    grid axes 1..d; any leading axes are a batch.  kinds[a] names the multiplier
    of grid axis a + 1 (see `axis_multiplier`) or is None to leave that axis
    alone.  One FFT, multiply and inverse FFT per named axis, in axis order,
    written to `out` if given (a complex array, which may be `values` itself);
    with no named axis `values` comes back as it is."""
    d = len(kinds)
    for a, kind in enumerate(kinds):
        if kind is not None:
            out = np.fft.fft(values, axis=a - d, out=out)
            out *= axis_multiplier(kind, values.shape[a - d]).reshape((-1,) + (1,) * (d - 1 - a))
            values = np.fft.ifft(out, axis=a - d, out=out)
    return values


def on_axis(kind: str, axis: int, dim: int) -> tuple:
    """The `apply_multipliers` kinds of one multiplier on one axis of a dim-d grid."""
    return (None,) * (axis - 1) + (kind,) + (None,) * (dim - axis)


def _multiply(kind: str, axis: int, f: Signal) -> Signal:
    return Signal(f.grid, apply_multipliers(on_axis(kind, axis, f.grid.dim), f.values))


def analytic_projection(sign: str, axis: int, f: Signal) -> Signal:
    """Spectral projection onto 0 < k < N/2 ('+') or -N/2 < k < 0 ('-') on one axis."""
    if sign not in ("+", "-"):
        raise ValueError("sign must be '+' or '-'")
    return _multiply(sign, axis, f)


def product_projection(sigma: tuple[str, ...], f: Signal) -> Signal:
    """P_sigma = tensor product of per-axis projections, sigma in {'+','-'}^d."""
    if not set(sigma) <= {"+", "-"}:
        raise ValueError("sign must be '+' or '-'")
    return Signal(f.grid, apply_multipliers(tuple(sigma) + (None,) * (f.grid.dim - len(sigma)),
                                            f.values))


def all_analytic_projection(f: Signal) -> Signal:
    """P_oplus: keep only the all-positive frequency octant."""
    return product_projection(("+",) * f.grid.dim, f)


def hilbert_transform(axis: int, f: Signal) -> Signal:
    """Multiplier -i sgn(k) on the chosen axis; annihilates constants and Nyquist."""
    return _multiply("hilbert", axis, f)


def fourier_mode(grid: Grid, *k: int) -> Signal:
    """The exponential e^{2 pi i k.x} as a Signal."""
    mesh = grid.meshgrid()
    phase = sum(ki * xi for ki, xi in zip(k, mesh))
    return Signal(grid, np.exp(2j * np.pi * phase))


# ---------------------------------------------------------------------------
# Haar analysis / synthesis


@dataclass
class HaarCoefficients:
    """Tensor Haar coefficients as one array in heap order along each axis:
    index 0 is the integral (the coefficient against the constant 1) and
    index 2^p + j is <f, h_I> for I = I(p, j) = [j 2^-p, (j+1) 2^-p), so the
    halves of index i are 2i and 2i + 1.  values[i_1, ..., i_d] is the
    coefficient against the tensor product of those functions; this is the
    full orthonormal tensor system, so Parseval holds exactly."""

    grid: Grid
    values: np.ndarray

    @property
    def mean(self) -> complex:
        return complex(self.values[(0,) * self.grid.dim])

    def band(self, *scales: int) -> np.ndarray:
        """The view of the coefficients of the boxes whose side on axis a is 2^-scales[a]."""
        return self.values[_heap_band(scales)]

    def total_energy(self) -> float:
        return float(np.sum(np.abs(self.values) ** 2))


def _heap_band(scales) -> tuple:
    """The heap index of the boxes whose side on axis a is 2^-scales[a]."""
    return tuple(slice(1 << p, 2 << p) for p in scales)


def _haar_analysis_axis(values: np.ndarray, depth: int) -> np.ndarray:
    """Haar coefficients in heap order along axis 0 (trailing axes: a stack)."""
    out = np.empty(values.shape, dtype=np.result_type(values, float))
    w = values * 2.0 ** -depth  # start from cell integrals
    for p in range(depth - 1, -1, -1):
        pairs = w.reshape((1 << p, 2) + w.shape[1:])
        # <f, h_I> = |I|^(-1/2) * (integral over right half - integral over left half)
        out[1 << p:2 << p] = (pairs[:, 1] - pairs[:, 0]) * 2.0 ** (p / 2)
        w = pairs[:, 0] + pairs[:, 1]
    out[0] = w[0]
    return out


def _haar_synthesis_axis(coeffs: np.ndarray, depth: int) -> np.ndarray:
    """Inverse of `_haar_analysis_axis`: cell values along axis 0."""
    w = coeffs[:1]
    for p in range(depth):
        c = coeffs[1 << p:2 << p] * 2.0 ** (-p / 2)
        halves = np.empty((1 << p, 2) + w.shape[1:], dtype=np.result_type(coeffs, float))
        halves[:, 0] = (w - c) / 2.0
        halves[:, 1] = (w + c) / 2.0
        w = halves.reshape((2 << p,) + w.shape[1:])
    return w * 2.0 ** depth  # integrals -> cell values


def _haar_transform(values: np.ndarray, d: int, inverse: bool = False) -> np.ndarray:
    """Haar analysis along axes 0, ..., d-1 of values (trailing axes: a
    stack), or with `inverse` its synthesis along axes d-1, ..., 0."""
    depth = values.shape[0].bit_length() - 1
    step = _haar_synthesis_axis if inverse else _haar_analysis_axis
    for a in reversed(range(d)) if inverse else range(d):
        values = np.moveaxis(step(np.moveaxis(values, a, 0), depth), 0, a)
    return values


def haar_analysis(f: Signal) -> HaarCoefficients:
    """Coefficients against the full tensor Haar system, the mean included."""
    return HaarCoefficients(f.grid, _haar_transform(f.values, f.grid.dim))


def haar_synthesis(coeffs: HaarCoefficients) -> Signal:
    return Signal(coeffs.grid, _haar_transform(coeffs.values, coeffs.grid.dim, inverse=True))


# ---------------------------------------------------------------------------
# maximal and square functions


def _largest_mean(a: np.ndarray, depth: int, axis: int, inner=lambda means: means) -> np.ndarray:
    """For each cell along `axis` the largest of the means of a over the
    dyadic blocks holding it, each mapped by `inner`: sides 2^(k - depth),
    k = 0..depth, each tiling the axis, whether the torus [0, 1) of 2^depth
    cells or the padded window [-1, 2) of 3 2^depth (-1 is a multiple of
    each side); on the window also [0, 2), the one block of side 2 that
    fits.  Coarse to fine, each side's maxima go in place onto both halves
    of its blocks in the next side's."""
    def part(x, cells):
        return x[(slice(None),) * axis + (cells,)]

    sums = [a]
    for _ in range(depth):
        sums.append(part(sums[-1], slice(0, None, 2)) + part(sums[-1], slice(1, None, 2)))
    best = inner(sums[depth] / (1 << depth))
    for k in range(depth - 1, -1, -1):
        finer = inner(sums[k] / (1 << k))
        halves = finer.reshape(finer.shape[:axis] + (-1, 2) + finer.shape[axis + 1:])
        np.maximum(halves, np.expand_dims(best, axis + 1), out=halves)
        best = finer
    if a.shape[axis] > 1 << depth:  # the window
        pair = inner(part(sums[depth], slice(1, 3)).sum(axis=axis, keepdims=True) / (2 << depth))
        inside = part(best, slice(1 << depth, None))
        np.maximum(inside, pair, out=inside)
    return best


def _strong_maximal(values: np.ndarray, depth: int, inner=lambda means: means) -> np.ndarray:
    """For each cell the largest of the means of `values` (float or complex,
    any number of axes, each the torus or the padded window) over the boxes
    holding it whose sides are `_largest_mean`'s blocks, each mapped by
    `inner`.

    Summing blocks of blocks, scale by scale, gives each mean, and the maxima
    may be taken in any order: for each side of the axis-0 blocks over the
    blocks of the later axes, then over the axis-0 blocks, each on its grid
    of blocks; so `inner` maps the means of whole boxes."""
    for axis in range(values.ndim - 1, -1, -1):
        inner = functools.partial(_largest_mean, depth=depth, axis=axis, inner=inner)
    return inner(values)


def strong_maximal(f: Signal) -> Signal:
    """sup over dyadic boxes R containing x of |average of f over R|, for
    any d (in 1-D the dyadic maximal function)."""
    return Signal(f.grid, _strong_maximal(f.values, f.grid.depth, np.abs).astype(complex))


def square_function(f: Signal, family: str = "haar", meyer: "MeyerFamily" = None) -> Signal:
    """S f = (sum_R |<f, phi_R>|^2 |R|^-1 1_R)^(1/2) for the chosen mean-zero
    family: tensor Haar wavelets (any d) or the Meyer wavelets w_I (d = 1)."""
    n = f.grid.depth
    if family == "haar":
        coeffs = haar_analysis(f)
        bands = {ps: coeffs.band(*ps) for ps in itertools.product(range(n - 1, -1, -1),
                                                                   repeat=f.grid.dim)}
    elif family == "meyer":
        if meyer is None or f.grid.dim != 1:
            raise ValueError("family='meyer' needs a one-dimensional signal and its MeyerFamily")
        c = meyer.analysis(f.values)
        bands = {(p,): c[meyer.band(p)] for p in meyer.scales}
    else:
        raise ValueError("family must be 'haar' or 'meyer'")
    acc = np.zeros(f.grid.shape, dtype=float)
    for ps, arr in bands.items():  # the coefficients of the rectangles of sides 2^-ps
        blown = np.abs(arr) ** 2
        for axis, p in enumerate(ps):
            blown = np.repeat(blown, 1 << (n - p), axis=axis)
        acc += blown * 2.0 ** sum(ps)
    return Signal(f.grid, np.sqrt(acc).astype(complex))


# ---------------------------------------------------------------------------
# Meyer wavelets in frequency space


def meyer_window(t):
    """Polynomial window nu with nu(t) + nu(1-t) = 1, C^3 at the endpoints."""
    t = np.clip(t, 0.0, 1.0)
    return t ** 4 * (35.0 - 84.0 * t + 70.0 * t ** 2 - 20.0 * t ** 3)


def meyer_amplitude(t):
    """|mother profile| at normalized frequency t = xi / (2 pi); support [1, 4]."""
    t = np.abs(np.asarray(t, dtype=float))
    out = np.zeros_like(t)
    lo = (t >= 1.0) & (t <= 2.0)
    hi = (t > 2.0) & (t <= 4.0)
    out[lo] = np.sin(0.5 * np.pi * meyer_window(t[lo] - 1.0))
    out[hi] = np.cos(0.5 * np.pi * meyer_window(0.5 * t[hi] - 1.0))
    return out / np.sqrt(3.0)


def meyer_mother_profile(t):
    """Complex mother profile Q(t); Q(-t) = conj(Q(t)), support 1 <= |t| <= 4.

    The phase anchors the wavelet to the left endpoint of its interval, which
    is what makes distinct dilates exactly orthogonal.
    """
    t = np.asarray(t, dtype=float)
    return meyer_amplitude(t) * np.exp(1j * np.pi * t / 3.0)


def meyer_father_profile(t, levels: int = 64):
    """F(t) = sum_{i>=0} Q(2^i t): accumulates every scale finer than t's.

    Satisfies Q(t) = F(t) - F(2t) exactly; support 0 < |t| <= 4.
    """
    t = np.asarray(t, dtype=float)
    out = np.zeros(t.shape, dtype=complex)
    for i in range(levels):
        scale = 2.0 ** i
        if np.all(np.abs(t) * scale > 4.0):
            break
        out += meyer_mother_profile(t * scale)
    return out


class MeyerTable(NamedTuple):
    """One kind of the Meyer family, every member at once in `MeyerFamily.intervals`
    (heap) order: rows[i] is member i's FFT-layout coefficient array and
    samples[:, i] its values on the grid.  Both are read-only."""

    rows: np.ndarray
    samples: np.ndarray


class MeyerFamily:
    """Discrete Meyer system on a grid: wavelets w_I, parts u_I/v_I, fathers W_I.

    Scale p wavelets (|I| = 2^-p) occupy modes 2^p <= |k| <= 2^(p+2); scales are
    kept only while 2^(p+2) <= N/4, i.e. |I| >= 2^(4-n), so products of two
    family members stay alias-free.  Within that range the Gram matrix is the
    identity to machine precision.

    Members are numbered in heap order: I(p, j) = [j 2^-p, (j+1) 2^-p) is
    member 2^p - 1 + j (`index`), so scale p holds 2^p - 1 ... 2^(p+1) - 2.
    Each kind is one `MeyerTable`, built on first use; `analysis` and
    `synthesis` are matrix products with its samples.
    """

    def __init__(self, grid: Grid):
        if grid.depth < 5:
            raise ResolutionError("Meyer family needs grid depth >= 5")
        self.grid = grid
        self.axis_grid = Grid(grid.depth, 1)
        self.max_scale = grid.depth - 4
        self.scales = list(range(self.max_scale + 1))
        self.intervals = [DyadicInterval(-p, j) for p in self.scales for j in range(1 << p)]
        self._tables: dict = {}

    # -- 1D builders --------------------------------------------------------

    def table(self, kind: str = "w") -> MeyerTable:
        """The rows and samples of w/u/v/W on every interval, from one vectorized
        profile evaluation and one inverse FFT (built once per kind)."""
        if kind not in self._tables:
            if kind not in ("w", "u", "v", "W"):
                raise ValueError("kind must be one of 'w', 'u', 'v', 'W'")
            k = mode_numbers(self.axis_grid)
            p, j = np.array([[-iv.scale_exponent, iv.position] for iv in self.intervals]).T[..., None]
            t = k * np.ldexp(1.0, -p)
            prof = meyer_father_profile(t) if kind == "W" else meyer_mother_profile(t)
            if kind == "v":
                prof = np.where(k > 0, prof, 0.0)
            elif kind in ("u", "W"):
                # u = P_- w; the father accumulates the same antianalytic side
                prof = np.where(k < 0, prof, 0.0)
            amplitude = np.array([[2.0 ** (iv.scale_exponent / 2)] for iv in self.intervals])
            rows = amplitude * prof * np.exp(-2j * np.pi * t * j)
            samples = np.ascontiguousarray((np.fft.ifft(rows) * self.axis_grid.n_points).T)
            rows.flags.writeable = samples.flags.writeable = False
            self._tables[kind] = MeyerTable(rows, samples)
        return self._tables[kind]

    def index(self, interval: DyadicInterval) -> int:
        """The heap index 2^p - 1 + j of I(p, j): its row in every table."""
        p = -interval.scale_exponent
        if p not in self.scales:
            raise ResolutionError(f"scale 2^-{p} outside the resolvable Meyer range")
        if not 0 <= interval.position < 1 << p:
            raise ValueError(f"position {interval.position} outside 0..{(1 << p) - 1} at scale 2^-{p}")
        return (1 << p) - 1 + interval.position

    def mode_array(self, interval: DyadicInterval, kind: str = "w") -> np.ndarray:
        """FFT-layout coefficient array of w/u/v/W on the interval (read-only)."""
        return self.table(kind).rows[self.index(interval)]

    def signal(self, interval: DyadicInterval, kind: str = "w") -> Signal:
        """w_I, u_I, v_I or W_I (kind 'w', 'u', 'v' or 'W') sampled on the axis grid."""
        return Signal(self.axis_grid, self.table(kind).samples[:, self.index(interval)].copy())

    def band(self, scale: int) -> slice:
        """The heap indices 2^p - 1 ... 2^(p+1) - 2 of the members with |I| = 2^-p."""
        first = self.index(DyadicInterval(-scale, 0))
        return slice(first, 2 * first + 1)

    def block_factor(self, scale: int) -> np.ndarray:
        """U_p, the N x 2^p matrix of the sampled u_I over |I| = 2^-p (read-only)."""
        return self.table("u").samples[:, self.band(scale)]

    def block_projector(self, scale: int) -> np.ndarray:
        """P_p f = sum_{|I| = 2^-p} u_I <f, u_I> as the N x N matrix U_p U_p^* / N."""
        U = self.block_factor(scale)
        return U @ U.conj().T / self.axis_grid.n_points

    def gram_defect(self) -> float:
        """max |<w_I, w_J> - delta_IJ| over all resolvable pairs."""
        mats = self.table("w").rows
        gram = mats @ mats.conj().T
        return float(np.max(np.abs(gram - np.eye(len(self.intervals)))))

    # -- analysis and synthesis ----------------------------------------------

    def _columns(self, kind: str, normalized: bool) -> np.ndarray:
        """S, the kind's samples as columns, each scaled to unit L2 norm if normalized."""
        S = self.table(kind).samples
        return S / np.sqrt(np.sum(np.abs(S) ** 2, axis=0) / len(S)) if normalized else S

    def analysis(self, values: np.ndarray, kind: str = "w", normalized: bool = False) -> np.ndarray:
        """Inner products with every member in heap order: S^* f / N, the <f, s_I>
        of samples f of length N, or S^* X conj(S) / N^2, the matrix of
        <X, s_I (x) s_J> of samples X of shape N x N (see `_columns`)."""
        Sbar = self._columns(kind, normalized).conj()
        N = len(Sbar)
        if values.ndim == 1:
            return Sbar.T @ values / N
        return Sbar.T @ values @ Sbar / N ** 2

    def synthesis(self, coefficients: np.ndarray, kind: str = "w", normalized: bool = False,
                  bands: tuple = (slice(None), slice(None)), out=None) -> np.ndarray:
        """sum_I c_I s_I = S c for a vector c, sum_{I,J} C[I, J] s_I (x) s_J =
        S C S^T for a matrix C (heap order; see `_columns`); for the orthonormal
        w it inverts `analysis` on the span.  bands (heap-index slices, one per
        axis of the coefficients) keeps c[bands] and the members they select;
        the N x N product runs over the smaller rank, into out if given."""
        S = self._columns(kind, normalized)
        if coefficients.ndim == 1:
            return S[:, bands[0]] @ coefficients[bands[0]]
        Sr, Sc, C = S[:, bands[0]], S[:, bands[1]], coefficients[bands]
        if Sr.shape[1] <= Sc.shape[1]:
            return np.matmul(Sr, C @ Sc.T, out=out)
        return np.matmul(Sr @ C, Sc.T, out=out)

    # -- 2D tensors ----------------------------------------------------------

    def tensor(self, rect, kinds: tuple[str, str], normalized: bool = False) -> Signal:
        """Product of per-axis family members on a dyadic rectangle (d = 2),
        each factor scaled to unit L2 norm when normalized (the analytic and
        antianalytic halves carry norm 1/sqrt(2) per axis)."""
        f1, f2 = (self._columns(kind, normalized)[:, self.index(iv)]
                  for kind, iv in zip(kinds, rect.coordinates))
        return Signal(Grid(self.axis_grid.depth, 2), np.multiply.outer(f1, f2))

    def mixed_father(self, rect, J: tuple[int, ...]) -> Signal:
        """W_{R,J}: antianalytic wavelet factor u on axes in J, father W elsewhere."""
        kinds = tuple("u" if (ax in J) else "W" for ax in (1, 2))
        return self.tensor(rect, kinds)

    def rectangles(self) -> list:
        return sorted((DyadicRectangle((i1, i2)) for i1 in self.intervals for i2 in self.intervals),
                      key=DyadicRectangle.sort_key)


def build_meyer_family(grid: Grid) -> MeyerFamily:
    """Frequency-domain Meyer construction; raises on grids too coarse to hold the band."""
    return MeyerFamily(grid)
