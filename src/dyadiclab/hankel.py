"""Hankel and Toeplitz matrices, Hankel operators on truncated Hardy spaces,
commutators with the Hilbert transform, and their block identities.

A Hankel operator with analytic symbol b acts by phi -> P(b * conj(phi)).
On the truncated exponential basis the matrix entries reduce to bhat(i+j);
matching the structural matrix is itself one of the tests.  The Hardy
projection used here keeps the k = 0 mode (H^2 contains constants), unlike
the strictly positive projections of the transforms module.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .dyadic import Grid, Signal
from .norms import OperatorMatrix, operator_norm
from . import transforms


@dataclass
class SymbolCoefficients:
    """Analytic Fourier coefficients bhat(k), k = 0..M-1 per axis."""

    coeffs: np.ndarray

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=complex)

    @property
    def dim(self) -> int:
        return self.coeffs.ndim

    @property
    def degree(self) -> int:
        return self.coeffs.shape[0]

    def to_signal(self, grid: Grid) -> Signal:
        """Sample sum bhat(k) e^{2 pi i k.x} on the grid (requires N >= 2*degree)."""
        if grid.n_points < 2 * self.degree:
            raise ValueError("grid too coarse for the symbol degree")
        modes = np.zeros(grid.shape, dtype=complex)
        modes[(slice(0, self.degree),) * self.dim] = self.coeffs
        return Signal(grid, np.fft.ifftn(modes) * grid.n_points ** grid.dim)


def random_symbol(degree: int, rng: np.random.Generator, dim: int = 1) -> SymbolCoefficients:
    shape = (degree,) * dim
    c = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return SymbolCoefficients(c)


@dataclass
class HankelOp:
    """A Hankel-structured operator together with its defining sequence
    (entry (i, j) = sequence[i + j], zero beyond the end)."""

    matrix: OperatorMatrix
    flavor: str  # "matrix_on_l2" | "operator_on_H2" | "little_product"
    sequence: np.ndarray = None

    def norm(self) -> float:
        return operator_norm(self.matrix)

    def sequence_norm(self) -> float:
        """Operator norm of the zero-completed semi-infinite Hankel operator.

        For a finitely supported sequence this equals the norm of the full
        window whose side equals the sequence length, and it is the quantity
        the norm-preserving extension actually preserves.
        """
        if self.sequence is None:
            raise ValueError("no defining sequence attached")
        L = len(self.sequence)
        return operator_norm(hankel_window(self.sequence, L, L))


def hankel_window(seq: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """rows x cols matrix with entry (i, j) = seq[i + j] (zero beyond the end)."""
    seq = np.asarray(seq, dtype=complex)
    out = np.zeros((rows, cols), dtype=complex)
    for i in range(rows):
        hi = min(cols, len(seq) - i)
        if hi > 0:
            out[i, :hi] = seq[i : i + hi]
    return out


def hankel_matrix(alpha, size: int) -> HankelOp:
    """size x size matrix with entries alpha[i+j]."""
    alpha = np.asarray(alpha, dtype=complex)
    if len(alpha) < 2 * size - 1:
        alpha = np.concatenate([alpha, np.zeros(2 * size - 1 - len(alpha), dtype=complex)])
    mat = hankel_window(alpha, size, size)
    om = OperatorMatrix(mat, ("modes", tuple(range(size))), ("modes", tuple(range(size))))
    return HankelOp(om, "matrix_on_l2", sequence=alpha[: 2 * size - 1])


def toeplitz_matrix(alpha_centered, size: int) -> OperatorMatrix:
    """size x size Toeplitz matrix; alpha_centered has length 2*size-1 with
    alpha_centered[size-1] = alpha_0, so entry (i,j) = alpha_{i-j}."""
    a = np.asarray(alpha_centered, dtype=complex)
    if len(a) != 2 * size - 1:
        raise ValueError("need a centered sequence of length 2*size-1")
    mat = a[size - 1 + np.subtract.outer(np.arange(size), np.arange(size))]
    return OperatorMatrix(mat, ("modes", tuple(range(size))), ("modes", tuple(range(size))))


def shift_matrix(size: int) -> np.ndarray:
    return np.eye(size, k=-1, dtype=complex)


def check_intertwining(H: HankelOp) -> float:
    """|| (H S - S* H) restricted to the interior block ||; exactly 0 for Hankel
    structure (the last row/column sees the truncation boundary)."""
    mat = H.matrix.entries
    M = mat.shape[0]
    S = shift_matrix(M)
    D = mat @ S - S.conj().T @ mat
    return float(np.linalg.norm(D[: M - 1, : M - 1]))


# ---------------------------------------------------------------------------
# Hankel operators from symbols, via honest grid computation


def symbol_grid_depth(degree: int) -> int:
    """Depth of the default sampling grid for a symbol of the given degree:
    the coarsest with N >= 4 * degree (alias-free products), at least 3."""
    return max(3, int(np.ceil(np.log2(4 * degree))))


def hankel_operator_1d(b: SymbolCoefficients, grid: Grid | None = None) -> HankelOp:
    """Matrix of phi -> P_{k>=0}(b * conj(phi)) on the exponential basis
    e_0..e_{M-1}, computed by sampling on a grid with N >= 4M (alias-free):
    one FFT along the rows of b * conj(e_j), j < M."""
    if b.dim != 1:
        raise ValueError("use little_hankel for 2D symbols")
    M = b.degree
    if grid is None:
        grid = Grid(symbol_grid_depth(M), 1)
    if grid.n_points < 4 * M:
        raise ValueError("need N >= 4*degree to avoid aliasing")
    bs = b.to_signal(grid).values
    e = np.exp(2j * np.pi * np.arange(M)[:, None] * grid.points())  # row j: e_j
    spec = np.fft.fft(bs * np.conj(e), axis=-1) / grid.n_points
    om = OperatorMatrix(spec[:, :M].T, ("modes", tuple(range(M))), ("modes", tuple(range(M))))
    return HankelOp(om, "operator_on_H2", sequence=np.append(b.coeffs, np.zeros(M - 1)))


def little_hankel(b: SymbolCoefficients, grid: Grid | None = None) -> HankelOp:
    """Matrix of phi -> P_(+,+){k_i >= 0}(b * conj(phi)) on the bi-mode basis
    {(j1, j2): 0 <= j_i < M}, row-major ordering."""
    if b.dim != 2:
        raise ValueError("little_hankel needs a 2D symbol")
    M = b.degree
    if grid is None:
        grid = Grid(symbol_grid_depth(M), 2)
    if grid.n_points < 4 * M:
        raise ValueError("need N >= 4*degree to avoid aliasing")
    bs = b.to_signal(grid).values
    N = grid.n_points
    basis = [(j1, j2) for j1 in range(M) for j2 in range(M)]
    e = np.exp(2j * np.pi * np.arange(M)[:, None] * grid.points())  # row j: e_j
    spec = np.empty((M, M, M, M), dtype=complex)
    # one FFT over the batch of phi = e_j1 (x) e_j2; degrees above 8 go in
    # slices of j1 so that no batch holds more than 2^17 points
    step = max(1, (1 << 17) // (M * N * N))
    for lo in range(0, M, step):
        phi = e[lo:lo + step, None, :, None] * e[None, :, None, :]
        spec[lo:lo + step] = np.fft.fft2(bs * np.conj(phi, out=phi))[..., :M, :M] / N ** 2
    om = OperatorMatrix(spec.reshape(M * M, M * M).T, ("bimodes", tuple(basis)),
                        ("bimodes", tuple(basis)))
    return HankelOp(om, "little_product")


def little_hankel_structural(b: SymbolCoefficients) -> np.ndarray:
    """Entries bhat(i1+j1, i2+j2) directly from the coefficient array."""
    M = b.degree
    c = np.zeros((2 * M, 2 * M), dtype=complex)
    c[:M, :M] = b.coeffs
    i1, i2 = np.divmod(np.arange(M * M), M)  # row-major bi-mode (i1, i2)
    return c[np.add.outer(i1, i1), np.add.outer(i2, i2)]


# ---------------------------------------------------------------------------
# commutators [M_b, H] on the truncated mode basis


# grid points per batch of modes: 8 modes of a 64^2 grid, whose arrays stay in cache
_BATCH_POINTS = 1 << 15


def _mode_batches(grid: Grid, kvecs: list):
    """(lo, hi, values) over consecutive slices of the mode list, values[i] the
    exponential e^{2 pi i k.x} of kvecs[lo + i] as a product of per-axis
    exponentials; no batch holds more than _BATCH_POINTS grid points."""
    d, N, x = grid.dim, grid.n_points, grid.points()
    kvecs = np.asarray(kvecs, dtype=float).reshape(-1, d)
    step = max(1, _BATCH_POINTS // N ** d)
    for lo in range(0, len(kvecs), step):
        ks = kvecs[lo:lo + step]
        values = 1.0
        for a in range(d):
            e = np.exp(2j * np.pi * ks[:, a, None] * x)
            values = values * e.reshape((len(ks),) + (1,) * a + (N,) + (1,) * (d - 1 - a))
        yield lo, lo + len(ks), values


def commutator_matrix(b: Signal, axes: tuple[int, ...] = (1,), mode_cutoff: int | None = None,
                      variant: str = "imaginary") -> OperatorMatrix:
    """Matrix of the iterated commutator [...[M_b, H_a1], ..., H_ak] on the
    truncated mode basis [-K, K]^d.

    variant 'imaginary' uses the real-for-real multiplier -i sgn(k); variant
    'signum' uses sgn(k) = P_+ - P_-, which matches printed block identities.
    The commutator acts on batches of basis modes at once; one FFT of each
    batch gives its columns, read off at the basis modes.
    """
    grid, d, N = b.grid, b.grid.dim, b.grid.n_points
    K = N // 4 if mode_cutoff is None else mode_cutoff
    if K > N // 2 - 1:
        raise ValueError("mode cutoff exceeds grid")
    apply_vals = _iterated_commutator_values(b, axes, variant)
    basis = list(itertools.product(range(-K, K + 1), repeat=d))
    rows = (slice(None),) + tuple(np.array(basis).T % N)
    cols = np.empty((len(basis), len(basis)), dtype=complex)
    for lo, hi, modes in _mode_batches(grid, basis):
        comm = apply_vals(modes)
        cols[:, lo:hi] = np.fft.fftn(comm, axes=tuple(range(-d, 0)), out=comm)[rows].T / N ** d
    return OperatorMatrix(cols, ("modes", tuple(basis)), ("modes", tuple(basis)))


def _iterated_commutator_values(b: Signal, axes, variant: str):
    """Value-level application of A_d where A_0 = M_b, A_j = [A_{j-1}, H_j]; the
    values may carry leading batch axes before the grid axes.  The A_j work in
    place on their argument, so the returned map copies its input once."""
    kinds = {ax: transforms.on_axis("hilbert" if variant == "imaginary" else "signum", ax,
                                    b.grid.dim) for ax in axes}

    def apply(vals):
        vals *= b.values
        return vals

    for ax in axes:
        def nxt(vals, prev=apply, ax=ax):
            out = prev(transforms.apply_multipliers(kinds[ax], vals))
            out -= transforms.apply_multipliers(kinds[ax], prev(vals), out=vals)
            return out
        apply = nxt
    return lambda vals: apply(np.array(vals, dtype=complex))


def block_identity_check(b: Signal, mode_cutoff: int | None = None) -> float:
    """Verify the projection block identities of the commutator, in the
    sign-multiplier normalization H' = P_+ - P_-:

      d=1:  P_+ C P_+ = 0,  P_- C P_- = 0,
            P_+ C P_- = -2 P_+ M_b P_-,  P_- C P_+ = +2 P_- M_b P_+.
      d=2:  P_{-s} C P_s = s(1)s(2) * 4 * P_{-s} M_b P_s  for all sign pairs s,
            and P_s C P_s = 0.

    The factor 2^d comes from H = +-(I - 2P) on mean-free signals.  P_s
    annihilates every mode outside octant s, so the modes of the truncated
    basis [-K, K]^d go through C octant by octant, in batches, each projected
    onto its octant s.  By linearity one projection P_{-s} of
    C e - factor * b e gives the off-diagonal identity.  Returns the largest
    defect, measured column by column (an upper bound for the scaled
    Frobenius defect).
    """
    grid, d, N = b.grid, b.grid.dim, b.grid.n_points
    K = N // 4 if mode_cutoff is None else mode_cutoff
    if K > N // 2 - 1:
        raise ValueError("mode cutoff exceeds grid")
    apply_comm = _iterated_commutator_values(b, tuple(range(1, d + 1)), "signum")
    defect = 0.0
    for sigma in itertools.product("+-", repeat=d):
        minus_sigma = tuple("-" if s == "+" else "+" for s in sigma)
        factor_b = (-1) ** sigma.count("-") * 2.0 ** d * b.values
        octant = itertools.product(*(range(1, K + 1) if s == "+" else range(-K, 0) for s in sigma))
        for _, _, modes in _mode_batches(grid, list(octant)):
            dom = transforms.apply_multipliers(sigma, modes, out=modes)
            comm = apply_comm(dom)
            off = transforms.apply_multipliers(minus_sigma, comm - factor_b * dom, out=dom)
            diag = transforms.apply_multipliers(sigma, comm, out=comm)
            defect = max(defect, float(np.max(np.abs(off))) * grid.weight ** 0.5,
                         float(np.max(np.abs(diag))) * grid.weight ** 0.5)
    return defect


# ---------------------------------------------------------------------------
# Nehari ratio experiments


class TruncationError(RuntimeError):
    pass


def nehari_ratio(b: SymbolCoefficients, bmo_variant: str = "dyadic",
                 grid: Grid | None = None, product_depth: int = 2) -> dict:
    """Computes ||H_b|| and the requested BMO norm of the analytic part of b,
    plus their ratio.  The report records both conventions in play.  In 2-D
    a product_depth beyond the grid's finest Haar scale raises ValueError."""
    from . import norms as _norms

    M = b.degree
    if b.dim == 1:
        H = hankel_operator_1d(b, grid)
        g = grid or Grid(symbol_grid_depth(M), 1)
        analytic = b.to_signal(g)
        if bmo_variant == "dyadic":
            bmo_val = _norms.bmo_dyadic(analytic).value
        elif bmo_variant == "dyadic_shift":
            bmo_val = _norms.bmo_dyadic_shift_average(analytic)
        else:
            raise ValueError("1D variants: 'dyadic', 'dyadic_shift'")
    else:
        g = grid or Grid(symbol_grid_depth(M), 2)
        if bmo_variant != "product_exact":
            raise ValueError("2D variant: 'product_exact'")
        if product_depth > g.depth - 1:
            raise ValueError(f"product_depth {product_depth} exceeds the finest Haar scale "
                             f"{g.depth - 1} of the depth-{g.depth} grid")
        H = little_hankel(b, grid)
        analytic = b.to_signal(g)
        bmo_val = _norms.bmo_product(analytic, mode="exact", depth=product_depth).value
    hankel_norm = operator_norm(H.matrix)
    if bmo_val == 0.0 and hankel_norm > 1e-12:
        raise TruncationError("BMO value 0 with nonzero Hankel norm: inconsistent truncation")
    return {
        "hankel_norm": hankel_norm,
        "bmo_value": bmo_val,
        "ratio": hankel_norm / bmo_val if bmo_val > 0 else np.nan,
        "bmo_variant": bmo_variant,
        "degree": M,
        "projection": "analytic (k >= 0, Hardy with DC)",
    }
