"""Hankel matrices, Hankel operators on truncated Hardy spaces,
commutators with the Hilbert transform, and their block identities.

A Hankel operator with analytic symbol b acts by phi -> P(b * conj(phi)).
On the truncated exponential basis the matrix entries reduce to bhat(i+j),
so the matrices are gathered from the symbol's coefficients; the tests
check them against columns computed by FFT on an alias-free grid.  The
Hardy projection used here keeps the k = 0 mode (H^2 contains constants),
unlike the strictly positive projections of the transforms module.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .dyadic import Grid, Signal
from .norms import OperatorMatrix, operator_norm, operator_norms
from . import norms, transforms

# grid points per batch of stacked work: 8 modes of a 64^2 grid, whose arrays stay in cache
_BATCH_POINTS = 1 << 15


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
        return Signal(grid, _symbol_samples(self.coeffs[None], grid)[0])


def _symbol_samples(coeffs: np.ndarray, grid: Grid) -> np.ndarray:
    """Samples of sum bhat(k) e^{2 pi i k.x} on the grid for a stack of
    coefficient arrays (leading axis), by one inverse FFT."""
    degree = coeffs.shape[1]
    if grid.n_points < 2 * degree:
        raise ValueError("grid too coarse for the symbol degree")
    modes = np.zeros(coeffs.shape[:1] + grid.shape, dtype=complex)
    modes[(slice(None),) + (slice(0, degree),) * grid.dim] = coeffs
    return np.fft.ifftn(modes, axes=tuple(range(1, grid.dim + 1))) * grid.n_points ** grid.dim


def random_symbol(degree: int, rng: np.random.Generator, dim: int = 1) -> SymbolCoefficients:
    shape = (degree,) * dim
    c = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return SymbolCoefficients(c)


@dataclass
class HankelOp:
    """A Hankel-structured operator together with its defining sequence
    (entry (i, j) = sequence[i + j], zero beyond the end)."""

    matrix: OperatorMatrix
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
    padded = np.concatenate([np.asarray(seq, dtype=complex), np.zeros(rows + cols, dtype=complex)])
    return padded[np.add.outer(np.arange(rows), np.arange(cols))]


def hankel_matrix(alpha, size: int) -> HankelOp:
    """size x size matrix with entries alpha[i+j]."""
    alpha = np.asarray(alpha, dtype=complex)
    if len(alpha) < 2 * size - 1:
        alpha = np.concatenate([alpha, np.zeros(2 * size - 1 - len(alpha), dtype=complex)])
    mat = hankel_window(alpha, size, size)
    om = OperatorMatrix(mat)
    return HankelOp(om, sequence=alpha[: 2 * size - 1])


def check_intertwining(H: HankelOp) -> float:
    """|| (H S - S* H) restricted to the interior block ||; exactly 0 for Hankel
    structure (the last row/column sees the truncation boundary)."""
    mat = H.matrix.entries
    M = mat.shape[0]
    S = np.eye(M, k=-1, dtype=complex)  # the shift e_k -> e_{k+1}
    D = mat @ S - S.conj().T @ mat
    return float(np.linalg.norm(D[: M - 1, : M - 1]))


# ---------------------------------------------------------------------------
# Hankel operators from symbols, read off their coefficients


def symbol_grid_depth(degree: int) -> int:
    """Depth of the default sampling grid for a symbol of the given degree:
    the coarsest with N >= 4 * degree (alias-free products), at least 3."""
    return max(3, int(np.ceil(np.log2(4 * degree))))


def _hankel_stack(coeffs: np.ndarray) -> np.ndarray:
    """Matrices of phi -> P_{k_i >= 0}(b * conj(phi)) on the modes 0..M-1 per
    axis (row-major bi-modes in 2-D), one per symbol b of a stack of analytic
    coefficient arrays (leading axis).

    Entry (k, j) is bhat(k + j), 0 beyond degree M - 1 on an axis: one
    gather from the zero-padded coefficients with one k + j table per axis,
    the mirror image of `commutator_matrix`'s bhat(k - j).
    """
    T, d, M = len(coeffs), coeffs.ndim - 1, coeffs.shape[1]
    padded = np.pad(coeffs, [(0, 0)] + [(0, M - 1)] * d)
    total = np.add.outer(np.arange(M), np.arange(M))
    tables = tuple(total.reshape(tuple(M if i in (a, d + a) else 1 for i in range(2 * d)))
                   for a in range(d))
    return padded[(slice(None),) + tables].reshape(T, M ** d, M ** d)


def hankel_operator_1d(b: SymbolCoefficients) -> HankelOp:
    """Matrix of phi -> P_{k>=0}(b * conj(phi)) on the exponential basis
    e_0..e_{M-1}: the structural matrix bhat(i + j) of `hankel_matrix`."""
    if b.dim != 1:
        raise ValueError("use little_hankel for 2D symbols")
    return hankel_matrix(b.coeffs, b.degree)


def little_hankel(b: SymbolCoefficients) -> HankelOp:
    """Matrix of phi -> P_(+,+){k_i >= 0}(b * conj(phi)) on the bi-mode basis
    {(j1, j2): 0 <= j_i < M}, row-major ordering: entry bhat(i1 + j1, i2 + j2)."""
    if b.dim != 2:
        raise ValueError("little_hankel needs a 2D symbol")
    mat = _hankel_stack(b.coeffs[None])[0]
    return HankelOp(OperatorMatrix(mat))


# ---------------------------------------------------------------------------
# commutators [M_b, H] on the truncated mode basis


def commutator_matrix(b: Signal, axes: tuple[int, ...] = (1,),
                      mode_cutoff: int | None = None) -> OperatorMatrix:
    """Matrix of the iterated commutator [...[M_b, H_a1], ..., H_ak] on the
    truncated mode basis [-K, K]^d, H_a the real-for-real multiplier -i sgn(k).

    Each [A, H_a] multiplies entry (k, j) of A by m(j_a) - m(k_a), so the
    entry is its Fourier closed form bhat(k - j) prod_a (m(j_a) - m(k_a)),
    bhat from one FFT of b, gathered with one (2K+1)^2 index table per axis.
    """
    d, N = b.grid.dim, b.grid.n_points
    K = N // 4 if mode_cutoff is None else mode_cutoff
    if not 0 <= K <= N // 2 - 1:
        raise ValueError(f"mode cutoff must lie in 0..{N // 2 - 1}; got {K}")
    modes = np.arange(-K, K + 1)
    m = transforms.axis_multiplier("hilbert", N)[modes % N]

    def pair(a, table):  # a (row mode, column mode) table of grid axis a + 1
        return table.reshape(tuple(len(modes) if i in (a, d + a) else 1 for i in range(2 * d)))

    diff = (modes[:, None] - modes[None, :]) % N
    entries = (np.fft.fftn(b.values) / N ** d)[tuple(pair(a, diff) for a in range(d))]
    for ax in axes:
        entries *= pair(ax - 1, m[None, :] - m[:, None])
    return OperatorMatrix(entries.reshape(len(modes) ** d, len(modes) ** d))


def _octant_spectra(b: Signal, sigma: tuple, K: int):
    """(modes, S, T) over the columns e_j of the modes j of octant sigma of
    [-K, K]^d, in row-major order, in chunks: modes[i] is the j of column i,
    S[i] and T[i] the FFTs of C e_j and of b e_j, C the iterated commutator
    [...[M_b, H_1], ..., H_d] in the sign normalization H = P_+ - P_-.

    e_j is the product of the per-axis exponentials e_{j_a}(x_a), and
    multiplying by a function of x_a commutes with M_b and with the H_c and
    FFTs F_c of the other axes, so the spectra nest axis by axis:
    S_0 = T_0 = b and, for a = 1..d,
      S_a = F_a[S_{a-1} He_{j_a}] - m_a F_a[S_{a-1} e_{j_a}],
      T_a = F_a[T_{a-1} e_{j_a}],
    with m_a the sign multiplier of axis a and He_j = H e_j, the sampled
    e_j through one FFT multiplier pass; S = S_d and T = T_d.  b is
    multiplied at the samples and H applied by FFT, nothing is read off a
    closed form.  Each prefix (j_1 .. j_a) is computed once for every column
    that extends it, depth first, with no chunk above _BATCH_POINTS grid
    points (one column if a grid is larger): three one-axis FFT passes per
    column, and a share of that per prefix.
    """
    if K < 1:
        return  # an empty octant
    d, N = b.grid.dim, b.grid.n_points
    m = transforms.axis_multiplier("signum", N).real
    x = np.arange(N)
    roots = np.exp(2j * np.pi * x / N)
    step = max(1, _BATCH_POINTS // N ** d)

    def extend(a, modes, S, T):  # the spectra over axes 1..a of a stack of prefixes
        j = np.arange(1, K + 1) if sigma[a] == "+" else np.arange(-K, 0)
        e = roots[np.outer(j, x) % N]
        He = np.fft.ifft(np.fft.fft(e) * m)
        on_axis = (slice(None),) + (None,) * a + (slice(None),) + (None,) * (d - 1 - a)
        e, He, m_a = e[on_axis], He[on_axis], m[on_axis[1:]]
        rows, cols = max(1, step // K), min(K, step)

        def spectrum(vals):  # F_a in place, the (prefix, j_a) axes flattened into one
            return np.fft.fft(vals, axis=a - d, out=vals).reshape((-1,) + b.grid.shape)

        for p in range(0, len(S), rows):
            Sp, Tp = S[p:p + rows, None], T[p:p + rows, None]
            for k in range(0, K, cols):
                new_S, term, new_T = (spectrum(Sp * He[k:k + cols]), spectrum(Sp * e[k:k + cols]),
                                      spectrum(Tp * e[k:k + cols]))
                new_S -= np.multiply(term, m_a, out=term)
                jk = j[k:k + cols]
                new_modes = np.column_stack([np.repeat(modes[p:p + rows], len(jk), axis=0),
                                             np.tile(jk, len(Sp))])
                if a == d - 1:
                    yield new_modes, new_S, new_T
                else:
                    yield from extend(a + 1, new_modes, new_S, new_T)

    yield from extend(0, np.zeros((1, 0), dtype=np.int64), b.values[None], b.values[None])


def block_identity_check(b: Signal, mode_cutoff: int | None = None) -> float:
    """Verify the projection block identities of the d-fold commutator
    C = [...[M_b, H_1], ..., H_d] in the sign normalization H_a = P_+ - P_-
    on axis a: for every sign vector s in {+, -}^d,

      P_{-s} C P_s = (prod_a s_a) 2^d P_{-s} M_b P_s   and   P_s C P_s = 0

    (at d = 1: P_+ C P_- = -2 P_+ M_b P_-, P_- C P_+ = +2 P_- M_b P_+).  The
    factor comes from each H_a being s_a on P_s and -s_a on P_{-s}.  P_s
    annihilates every mode outside octant s and fixes those inside, so the
    modes e of the truncated basis [-K, K]^d in octant s are its
    P_s-projected basis.  `_octant_spectra` gives the spectra of C e and of
    b e, axis by axis, each prefix of modes once; their parts on octant -s
    (C e - factor * b e) and on octant s (C e) are the two defects.  Returns
    the largest L2 norm of a defect column (Parseval on those spectra), which
    bounds its largest sample times the square root of the quadrature
    weight from above.
    """
    d, N = b.grid.dim, b.grid.n_points
    K = N // 4 if mode_cutoff is None else mode_cutoff
    if not 0 <= K <= N // 2 - 1:
        raise ValueError(f"mode cutoff must lie in 0..{N // 2 - 1}; got {K}")
    half = {"+": slice(1, N // 2), "-": slice(N // 2 + 1, None)}  # the FFT-layout modes of P_+, P_-
    defect = 0.0
    for sigma in itertools.product("+-", repeat=d):
        own = (Ellipsis,) + tuple(half[s] for s in sigma)
        opposite = (Ellipsis,) + tuple(half["-" if s == "+" else "+"] for s in sigma)
        factor = (-1) ** sigma.count("-") * 2.0 ** d
        for _, comm, comm_b in _octant_spectra(b, sigma, K):
            off = comm[opposite] - factor * comm_b[opposite]
            for part in (comm[own], off):
                column_norms = np.linalg.norm(part.reshape(len(part), -1), axis=1)
                defect = max(defect, float(np.max(column_norms)) / N ** d)
    return defect


# ---------------------------------------------------------------------------
# Nehari ratio experiments


class TruncationError(RuntimeError):
    pass


def nehari_ratio(b: SymbolCoefficients, product_depth: int = 2) -> dict:
    """Computes ||H_b|| and the BMO norm of the analytic part of b, dyadic
    BMO in 1-D and exact product BMO to depth product_depth for d >= 2, plus
    their ratio.  The report records both conventions in play, and for
    d >= 2 the product-BMO solver's number of cuts.  For d >= 2 a
    product_depth beyond the finest Haar scale of the symbol's grid raises
    ValueError."""
    rep = nehari_ratios(b.coeffs[None], product_depth)
    return {key: v[0].item() if isinstance(v, np.ndarray) else v for key, v in rep.items()}


def nehari_ratios(coeffs: np.ndarray, product_depth: int = 2) -> dict:
    """`nehari_ratio` of each symbol of a stack of analytic coefficient arrays
    (leading axis: symbols) of any dimension d >= 1, with arrays over the
    stack.

    With N the side of the symbols' grid `Grid(symbol_grid_depth(M), d)`,
    `_hankel_stack` gathers the Hankel matrices of _BATCH_POINTS // (M N)^d
    symbols at a time (at least one), whose norms one stacked SVD gives; one
    inverse FFT and one separable Haar transform give the books
    (`norms._haar_book`) of _BATCH_POINTS // N^d symbols at a time, the
    symbols on the books' stack axis.  In 1-D one densest-box accumulation of
    those gives their dyadic BMO.  For d >= 2 a chunk's book holds the boxes
    nonzero in some symbol (mass 0 where a symbol's is 0 or negligible), so
    the minimum-cut set-up of `norms._max_union_ratio` is built again only
    for a chunk on other boxes, and each symbol runs only its start and its
    cuts; "cuts" holds their number per symbol.
    TruncationError if a symbol has BMO 0 but a nonzero Hankel norm.
    """
    coeffs = np.asarray(coeffs, dtype=complex)
    T, d, M = coeffs.shape[0], coeffs.ndim - 1, coeffs.shape[-1]
    if d < 1:
        raise ValueError("symbols must be coefficient arrays of dimension >= 1")
    g = Grid(symbol_grid_depth(M), d)
    if d > 1 and product_depth > g.depth - 1:
        raise ValueError(f"product_depth {product_depth} exceeds the finest Haar scale "
                         f"{g.depth - 1} of the depth-{g.depth} grid")
    hankel_norm, bmo_val, cuts = np.empty(T), np.empty(T), np.zeros(T, dtype=int)
    step = max(1, _BATCH_POINTS // (M * g.n_points) ** d)
    for lo in range(0, T, step):
        hankel_norm[lo:lo + step] = operator_norms(_hankel_stack(coeffs[lo:lo + step]))
    boxes = on = None  # the set-up, and the boxes it was built on
    step = max(1, _BATCH_POINTS // g.n_points ** d)
    for lo in range(0, T, step):
        samples = np.moveaxis(_symbol_samples(coeffs[lo:lo + step], g), 0, -1)
        if d == 1:
            book = norms._haar_book(samples, 1, None)
            bmo_val[lo:lo + step] = np.sqrt(norms._densest_box(book, g.depth)[0])
            continue
        book = norms._haar_book(samples, d, product_depth)
        if boxes is None or not all(map(np.array_equal, book[:2], on)):
            boxes, on = norms._Boxes(book, product_depth), book[:2]
        for t, mass in enumerate(book.mass, lo):
            value, _, cuts[t], _ = norms._max_union_ratio(book._replace(mass=mass), product_depth,
                                                          boxes)
            bmo_val[t] = np.sqrt(value)
    bad = np.flatnonzero((bmo_val == 0.0) & (hankel_norm > 1e-12))
    if bad.size:
        raise TruncationError(f"symbol {bad[0]}: BMO value 0 with nonzero Hankel norm: "
                              "inconsistent truncation")
    rep = {
        "hankel_norm": hankel_norm,
        "bmo_value": bmo_val,
        "ratio": np.divide(hankel_norm, bmo_val, out=np.full(T, np.nan), where=bmo_val > 0),
        "bmo_variant": "dyadic" if d == 1 else "product_exact",
        "degree": M,
        "projection": "analytic (k >= 0, Hardy with DC)",
    }
    if d > 1:
        rep["cuts"] = cuts
    return rep
