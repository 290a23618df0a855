"""Paraproducts: the Haar paraproduct, the dyadic shift G and Petermichl's
translation-dilation average, the commutator -> paraproduct decomposition,
and the Meyer scale-block paraproducts in one and two parameters.

Rank-one notation: (psi (x) phi) f = psi * <f, phi>, linear in f.  A sum of
such terms over the intervals J is one product A B^T w of two sampled
matrices with a column per J, and an operator matrix is the operator
applied once to the identity.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .dyadic import (
    DyadicInterval,
    Grid,
    ResolutionError,
    Signal,
    haar_function,
    zeros,
)
from .norms import OperatorMatrix
from .transforms import (
    MeyerFamily,
    _haar_analysis_axis,
    _haar_synthesis_axis,
    haar_analysis,
)


# ---------------------------------------------------------------------------
# block averages and the Haar paraproduct


def _para_haar_values(b: Signal, values: np.ndarray) -> np.ndarray:
    """Para(b, .) along axis 0 of values; trailing axes are a batch.  Its
    Haar coefficients in heap order are <b, h_I> times the average of the
    values over I, the averages taken fine to coarse."""
    n = b.grid.depth
    beta = haar_analysis(b).values.reshape((-1,) + (1,) * (values.ndim - 1))
    new = np.zeros(values.shape, dtype=complex)
    avg = values
    for p in range(n - 1, -1, -1):
        avg = 0.5 * (avg[0::2] + avg[1::2])
        new[1 << p:2 << p] = beta[1 << p:2 << p] * avg
    return _haar_synthesis_axis(new, n)


def para_haar(b: Signal, f: Signal) -> Signal:
    """Para(b, f) = sum_I (<b,h_I>/sqrt|I|) <f,h^1_I> h_I
                  = sum_I <b,h_I> (avg of f over I) h_I."""
    if b.grid.dim != 1 or b.grid != f.grid:
        raise ValueError("para_haar needs 1D signals on a common grid")
    return Signal(b.grid, _para_haar_values(b, f.values))


def para_haar_matrix(b: Signal) -> OperatorMatrix:
    """Matrix of f -> para_haar(b, f) on the grid-cell basis: the transform
    applied once to the identity, whose columns are the cell indicators."""
    if b.grid.dim != 1:
        raise ValueError("para_haar_matrix needs a 1D symbol")
    cols = _para_haar_values(b, np.eye(b.grid.n_points, dtype=complex))
    basis = ("cells", b.grid.depth)
    return OperatorMatrix(cols, basis, basis)


def para_haar_norm(b: Signal) -> float:
    """||Para_b||, the `operator_norm` of `para_haar_matrix(b)`, from a real Gram.

    The h_I are orthonormal, so ||Para_b f||^2 = sum_I |<b, h_I>|^2 |<f>_I|^2
    with <f>_I = 1_I^T f / L_I on the N cell values (L_I the cells of I), and
    ||Para_b||^2 = N lambda_max(G), G = sum_I |<b, h_I>|^2 L_I^-2 1_I 1_I^T.
    Every 1_I is constant on the cell pairs of the finest intervals, so
    G = E G' E^T with E the N x N/2 pair indicator, E^T E = 2, and
    lambda_max(G) = 2 lambda_max(G'), G' the same sum over the N/2 pairs:
    one block-diagonal add per scale, then one real symmetric `eigvalsh`.
    """
    if b.grid.dim != 1:
        raise ValueError("para_haar_norm needs a 1D symbol")
    n, pairs = b.grid.depth, b.grid.n_points // 2
    weight = np.abs(haar_analysis(b).values) ** 2
    gram = np.zeros((pairs, pairs))
    for p in range(n):
        L = pairs >> p  # the pairs of an interval of scale p, 2 L its cells
        blocks, j = gram.reshape(1 << p, L, 1 << p, L), np.arange(1 << p)
        blocks[j, :, j, :] += (weight[1 << p:2 << p] / (2 * L) ** 2)[:, None, None]
    return float(np.sqrt(2 * b.grid.n_points * max(np.linalg.eigvalsh(gram)[-1], 0.0)))


def para_double_sum(b: Signal, f: Signal) -> Signal:
    """Brute-force sum over pairs I strictly inside J of
    <b,h_I><f,h_J> h_I h_J, with J running over the dyadic intervals of the
    torus plus the constant ambient term (the torus itself contains every I)."""
    n = b.grid.depth
    out = zeros(b.grid)
    bc = haar_analysis(b).values
    fc = haar_analysis(f).values
    intervals = [(p, j) for p in range(n) for j in range(1 << p)]
    hs = {}
    for p, j in intervals:
        hs[(p, j)] = haar_function(0, DyadicInterval(-p, j), b.grid).values
    for pi, ji in intervals:
        for pj, jj in intervals:
            if pj >= pi:
                continue  # need |J| > |I|
            inside = (ji >> (pi - pj)) == jj
            if not inside:
                continue
            out.values += (
                bc[(1 << pi) + ji] * fc[(1 << pj) + jj] * hs[(pi, ji)] * hs[(pj, jj)]
            )
        # ambient term: the torus as the coarsest J, factor h_J = 1, coefficient the mean
    for pi, ji in intervals:
        out.values += bc[(1 << pi) + ji] * fc[0] * hs[(pi, ji)]
    return out


# ---------------------------------------------------------------------------
# the dyadic shift G


def _shift_values(values: np.ndarray, depth: int, left: float, right: float) -> np.ndarray:
    """sum_J <f, h_J> (left h_{J_left} + right h_{J_right}) along axis 0 of
    values, trailing axes a batch, real in and real out; J runs over
    intervals whose halves are wavelet-resolvable, |J| >= 4 cells."""
    c = _haar_analysis_axis(values, depth)
    new = np.zeros(values.shape, dtype=c.dtype)  # the halves of heap index i are 2i and 2i + 1
    new[2::2] = left * c[1:len(c) // 2]
    new[3::2] = right * c[1:len(c) // 2]
    return _haar_synthesis_axis(new, depth)


def dyadic_shift_G(f: Signal) -> Signal:
    """G f = sum_I <f,h_I> g_I, g_I = -h_{I_left} + h_{I_right}, over |I| >= 4 cells."""
    return Signal(f.grid, _shift_values(f.values, f.grid.depth, -1.0, 1.0))


# ---------------------------------------------------------------------------
# commutator -> paraproduct decomposition for G_left


@dataclass
class ParaproductPieces:
    """Labeled rank-structured pieces whose sum reproduces [M_b, G_left], held
    as factors: a piece, A B^T for the pair its builder returns, is formed when read."""

    grid: Grid
    factors: dict  # label -> () -> (A, B), in the order of the case table
    residual: float = None  # max |total - [M_b, G_left]|, set by decompose_commutator_Gleft

    def piece(self, label: str) -> np.ndarray:
        return ParaproductPieces(self.grid, {label: self.factors[label]}).total()

    @property
    def pieces(self) -> dict:
        return {label: self.piece(label) for label in self.factors}

    def total(self) -> np.ndarray:
        """The pieces added in table order into one (N, N) matrix, the real and
        imaginary halves of each product through one real buffer."""
        out = np.zeros((self.grid.n_points,) * 2, dtype=complex)
        half = np.empty(out.shape)
        for A, B in (make() for make in self.factors.values()):  # a column per J, one of them real
            pairs = ((A.real, B.T), (A.imag, B.T)) if np.iscomplexobj(A) else ((A, B.real.T), (A, B.imag.T))
            for part, (X, Y) in zip((out.real, out.imag), pairs):
                part += np.matmul(X, Y, out=half)
            del A, B, pairs, X, Y  # before the next factors are built
        return out

    def labels(self) -> list:
        return sorted(self.factors)


class DecompositionError(RuntimeError):
    def __init__(self, message, residual):
        super().__init__(message)
        self.residual = residual


def commutator_gleft_matrix(b: Signal) -> np.ndarray:
    """[M_b, G_left] as a dense matrix on the cell basis, from G_left applied
    once to the identity."""
    if b.grid.dim != 1:
        raise ValueError("[M_b, G_left] needs a 1D symbol")
    GL = _shift_values(np.eye(b.grid.n_points), b.grid.depth, 1.0, 0.0)  # real
    out = b.values[:, None] * GL
    out -= GL * b.values
    return out


def decompose_commutator_Gleft(b: Signal, check_tol: float = 1e-12) -> ParaproductPieces:
    """Expand [M_b, G_left] over the five-case table for Haar commutators
    [M_{h_I}, h_{J_left} (x) h_J]; the case constants are derived exactly
    from the products h_I h_{J_left} and h_I h_J:

      I = J_left:       |J|^{-1/2} ( sqrt2 h^1_{J_left} (x) h_J + h_{J_left} (x) h_{J_left} )
      I = J_right:     -|J|^{-1/2} h_{J_left} (x) h_{J_right}
      I = J:           -|J|^{-1/2} ( h_{J_left} (x) h_J + h_{J_left} (x) h^1_J )
      I inside J_left:  |J|^{-1/2} ( sqrt2 eps1 h_I (x) h_J + h_{J_left} (x) h_I )
      I inside J_right:-|J|^{-1/2} h_{J_left} (x) h_I
      (disjoint and J inside I vanish; the mean of b commutes)

    eps1 is the sign of h_{J_left} on I.  The sums over I strictly inside a
    half K close: D_K = sum_{I in K, I != K} <b, h_I> h_I is 1_K b less its
    projection <b, h^1_K> h^1_K + <b, h_K> h_K onto the halves of K, that
    is b minus its mean over the half of K holding x, and zero off K; the
    eps1 sum is sign(h_{J_left}) D_{J_left}.  So each labelled piece is one
    product A B^T w of two sampled factors with a column per J (scale
    <= depth - 2), w the quadrature weight, formed when it is read.  The
    sum of the pieces, added in place, is checked against the dense
    commutator, and its largest entrywise defect kept as `residual`; a
    defect above check_tol (relative to the largest entry, at least 1)
    raises with the residual matrix.
    """
    target = commutator_gleft_matrix(b)
    n, w, m = b.grid.depth, b.grid.weight, (1 << (b.grid.depth - 1)) - 1
    beta = haar_analysis(b).values[1:]  # heap order without the mean: J's halves are 2J + 1, 2J + 2
    H = _haar_synthesis_axis(np.eye(b.grid.n_points), n)[:, 1:]  # the sampled h_I, same order
    hJ, hL, hR = H[:, :m], H[:, 1:2 * m:2], H[:, 2:2 * m + 1:2]
    bJ, bL, bR = beta[:m], beta[1:2 * m:2], beta[2:2 * m + 1:2]
    s = w * np.repeat(2.0 ** (np.arange(n - 1) / 2), 1 << np.arange(n - 1))  # w |J|^{-1/2}

    def inside(hK, bK):  # the columns D_K for the columns h_K
        h1K = np.abs(hK)
        return (h1K != 0) * b.values[:, None] - h1K * (w * (b.values @ h1K)) - hK * bK

    D_left = inside(hL, bL)  # read by the "analytic" and the "dual" piece
    factors = {  # label -> (A, B)
        "I=J_left:dual_para": lambda: (np.abs(hL) * (np.sqrt(2) * s * bL), hJ),
        "I=J_left:regular": lambda: (hL * (s * bL), hL),
        "I=J_right": lambda: (hL * (-s * bR), hR),
        "I=J:para": lambda: (hL * (-s * bJ), np.abs(hJ)),
        "I=J:regular": lambda: (hL * (-s * bJ), hJ),
        "I<J_left:analytic": lambda: (np.sign(hL) * D_left * (np.sqrt(2) * s), hJ),
        "I<J_left:dual": lambda: (hL * s, D_left),
        "I<J_right": lambda: (hL * -s, inside(hR, bR)),
    }
    result = ParaproductPieces(b.grid, factors)
    residual = result.total()
    residual -= target
    result.residual = float(np.max(np.abs(residual)))
    scale = max(1.0, float(np.max(np.abs(target))))
    if result.residual > check_tol * scale:
        raise DecompositionError(
            f"decomposition defect {result.residual:.3e} exceeds {check_tol:.1e}", residual
        )
    return result


# ---------------------------------------------------------------------------
# the line window: dyadic shift on [-pad, pad+1) and the Petermichl average
#
# The window has L = (2 pad + 1) 2^n cells x_i = -pad + i h, h = 2^-n.  Each
# node (y, s) applies Tr_y, Dil_s, G, Dil_{1/s}, Tr_{-y} on it: linear
# interpolation on the window grid, zero outside [-pad, pad+1-h], and G over
# the aligned dyadic I of >= 4 cells (scale 2^e covers cells < (L >> e) << e).
# The nodes run as a batch of rows, a row being a run of window indices with
# its own start; the operator is real, so the arrays are real, shaped
# (column, row, cell), and every gather reads them by flat index.


def _window_interp(q: np.ndarray, start: np.ndarray, rows: np.ndarray,
                   n: int, pad: int, row: np.ndarray | None = None) -> np.ndarray:
    """Data rows (B, R', w) on window indices start[r] + c, zero off them,
    interpolated at the points q (R, m) as np.interp(left=0, right=0) does
    on the window; point row r reads data row row[r] (default r), one data
    row serving any number of point rows.  Result (B, R, m)."""
    B, R, w = rows.shape
    # each cell's value and the step to the next, two zeros on either side
    steps = np.zeros((B, R, w + 4, 2))
    steps[:, :, 2:-2, 0] = rows
    np.subtract(rows[:, :, 1:], rows[:, :, :-1], out=steps[:, :, 2:-3, 1])
    steps[:, :, 1, 1], steps[:, :, -3, 1] = rows[:, :, 0], -rows[:, :, -1]
    h = 2.0 ** -n
    j = np.floor((q + pad) * 2.0 ** n).astype(np.int64)
    frac = (q - (j * h - pad)) * 2.0 ** n
    # the bracket x_j <= q < x_{j+1} that np.interp's search finds, and its
    # formula: x_j is exact, so only a frac outside [0, 1) can need the steps
    off = (frac < 0.0) | (frac >= 1.0)
    if off.any():
        jo, qo = j[off], q[off]
        jo -= jo * h - pad > qo
        jo += (jo + 1) * h - pad <= qo
        j[off], frac[off] = jo, (qo - (jo * h - pad)) / h
    j -= (start - 2)[:, None]
    np.clip(j, 0, w + 2, out=j)
    j += (np.arange(len(q)) if row is None else row)[:, None] * (w + 4)
    lo = np.take(steps.reshape(B, -1, 2), j, axis=1)
    return np.where((q >= -pad) & (q <= pad + 1 - h), lo[..., 0] + lo[..., 1] * frac, 0.0)


def _dilated_shift_rows(shifted: np.ndarray, m0: np.ndarray, iy: np.ndarray, s: np.ndarray,
                        width: int, n: int, pad: int) -> np.ndarray:
    """Dil_{1/s} G Dil_s, less Dil_{1/s}'s amplitude s^{1/2}, on rows: row r
    dilates the translate shifted[:, iy[r]] (held on window indices
    m0[iy[r]] + c, c < N + 6) by s[r] and is read back at those same
    indices.  Dil_s runs only on its support and G only at the indices
    Dil_{1/s} reads, each on a row of `width` window indices.

    G by a coarse-to-fine pyramid: the coefficients <u, h_I> of every
    scale come from one prefix sum of the row, read at the starts, middles
    and ends of the blocks that meet it.  The values at scale 2^e are
    constant on quarters of its blocks, + - - + times the coefficient; the
    values of all coarser scales are constant on halves of those quarters,
    so each scale adds its quarters to the coarser values repeated twice,
    shifted by the row's parity of b0 = g_start >> e.  That is one pass
    per scale over that scale's blocks, about 2 width cells in all.
    Result (B, R, N + 6)."""
    h = 2.0 ** -n
    L = (2 * pad + 1) << n
    B, R = shifted.shape[0], len(iy)

    def x(i):  # window coordinate of index i
        return -pad + i * h

    m = m0[iy][:, None] + np.arange(shifted.shape[2])
    # Dil_s on the support
    u_start = np.floor((s * x(m[:, 0]) + pad) / h).astype(np.int64) - 2
    u = _window_interp(x(u_start[:, None] + np.arange(width)) / s[:, None], m[:, 0], shifted, n, pad, iy)
    prefix = np.zeros((B, R, width + 1))
    np.cumsum(u * (s ** -0.5)[:, None], axis=2, out=prefix[:, :, 1:])
    prefix = prefix.reshape(B, -1)
    del u  # G's arrays are the peak: free what they do not read
    # G at the indices Dil_{1/s} reads: x_m s for the m read by Tr_{-y}
    q = x(m) / (1.0 / s)[:, None]
    g_start = np.floor((q[:, 0] + pad) / h).astype(np.int64) - 2
    e = np.arange(n + int(pad).bit_length() - 1, 1, -1)  # |I| = 2^e cells, pad units ... 4 cells
    nb = ((width - 1) >> e) + 2  # the blocks of each scale meeting a row
    first = np.concatenate([[0], np.cumsum(nb)])
    ec = np.repeat(e, nb)  # the scale of each block column
    blocks = (g_start[:, None] >> ec) + (np.arange(first[-1]) - np.repeat(first[:-1], nb))
    # u's mass below the start, middle and end of each block
    t = ((blocks << ec) - u_start[:, None])[:, None] + (np.arange(3)[:, None] << (ec - 1))
    mass = np.take(prefix, np.clip(t, 0, width) + np.arange(R)[:, None, None] * (width + 1), axis=1)
    coef = (mass[:, :, 2] - mass[:, :, 1]) - (mass[:, :, 1] - mass[:, :, 0])
    del t, mass, prefix
    coef *= h * np.sqrt(2.0) * 2.0 ** (n - ec)  # <u, h_I> |I|^{-1/2} sqrt 2
    # G has only the I below (L >> e) << e.  The rows need no zeros past L,
    # where no read reaches (interpolation is zero outside the window), and
    # at e <= n each I lies before L or wholly past it: only the scales
    # above a unit have an I across L
    wide = first[np.count_nonzero(e > n)]
    coef[:, :, :wide] *= blocks[:, :wide] < (L >> ec[:wide])
    # from the coarsest scale down, each on quarters from window index 4 b0 2^(e-2):
    # g_I = -h_{I_left} + h_{I_right} is + - - +, and the coarser values on
    # halves of quarters start at 8 (b0 >> 1), 4 (b0 & 1) quarters before
    odd = (blocks[:, first[:-1]] & 1 == 1)[:, :, None]
    Gu = np.zeros((B, R, 2 * nb[0] + 2))
    for i, k in enumerate(nb):
        c = coef[:, :, first[i] : first[i + 1]]
        halves = np.where(odd[:, i], Gu[:, :, 2 : 2 + 2 * k], Gu[:, :, : 2 * k]).reshape(B, R, k, 2)
        Gu = np.empty((B, R, k, 4))
        np.add(halves[..., 0], c, out=Gu[..., 0])
        np.subtract(halves[..., 0], c, out=Gu[..., 1])
        np.subtract(halves[..., 1], c, out=Gu[..., 2])
        np.add(halves[..., 1], c, out=Gu[..., 3])
        Gu = Gu.reshape(B, R, -1)
    return _window_interp(q, (g_start >> 2) << 2, Gu, n, pad)


def _petermichl_values(values: np.ndarray, n: int, Y: float, s_steps: int, y_steps: int,
                       pad: int | None, y_measure: str) -> tuple[np.ndarray, int]:
    """The translation-dilation average of G on the window, applied to the
    columns of values (2^n, B) on [0, 1) and read back on [0, 1), and the
    pad it used (default: the least power of two >= max(4, Y + 1)).

    The operator is real, so complex columns run as their real and
    imaginary parts side by side, the latter only when nonzero.  Tr_y
    translates every y node in one call; the (y, s) nodes then run as rows
    of `_dilated_shift_rows`, in chunks of at most 2^16 window indices over
    all columns (or of one row, if that is wider), the s nodes in a few
    groups of consecutive s whose rows are ceil(s (2^n + 6)) + 6 cells wide
    for the group's largest s.  Each y's rows are summed with their s
    weights into one V, and Tr_{-y}, which is linear, reads every V in one
    call before the weighted sum over y (y nodes past 2^16 translated
    indices run in blocks)."""
    if n < 3:
        raise ResolutionError("averaging the shift needs grid depth >= 3")
    if pad is None:
        pad = 1 << int(np.ceil(np.log2(max(4.0, Y + 1.0))))
    if pad < 1 or pad & (pad - 1):  # keeps every dyadic scale aligned with the window
        raise ValueError("pad must be a power of two")
    N, B = values.shape
    split = np.iscomplexobj(values) and bool(np.any(values.imag))
    cols = np.vstack([values.real.T, values.imag.T]) if split else values.real.T
    h = 2.0 ** -n

    def x(i):  # window coordinate of index i
        return -pad + i * h

    y_nodes, y_w, s_nodes, s_w = petermichl_quadrature(Y, s_steps, y_steps, h, y_measure)
    s_w = s_w * (1.0 / s_nodes) ** -0.5  # with Dil_{1/s}'s amplitude
    # window indices a chunk of rows holds, so that no working array passes 2^18 entries
    budget = (1 << 16) // len(cols)
    acc = np.zeros((len(cols), N))
    y_chunk = max(1, budget // (N + 6))
    for a in range(0, y_steps, y_chunk):
        y, wy = y_nodes[a : a + y_chunk], y_w[a : a + y_chunk]
        # Tr_y: the translate is zero outside indices m0 + 2 ... m0 + N + 2
        m0 = np.floor((pad + y) / h).astype(np.int64) - 2
        m = m0[:, None] + np.arange(N + 6)
        shifted = _window_interp(x(m) - y[:, None], np.full(len(y), pad << n), cols[:, None], n, pad,
                                 np.zeros(len(y), dtype=np.int64))
        # Tr_{-y} reads each y's back-dilated rows, summed, at the same indices m
        V = np.zeros(shifted.shape)
        for group in np.array_split(np.arange(s_steps), min(4, s_steps)):
            width = int(np.ceil(s_nodes[group[-1]] * (N + 6))) + 6  # covers a row's support and reads
            rows = max(1, budget // width)
            ny, ns = max(1, rows // group.size), min(group.size, rows)
            for i, k in itertools.product(range(0, len(y), ny), range(0, group.size, ns)):
                iy, sk = np.arange(i, min(i + ny, len(y))), group[k : k + ns]
                v = _dilated_shift_rows(shifted, m0, np.repeat(iy, sk.size),
                                        np.tile(s_nodes[sk], iy.size), width, n, pad)
                V[:, i : i + ny] += s_w[sk] @ v.reshape(len(cols), iy.size, sk.size, N + 6)
        acc += wy @ _window_interp(x((pad << n) + np.arange(N)) + y[:, None], m0, V, n, pad)
    return (acc[:B] + 1j * acc[B:] if split else acc.astype(complex)).T, pad


def petermichl_quadrature(Y: float, s_steps: int, y_steps: int, y0: float,
                          y_measure: str = "uniform"):
    """Quadrature nodes/weights for the translation-dilation average.

    The dilation measure is ds/s on [1, 2].  The translation measure is
    uniform dy on [0, Y) by default: that is the Haar measure of grid
    translations, and the average then equidistributes every dyadic scale.
    The 'log' variant (dy/y from y0 up to Y > y0, the literal printed form)
    is kept for comparison; its truncation is dominated by near-zero shifts
    and converges much more slowly.
    """
    if y_measure == "uniform":
        edges = np.linspace(0.0, Y, y_steps + 1)
        y_nodes = 0.5 * (edges[:-1] + edges[1:])
        y_weights = np.full(y_steps, edges[1] - edges[0])
    elif y_measure == "log":
        if not Y > y0:
            raise ValueError(f"the log measure runs dy/y from y0 = {y0:g} up to Y, so Y must be above it")
        ly = np.linspace(np.log(y0), np.log(Y), y_steps + 1)
        y_nodes = np.exp(0.5 * (ly[:-1] + ly[1:]))
        y_weights = np.full(y_steps, ly[1] - ly[0])
    else:
        raise ValueError("y_measure must be 'uniform' or 'log'")
    ls = np.linspace(0.0, np.log(2.0), s_steps + 1)
    s_nodes = np.exp(0.5 * (ls[:-1] + ls[1:]))
    s_weights = np.full(s_steps, ls[1] - ls[0])
    total = y_weights.sum() * s_weights.sum()
    return y_nodes, y_weights / total, s_nodes, s_weights


def apply_petermichl_average(f: Signal, Y: float = 8.0, s_steps: int = 64,
                             y_steps: int = 64, pad: int | None = None,
                             y_measure: str = "uniform") -> Signal:
    """Apply the translation-dilation average of G to a unit-interval signal,
    zero-padded on the window [-pad, pad+1) (default pad: the least power of
    two >= max(4, Y + 1)), and restrict back to [0,1).  A node works on
    about s 2^n cells; each coarser scale of a longer window adds a few
    blocks, so the window's length barely shows in the cost."""
    values, _ = _petermichl_values(f.values[:, None], f.grid.depth, Y, s_steps, y_steps,
                                   pad, y_measure)
    return Signal(f.grid, values[:, 0])


def hilbert_reference(f: Signal, oversample: int = 64) -> Signal:
    """Hilbert transform of the zero-extension of f, via a long periodic
    embedding (wrap-around error is negligible for compactly supported f)."""
    N = f.grid.n_points
    L = oversample * N
    buf = np.zeros(L, dtype=complex)
    buf[:N] = f.values
    k = np.fft.fftfreq(L, d=1.0 / L).astype(int)
    sgn = np.sign(k).astype(float)
    sgn[L // 2] = 0.0
    out = np.fft.ifft(np.fft.fft(buf) * (-1j) * sgn)
    return Signal(f.grid, out[:N])


def petermichl_average(grid: Grid, Y: float = 8.0, s_steps: int = 16, y_steps: int = 16,
                       pad: int | None = None, y_measure: str = "uniform") -> dict:
    """Matrix of the averaged operator restricted to the interior window,
    plus the constant c fitted against the Hilbert transform (reported, not
    asserted).  The average is applied once, to the batch of the N cell
    indicators as real columns, which share each node's rows: a chunk
    holds about 2^16 / N window indices a column."""
    N = grid.n_points
    cols, pad = _petermichl_values(np.eye(N), grid.depth, Y, s_steps, y_steps, pad, y_measure)
    Hcols = np.stack([hilbert_reference(Signal(grid, e)).values
                      for e in np.eye(N, dtype=complex)], axis=1)
    # least squares fit of avg ~ c * H over matrix entries
    num = np.vdot(Hcols, cols).real
    den = np.vdot(Hcols, Hcols).real
    c_fit = num / den if den > 0 else 0.0
    rel = float(np.linalg.norm(cols - c_fit * Hcols) / np.linalg.norm(Hcols)) if den > 0 else np.inf
    basis = ("cells", grid.depth)
    return {
        "matrix": OperatorMatrix(cols, basis, basis),
        "fitted_c": float(c_fit),
        "relative_residual": rel,
        "pad": pad,
        "s_steps": s_steps,
        "y_steps": y_steps,
        "Y": Y,
        "y_measure": y_measure,
    }


def petermichl_fit_on_signal(f: Signal, Y: float = 8.0, s_steps: int = 64,
                             y_steps: int = 64, pad: int | None = None,
                             y_measure: str = "uniform") -> dict:
    """Fit avg f ~ c * H f for one test signal; reports the interior relative
    L2 error of the fitted multiple."""
    avg = apply_petermichl_average(f, Y, s_steps, y_steps, pad, y_measure)
    Hf = hilbert_reference(f)
    num = complex(np.vdot(Hf.values, avg.values)).real
    den = float(np.vdot(Hf.values, Hf.values).real)
    if not den > 0:
        raise ValueError("the Hilbert transform of f vanishes on the grid: no multiple of it to fit")
    c_fit = num / den
    err = float(np.linalg.norm(avg.values - c_fit * Hf.values) / np.linalg.norm(Hf.values))
    return {"fitted_c": c_fit, "relative_error": err, "Y": Y,
            "s_steps": s_steps, "y_steps": y_steps, "y_measure": y_measure}


# ---------------------------------------------------------------------------
# Meyer scale-block paraproducts


def delta_U(meyer: MeyerFamily, scale: int, f: Signal) -> Signal:
    """DeltaU at interval size 2^-scale: sum over |I| = 2^-scale of u_I <f, u_I>,
    i.e. the block projector P_scale = U U^* / N applied to f along axis 0."""
    U = meyer.block_factor(scale)
    return Signal(f.grid, U @ (U.conj().T @ f.values) / len(U))


def meyer_para_1d(b: Signal, phi: Signal, meyer: MeyerFamily, offset: int = 0) -> Signal:
    """sum_j (DeltaU_j b) * conj(U_{j - offset} phi), U_q = sum_{p <= q} DeltaU_p,
    for d = 1: `meyer_para_multi` with J = () and kvec = (offset,).  offset
    moves the U-block toward coarser scales (the proof-side variant uses a
    large offset), |offset| <= 8."""
    return meyer_para_multi(b, phi, meyer, J=(), kvec=(offset,))


def meyer_para_multi(b: Signal, phi: Signal, meyer: MeyerFamily,
                     J: tuple[int, ...] = (1, 2), kvec: tuple[int, ...] = (0, 0)) -> Signal:
    """sum_jvec (DeltaU_jvec b) * conj(U_{jvec - kvec, J} phi) on the torus of
    dimension d = 1 or 2 (one entry of kvec per axis); kvec moves the U
    block toward coarser scales per axis, |kvec|_inf <= 8, and a block whose
    jvec - kvec leaves 0 ... max_scale on some axis is skipped.  In 2-D
    DeltaU_(p1,p2) F = P_p1 F P_p2^T with the 1-D block projectors P_p, and
    U_{q,J} takes P_qs on the axes s in J, sum_{p <= qs} P_p elsewhere.

    b and phi are analysed once against the u table (`MeyerFamily.analysis`),
    and a block pair is the `MeyerFamily.synthesis` of a band of coefficients
    (phi's conjugated in place); a sum over p <= q is the range 0 ...
    2^(q+1) - 2 of heap indices.  The 2-D blocks go through two reused N x N
    buffers: fresh N x N temporaries per pair took over half the time."""
    if max(abs(k) for k in kvec) > 8:
        raise ValueError("|kvec|_inf must be <= 8")
    Cb, Cphi = meyer.analysis(b.values, "u"), meyer.analysis(phi.values, "u")

    def band(p, axis=None):  # the members of P_p, or of U_{p, J} on the given axis
        return slice(0, meyer.band(p).stop) if axis is not None and axis not in J else meyer.band(p)

    out, work = np.zeros(b.grid.shape, dtype=complex), np.empty((2,) + b.grid.shape, dtype=complex)
    for pvec in itertools.product(meyer.scales, repeat=b.grid.dim):
        qvec = [p - k for p, k in zip(pvec, kvec)]
        if all(0 <= q <= meyer.max_scale for q in qvec):
            block = meyer.synthesis(Cb, "u", bands=tuple(map(band, pvec)), out=work[0])
            phi_bands = tuple(band(q, axis) for axis, q in enumerate(qvec, 1))
            phi_block = meyer.synthesis(Cphi, "u", bands=phi_bands, out=work[1])
            block *= np.conj(phi_block, out=phi_block)
            out += block
    return Signal(b.grid, out)
