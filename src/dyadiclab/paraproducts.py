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
from dataclasses import dataclass, field

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
    values, trailing axes a batch; J runs over intervals whose halves are
    wavelet-resolvable, |J| >= 4 cells."""
    c = _haar_analysis_axis(values, depth)
    new = np.zeros(values.shape, dtype=complex)  # the halves of heap index i are 2i and 2i + 1
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
    """Labeled rank-structured pieces whose sum reproduces [M_b, G_left]."""

    grid: Grid
    pieces: dict = field(default_factory=dict)  # label -> (N, N) matrix
    residual: float = None  # max |total - [M_b, G_left]|, set by decompose_commutator_Gleft

    def total(self) -> np.ndarray:
        return sum(self.pieces.values())

    def labels(self) -> list:
        return sorted(self.pieces)


class DecompositionError(RuntimeError):
    def __init__(self, message, residual):
        super().__init__(message)
        self.residual = residual


def commutator_gleft_matrix(b: Signal) -> np.ndarray:
    """[M_b, G_left] as a dense matrix on the cell basis, from G_left applied
    once to the identity."""
    if b.grid.dim != 1:
        raise ValueError("[M_b, G_left] needs a 1D symbol")
    GL = _shift_values(np.eye(b.grid.n_points, dtype=complex), b.grid.depth, 1.0, 0.0)
    return b.values[:, None] * GL - GL * b.values[None, :]


def _thin_product(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """A B^T for factors with a column per J, one of them real: two real products."""
    out = np.empty((len(A), len(B)), dtype=complex)
    if np.iscomplexobj(A):
        out.real, out.imag = A.real @ B.T, A.imag @ B.T
    else:
        out.real, out.imag = A @ B.real.T, A @ B.imag.T
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
    <= depth - 2), w the quadrature weight, each built just before its
    product.  The sum of the pieces is checked against the dense
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

    factors = {  # label -> (A, B)
        "I=J_left:dual_para": lambda: (np.abs(hL) * (np.sqrt(2) * s * bL), hJ),
        "I=J_left:regular": lambda: (hL * (s * bL), hL),
        "I=J_right": lambda: (hL * (-s * bR), hR),
        "I=J:para": lambda: (hL * (-s * bJ), np.abs(hJ)),
        "I=J:regular": lambda: (hL * (-s * bJ), hJ),
        "I<J_left:analytic": lambda: (np.sign(hL) * inside(hL, bL) * (np.sqrt(2) * s), hJ),
        "I<J_left:dual": lambda: (hL * s, inside(hL, bL)),
        "I<J_right": lambda: (hL * -s, inside(hR, bR)),
    }
    result = ParaproductPieces(b.grid, {label: _thin_product(*make()) for label, make in factors.items()})
    residual = result.total() - target
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


def _window_interp(q: np.ndarray, start: np.ndarray, rows: np.ndarray,
                   n: int, pad: int) -> np.ndarray:
    """Data rows (R, w, B) on window indices start[r] + c, zero off them,
    interpolated at the points q (R, m) as np.interp(left=0, right=0) does
    on the window; one data row serves all of q.  Result (R, m, B)."""
    padded = np.pad(rows, ((0, 0), (2, 2), (0, 0)))  # two zeros on either side
    h = 2.0 ** -n
    j = np.floor((q + pad) / h).astype(np.int64)
    # the bracket x_j <= q < x_{j+1} that np.interp's search finds, and its formula
    j -= j * h - pad > q
    j += (j + 1) * h - pad <= q
    frac = ((q - (j * h - pad)) / h)[..., None]
    r, c = np.arange(rows.shape[0])[:, None], np.clip(j - start[:, None] + 2, 0, rows.shape[1] + 2)
    lo, hi = padded[r, c], padded[r, c + 1]
    inside = ((q >= -pad) & (q <= pad + 1 - h))[..., None]
    return np.where(inside, lo + (hi - lo) * frac, 0.0)


def _petermichl_values(values: np.ndarray, n: int, Y: float, s_steps: int, y_steps: int,
                       pad: int | None, y_measure: str) -> tuple[np.ndarray, int]:
    """The translation-dilation average of G on the window, applied to the
    columns of values (2^n, B) on [0, 1) and read back on [0, 1), and the
    pad it used (default: the least power of two >= max(4, Y + 1)).

    Per y node the s nodes run as one batch of rows, each on its own index
    range: Dil_s of the translated input only on its support (about s 2^n
    cells), G's coefficients <v, h_I> from one prefix sum of that support,
    G only at the indices the back-dilation reads, and the rows summed with
    their weights before the one back-translation, which is linear."""
    if n < 3:
        raise ResolutionError("averaging the shift needs grid depth >= 3")
    if pad is None:
        pad = 1 << int(np.ceil(np.log2(max(4.0, Y + 1.0))))
    if pad < 1 or pad & (pad - 1):  # keeps every dyadic scale aligned with the window
        raise ValueError("pad must be a power of two")
    N, B = values.shape
    h = 2.0 ** -n
    L = (2 * pad + 1) << n

    def x(i):  # window coordinate of index i
        return -pad + i * h

    y_nodes, y_w, s_nodes, s_w = petermichl_quadrature(Y, s_steps, y_steps, h, y_measure)
    width = 2 * N + 18  # covers any row's support and reads, s <= 2
    chunk = max(1, (1 << 18) // (width * B))  # rows per batch: working arrays of <= 2^18 entries
    acc = np.zeros((N, B), dtype=complex)
    for y, wy in zip(y_nodes, y_w):
        # Tr_y: the translate is zero outside indices m0 + 2 ... m0 + N + 2
        m0 = int(np.floor((pad + y) / h)) - 2
        m = m0 + np.arange(N + 6)
        shifted = _window_interp((x(m) - y)[None], np.array([pad << n]), values[None], n, pad)
        shifted[:, (m < 0) | (m >= L)] = 0.0
        # Tr_{-y} reads the back-dilated rows V at the same indices m
        V = np.zeros((N + 6, B), dtype=complex)
        for c0 in range(0, s_steps, chunk):
            s, ws = s_nodes[c0 : c0 + chunk], s_w[c0 : c0 + chunk]
            r = np.arange(s.size)[:, None]
            # Dil_s on the support, zero beyond the window
            u_start = np.floor((s * x(m0) + pad) / h).astype(np.int64) - 2
            ui = u_start[:, None] + np.arange(width)
            u = _window_interp(x(ui) / s[:, None], np.array([m0]), shifted, n, pad) * (s ** -0.5)[:, None, None]
            u[(ui < 0) | (ui >= L)] = 0.0
            prefix = np.pad(np.cumsum(u, axis=1), ((0, 0), (1, 0), (0, 0)))
            # G at the indices Dil_{1/s} reads: x_m s for the m read by Tr_{-y}
            q = x(m)[None, :] / (1.0 / s)[:, None]
            g_start = np.floor((q[:, 0] + pad) / h).astype(np.int64) - 2
            gi = g_start[:, None] + np.arange(width)
            Gu = np.zeros((s.size, width, B), dtype=complex)

            def mass(idx):  # sum of u over the row's cells below window index idx
                return prefix[r, np.clip(idx - u_start[:, None], 0, width)]

            for e in range(2, n + int(pad).bit_length()):  # |I| = 2^e cells, 4 cells ... pad units
                nb = ((width - 1) >> e) + 2
                blocks = (g_start >> e)[:, None] + np.arange(nb)
                at_mid = mass((2 * blocks + 1) << (e - 1))
                coef = (mass((blocks + 1) << e) - at_mid) - (at_mid - mass(blocks << e))
                coef *= h * np.sqrt(2.0) * 2.0 ** (n - e)  # <u, h_I> |I|^{-1/2} sqrt 2
                coef[blocks >= (L >> e)] = 0.0
                # g_I = -h_{I_left} + h_{I_right}: signs + - - + on the quarters
                quarters = coef[:, :, None, :] * np.array([1.0, -1.0, -1.0, 1.0])[:, None]
                Gu += quarters.reshape(s.size, 4 * nb, B)[r, (gi >> (e - 2)) - 4 * blocks[:, :1]]
            v = _window_interp(q, g_start, Gu, n, pad)
            V += np.tensordot(ws * (1.0 / s) ** -0.5, v, axes=(0, 0))
        V[m >= L] = 0.0
        out = _window_interp(x((pad << n) + np.arange(N))[None] + y, np.array([m0]), V[None], n, pad)
        acc += wy * out[0]
    return acc, pad


def petermichl_quadrature(Y: float, s_steps: int, y_steps: int, y0: float,
                          y_measure: str = "uniform"):
    """Quadrature nodes/weights for the translation-dilation average.

    The dilation measure is ds/s on [1, 2].  The translation measure is
    uniform dy on [0, Y) by default: that is the Haar measure of grid
    translations, and the average then equidistributes every dyadic scale.
    The 'log' variant (dy/y from y0, the literal printed form) is kept for
    comparison; its truncation is dominated by near-zero shifts and converges
    much more slowly.
    """
    if y_measure == "uniform":
        edges = np.linspace(0.0, Y, y_steps + 1)
        y_nodes = 0.5 * (edges[:-1] + edges[1:])
        y_weights = np.full(y_steps, edges[1] - edges[0])
    elif y_measure == "log":
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
    two >= max(4, Y + 1)), and restrict back to [0,1).  A node costs about
    s 2^n cells per dyadic scale of the window, whatever the window's length."""
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
    indicators; the working arrays grow as N^2 per s node."""
    N = grid.n_points
    cols, pad = _petermichl_values(np.eye(N, dtype=complex), grid.depth, Y, s_steps, y_steps,
                                   pad, y_measure)
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
