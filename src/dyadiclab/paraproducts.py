"""Paraproducts: the Haar paraproduct, the dyadic shift G and Petermichl's
translation-dilation average, the commutator -> paraproduct decomposition,
and the Meyer scale-block paraproducts in one and two parameters.

Rank-one notation: (psi (x) phi) f = psi * <f, phi>, linear in f.  A sum of
such terms is one coefficient matrix between two basis matrices, and an
operator matrix is the operator applied once to the identity.
"""

from __future__ import annotations

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
    _haar_pyramid_1d,
    _haar_synth_axis,
    haar_analysis,
)


# ---------------------------------------------------------------------------
# block averages and the Haar paraproduct


def _block_average_pyramid(values: np.ndarray, depth: int) -> dict:
    """avg[p][j] = average of f over I(p, j)."""
    out = {}
    w = values.copy()
    for p in range(depth, -1, -1):
        if p < depth:
            w = 0.5 * (w[0::2] + w[1::2])
        out[p] = w.copy()
    return out


def _para_haar_values(b: Signal, values: np.ndarray) -> np.ndarray:
    """Para(b, .) along axis 0 of values; trailing axes are a batch."""
    n = b.grid.depth
    bc = haar_analysis(b)
    avg = _block_average_pyramid(values, n)
    batch = (1,) * (values.ndim - 1)
    new_coeffs = {p: bc.wavelet[p].reshape((-1,) + batch) * avg[p] for p in range(n)}
    return _haar_synth_axis(new_coeffs, np.zeros(values.shape[1:]), n)


def para_haar(b: Signal, f: Signal) -> Signal:
    """Para(b, f) = sum_I (<b,h_I>/sqrt|I|) <f,h^1_I> h_I
                  = sum_I <b,h_I> (avg of f over I) h_I."""
    if b.grid.dim != 1 or b.grid != f.grid:
        raise ValueError("para_haar needs 1D signals on a common grid")
    return Signal(b.grid, _para_haar_values(b, f.values))


def para_haar_matrix(b: Signal) -> OperatorMatrix:
    """Matrix of f -> para_haar(b, f) on the grid-cell basis: the pyramid
    applied once to the identity, whose columns are the cell indicators."""
    if b.grid.dim != 1:
        raise ValueError("para_haar_matrix needs a 1D symbol")
    cols = _para_haar_values(b, np.eye(b.grid.n_points, dtype=complex))
    basis = ("cells", b.grid.depth)
    return OperatorMatrix(cols, basis, basis)


def para_double_sum(b: Signal, f: Signal) -> Signal:
    """Brute-force sum over pairs I strictly inside J of
    <b,h_I><f,h_J> h_I h_J, with J running over the dyadic intervals of the
    torus plus the constant ambient term (the torus itself contains every I)."""
    n = b.grid.depth
    out = zeros(b.grid)
    bc = haar_analysis(b)
    fc = haar_analysis(f)
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
                bc.wavelet[pi][ji] * fc.wavelet[pj][jj] * hs[(pi, ji)] * hs[(pj, jj)]
            )
        # ambient term: the torus as the coarsest J, factor h_J = 1, coefficient the mean
    for pi, ji in intervals:
        out.values += bc.wavelet[pi][ji] * fc.mean * hs[(pi, ji)]
    return out


# ---------------------------------------------------------------------------
# the dyadic shift G


def _shift_values(values: np.ndarray, depth: int, left: float, right: float) -> np.ndarray:
    """sum_J <f, h_J> (left h_{J_left} + right h_{J_right}) along axis 0 of
    values, trailing axes a batch; J runs over intervals whose halves are
    wavelet-resolvable, |J| >= 4 cells."""
    coeffs, _ = _haar_pyramid_1d(values, depth)
    new_coeffs = {p: np.zeros(coeffs[p].shape, dtype=complex) for p in range(depth)}
    for p in range(depth - 1):
        new_coeffs[p + 1][0::2] += left * coeffs[p]
        new_coeffs[p + 1][1::2] += right * coeffs[p]
    return _haar_synth_axis(new_coeffs, np.zeros(values.shape[1:]), depth)


def dyadic_shift_G(f: Signal) -> Signal:
    """G f = sum_I <f,h_I> g_I, g_I = -h_{I_left} + h_{I_right}, over |I| >= 4 cells."""
    return Signal(f.grid, _shift_values(f.values, f.grid.depth, -1.0, 1.0))


def g_left(f: Signal) -> Signal:
    """G_left f = sum_J h_{J_left} <f, h_J>, over J with resolvable halves."""
    return Signal(f.grid, _shift_values(f.values, f.grid.depth, 1.0, 0.0))


# ---------------------------------------------------------------------------
# commutator -> paraproduct decomposition for G_left


@dataclass
class ParaproductPieces:
    """Labeled rank-structured pieces whose sum reproduces [M_b, G_left]."""

    grid: Grid
    pieces: dict = field(default_factory=dict)  # label -> (N, N) matrix

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
    Mb = np.diag(b.values)
    GL = _shift_values(np.eye(b.grid.n_points, dtype=complex), b.grid.depth, 1.0, 0.0)
    return Mb @ GL - GL @ Mb


# label -> bases (Psi, Phi) of the piece Psi C Phi^T: "h" samples h_I, "h1" samples h^1_I
_GLEFT_BASES = {
    "I=J_left:dual_para": ("h1", "h"),
    "I=J_left:regular": ("h", "h"),
    "I=J_right": ("h", "h"),
    "I=J:para": ("h", "h1"),
    "I=J:regular": ("h", "h"),
    "I<J_left:analytic": ("h", "h"),
    "I<J_left:dual": ("h", "h"),
    "I<J_right": ("h", "h"),
}


def _haar_basis_matrices(grid: Grid) -> dict:
    """Columns h_I and h^1_I sampled on the cells, for the intervals of scale
    p < depth in heap order: I(p, j) is column 2^p - 1 + j, so the halves
    of column J are 2J + 1 and 2J + 2."""
    N = grid.n_points
    H = np.empty((N, N - 1))
    H1 = np.empty((N, N - 1))
    for p in range(grid.depth):
        amp = (2.0 ** -p) ** -0.5  # |I|^{-1/2}, as haar_function computes it
        width = N >> p
        cols = slice((1 << p) - 1, (2 << p) - 1)
        H1[:, cols] = np.kron(np.eye(1 << p), np.full((width, 1), amp))
        H[:, cols] = H1[:, cols] * np.tile(np.repeat([-1.0, 1.0], width // 2), 1 << p)[:, None]
    return {"h": H, "h1": H1}


def _heap_descendants(nodes: np.ndarray, k: int) -> np.ndarray:
    """Heap indices of the 2^k descendants k levels below each node, one row per node."""
    return ((nodes + 1) << k)[:, None] - 1 + np.arange(1 << k)


def _gleft_coefficients(label: str, beta: np.ndarray, n: int) -> np.ndarray:
    """Coefficient matrix of one labelled piece over the intervals in heap
    order, beta = <b, h_I> in that order; the J of one scale are written
    at once, their descendants by one slice per scale."""
    C = np.zeros((beta.size, beta.size), dtype=complex)
    for p in range(n - 1):  # J carries resolvable halves: scale p <= n - 2
        J = np.arange((1 << p) - 1, (2 << p) - 1)
        L, R = 2 * J + 1, 2 * J + 2
        s = 2.0 ** (p / 2)  # |J|^{-1/2}
        if label == "I=J_left:dual_para":
            C[L, J] = s * np.sqrt(2) * beta[L]
        elif label == "I=J_left:regular":
            C[L, L] = s * beta[L]
        elif label == "I=J_right":
            C[L, R] = -s * beta[R]
        elif label in ("I=J:para", "I=J:regular"):
            C[L, J] = -s * beta[J]
        for k in range(1, n - 1 - p):  # I at scale p + 1 + k <= n - 1
            if label == "I<J_left:analytic":
                I = _heap_descendants(L, k)
                eps1 = np.repeat([-1.0, 1.0], 1 << (k - 1))  # sign of h_{J_left} on I
                C[I, J[:, None]] = s * np.sqrt(2) * eps1 * beta[I]
            elif label == "I<J_left:dual":
                I = _heap_descendants(L, k)
                C[L[:, None], I] = s * beta[I]
            elif label == "I<J_right":
                I = _heap_descendants(R, k)
                C[L[:, None], I] = -s * beta[I]
    return C


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

    eps1 is the sign of h_{J_left} on I.  Each labelled piece, a sum of
    such terms, is Psi C Phi^T w: C its interval x interval coefficients,
    Psi and Phi the sampled bases h or h^1, w the quadrature weight.  The
    sum of the pieces is checked against the dense commutator; any defect
    raises with the residual.
    """
    target = commutator_gleft_matrix(b)
    n = b.grid.depth
    bc = haar_analysis(b)
    beta = np.concatenate([bc.wavelet[p] for p in range(n)])
    bases = _haar_basis_matrices(b.grid)
    pieces = {}
    for label, (psi, phi) in _GLEFT_BASES.items():
        C = _gleft_coefficients(label, beta, n)
        pieces[label] = (bases[psi] @ C) @ (bases[phi].T * b.grid.weight)
    result = ParaproductPieces(b.grid, pieces)
    residual = result.total() - target
    defect = float(np.max(np.abs(residual)))
    scale = max(1.0, float(np.max(np.abs(target))))
    if defect > check_tol * scale:
        raise DecompositionError(
            f"decomposition defect {defect:.3e} exceeds {check_tol:.1e}", residual
        )
    return result


# ---------------------------------------------------------------------------
# the line window: dyadic shift on [-P, P+1) and the Petermichl average


@dataclass
class LineWindow:
    """Non-periodic window [-pad, pad+1) sampled at 2^depth cells per unit;
    unit-interval data is embedded with zero padding."""

    depth: int
    pad: int

    def __post_init__(self):
        # power-of-two pad keeps every dyadic scale aligned with the array
        if self.pad & (self.pad - 1):
            raise ValueError("pad must be a power of two")

    @property
    def cell(self) -> float:
        return 2.0 ** -self.depth

    @property
    def n_cells(self) -> int:
        return (2 * self.pad + 1) << self.depth

    @property
    def left(self) -> float:
        return -float(self.pad)

    def coords(self) -> np.ndarray:
        return self.left + np.arange(self.n_cells) * self.cell

    def embed(self, f: Signal) -> np.ndarray:
        if f.grid.depth != self.depth:
            raise ValueError("resolution mismatch")
        out = np.zeros(self.n_cells, dtype=complex)
        start = self.pad << self.depth
        out[start : start + f.grid.n_points] = f.values
        return out

    def restrict(self, values: np.ndarray) -> Signal:
        start = self.pad << self.depth
        g = Grid(self.depth, 1)
        return Signal(g, values[start : start + g.n_points].copy())


def _window_shift_G(win: LineWindow, values: np.ndarray) -> np.ndarray:
    """G on the window: sum over dyadic I inside the window, |I| >= 4 cells."""
    n = win.depth
    L = win.n_cells
    out = np.zeros(L, dtype=complex)
    cell = win.cell
    # scale exponent k: |I| = 2^k, from 4 cells up to the largest power of two <= pad
    k_min = -n + 2
    k_max = int(np.log2(win.pad)) if win.pad > 1 else 0
    for k in range(k_min, k_max + 1):
        size = 1 << (n + k)  # cells per interval
        m = L // size  # aligned intervals fully inside
        if m == 0:
            continue
        f_blocks = values[: m * size].reshape(m, size)
        half = size // 2
        quarter = size // 4
        lsum = f_blocks[:, :half].sum(axis=1) * cell
        rsum = f_blocks[:, half:].sum(axis=1) * cell
        amp = 2.0 ** (-k / 2)  # |I|^{-1/2}
        coef = (rsum - lsum) * amp  # <f, h_I>
        # g_I = -h_{I_left} + h_{I_right}: amplitude sqrt(2)/sqrt(|I|) on quarters
        gamp = np.sqrt(2.0) * amp
        block_out = np.zeros((m, size), dtype=complex)
        block_out[:, :quarter] = (coef * gamp)[:, None]
        block_out[:, quarter:half] = (-coef * gamp)[:, None]
        block_out[:, half : half + quarter] = (-coef * gamp)[:, None]
        block_out[:, half + quarter :] = (coef * gamp)[:, None]
        out[: m * size] += block_out.ravel()
    return out


def _window_translate(win: LineWindow, values: np.ndarray, y: float) -> np.ndarray:
    """(Tr_y f)(x) = f(x - y) by linear interpolation, zero outside the window."""
    x = win.coords()
    xp = x - y
    re = np.interp(xp, x, values.real, left=0.0, right=0.0)
    im = np.interp(xp, x, values.imag, left=0.0, right=0.0)
    return re + 1j * im


def _window_dilate(win: LineWindow, values: np.ndarray, s: float) -> np.ndarray:
    """(Dil_s^2 f)(x) = s^{-1/2} f(x/s) by linear interpolation."""
    x = win.coords()
    xp = x / s
    re = np.interp(xp, x, values.real, left=0.0, right=0.0)
    im = np.interp(xp, x, values.imag, left=0.0, right=0.0)
    return (re + 1j * im) * s ** -0.5


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
    """Apply the translation-dilation average of G to a unit-interval signal
    and restrict back to [0,1)."""
    n = f.grid.depth
    if n < 3:
        raise ResolutionError("averaging the shift needs grid depth >= 3")
    if pad is None:
        pad = 1 << int(np.ceil(np.log2(max(4.0, Y + 1.0))))
    win = LineWindow(n, pad)
    base = win.embed(f)
    y_nodes, y_w, s_nodes, s_w = petermichl_quadrature(Y, s_steps, y_steps, win.cell, y_measure)
    acc = np.zeros(win.n_cells, dtype=complex)
    for yi, wy in zip(y_nodes, y_w):
        shifted = _window_translate(win, base, yi)
        for sj, ws in zip(s_nodes, s_w):
            v = _window_dilate(win, shifted, sj)
            v = _window_shift_G(win, v)
            v = _window_dilate(win, v, 1.0 / sj)
            acc += (wy * ws) * _window_translate(win, v, -yi)
    return win.restrict(acc)


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
    asserted).  Heavy at fine grids; experiments use apply_petermichl_average
    for single signals."""
    N = grid.n_points
    cols = np.empty((N, N), dtype=complex)
    for c in range(N):
        e = zeros(grid)
        e.values[c] = 1.0
        cols[:, c] = apply_petermichl_average(e, Y, s_steps, y_steps, pad, y_measure).values
    Hcols = np.empty((N, N), dtype=complex)
    for c in range(N):
        e = zeros(grid)
        e.values[c] = 1.0
        Hcols[:, c] = hilbert_reference(e).values
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
# adaptedness checker (test utility)


def adapted_bump_constant(phi: Signal, interval: DyadicInterval, decay_power: int = 4) -> dict:
    """Smallest constants C_0, C_1 with

        |D^n phi(x)| <= C_n |I|^{-n-1/2} (1 + |x - c(I)|/|I|)^{-decay_power}

    for n = 0, 1 on the grid (D^1 by centered differences, torus distance).
    A function is adapted to I when these constants are O(1) across scales.
    The default decay order matches what the C^3 frequency window actually
    provides (tails ~ |x|^-4); steeper envelopes would need a smoother
    window and report scale-growing constants."""
    grid = phi.grid
    x = grid.points()
    dist = np.abs(x - interval.center)
    dist = np.minimum(dist, 1.0 - dist)  # torus metric
    envelope = (1.0 + dist / interval.length) ** (-float(decay_power))
    c0 = np.abs(phi.values) * interval.length ** 0.5 / envelope
    dphi = (np.roll(phi.values, -1) - np.roll(phi.values, 1)) / (2.0 * grid.cell_width)
    c1 = np.abs(dphi) * interval.length ** 1.5 / envelope
    return {"C0": float(np.max(c0)), "C1": float(np.max(c1))}


# ---------------------------------------------------------------------------
# Meyer scale-block paraproducts


def delta_U(meyer: MeyerFamily, scale: int, f: Signal) -> Signal:
    """DeltaU at interval size 2^-scale: sum over |I| = 2^-scale of u_I <f, u_I>,
    i.e. the block projector P_scale applied to f."""
    return Signal(f.grid, meyer.block_projector(scale) @ f.values)


def U_operator(meyer: MeyerFamily, scale: int, f: Signal) -> Signal:
    """U at size 2^-scale: sum of DeltaU over all coarser-or-equal sizes."""
    return sum((meyer.block_projector(p) @ f.values for p in range(scale + 1)), zeros(f.grid))


def meyer_para_1d(b: Signal, phi: Signal, meyer: MeyerFamily, offset: int = 0) -> Signal:
    """sum_j (DeltaU_j b) * conj(U_{j - offset} phi); offset moves the U-block
    toward coarser scales (the proof-side variant uses a large offset)."""
    out = zeros(b.grid)
    for p in meyer.scales:
        q = p - offset
        if q >= 0:
            out = out + delta_U(meyer, p, b) * U_operator(meyer, min(q, meyer.max_scale), phi).conj()
    return out


def meyer_para_multi(b: Signal, phi: Signal, meyer: MeyerFamily,
                     J: tuple[int, ...] = (1, 2), kvec: tuple[int, int] = (0, 0)) -> Signal:
    """sum_jvec (DeltaU_jvec b) * conj(U_{jvec - kvec, J} phi) on the torus;
    kvec moves the U block toward coarser scales per axis, |kvec|_inf <= 8.
    DeltaU_(p1,p2) F = P_p1 F P_p2^T with the 1-D block projectors P_p, and
    U_{q,J} takes P_qs on the axes s in J, sum_{p <= qs} P_p elsewhere."""
    if max(abs(k) for k in kvec) > 8:
        raise ValueError("|kvec|_inf must be <= 8")
    P = [meyer.block_projector(p) for p in meyer.scales]

    def U(axis, q):
        return P[q] if axis in J else sum(P[: q + 1])

    out = np.zeros(b.grid.shape, dtype=complex)
    for p1 in meyer.scales:
        q1 = p1 - kvec[0]
        if not 0 <= q1 <= meyer.max_scale:
            continue
        b1 = P[p1] @ b.values
        phi1 = U(1, q1) @ phi.values
        for p2 in meyer.scales:
            q2 = p2 - kvec[1]
            if 0 <= q2 <= meyer.max_scale:
                out += (b1 @ P[p2].T) * np.conj(phi1 @ U(2, q2).T)
    return Signal(b.grid, out)
