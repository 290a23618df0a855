"""Paraproducts: the Haar paraproduct, the dyadic shift G and Petermichl's
translation-dilation average, the commutator -> paraproduct decomposition,
and the Meyer scale-block paraproducts in one and two parameters.

Rank-one notation: (psi (x) phi) f = psi * <f, phi>, linear in f.
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
from .transforms import MeyerFamily, haar_analysis, haar_synthesis


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


def para_haar(b: Signal, f: Signal) -> Signal:
    """Para(b, f) = sum_I (<b,h_I>/sqrt|I|) <f,h^1_I> h_I
                  = sum_I <b,h_I> (avg of f over I) h_I."""
    if b.grid.dim != 1 or b.grid != f.grid:
        raise ValueError("para_haar needs 1D signals on a common grid")
    n = b.grid.depth
    bc = haar_analysis(b)
    avg = _block_average_pyramid(f.values, n)
    new_coeffs = {p: bc.wavelet[p] * avg[p] for p in range(n)}
    out = haar_synthesis(
        type(bc)(grid=b.grid, mean=0.0, wavelet=new_coeffs)
    )
    return out


def para_haar_matrix(b: Signal) -> OperatorMatrix:
    """Matrix of f -> para_haar(b, f) on the grid-cell basis."""
    n = b.grid.depth
    N = b.grid.n_points
    cols = np.empty((N, N), dtype=complex)
    for c in range(N):
        e = zeros(b.grid)
        e.values[c] = 1.0
        cols[:, c] = para_haar(b, e).values
    basis = ("cells", n)
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


def dyadic_shift_G(f: Signal) -> Signal:
    """G f = sum_I <f,h_I> g_I over intervals with |I| >= 4 cells."""
    n = f.grid.depth
    fc = haar_analysis(f)
    new_coeffs = {p: np.zeros(1 << p, dtype=complex) for p in range(n)}
    for p in range(n - 1):  # children at scale p+1 must be wavelet-resolvable
        c = fc.wavelet[p]
        new_coeffs[p + 1][0::2] -= c
        new_coeffs[p + 1][1::2] += c
    return haar_synthesis(type(fc)(grid=f.grid, mean=0.0, wavelet=new_coeffs))


def g_left(f: Signal) -> Signal:
    """G_left f = sum_J h_{J_left} <f, h_J>, over J with resolvable halves."""
    n = f.grid.depth
    fc = haar_analysis(f)
    new_coeffs = {p: np.zeros(1 << p, dtype=complex) for p in range(n)}
    for p in range(n - 1):
        new_coeffs[p + 1][0::2] += fc.wavelet[p]
    return haar_synthesis(type(fc)(grid=f.grid, mean=0.0, wavelet=new_coeffs))


def _operator_matrix_on_cells(apply_fn, grid: Grid) -> np.ndarray:
    N = grid.n_points
    cols = np.empty((N, N), dtype=complex)
    for c in range(N):
        e = zeros(grid)
        e.values[c] = 1.0
        cols[:, c] = apply_fn(e).values
    return cols


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
    """[M_b, G_left] as a dense matrix on the cell basis."""
    Mb = np.diag(b.values)
    GL = _operator_matrix_on_cells(g_left, b.grid)
    return Mb @ GL - GL @ Mb


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

    eps1 is the sign of h_{J_left} on I.  The sum of the pieces is checked
    against the dense commutator; any defect raises with the residual.
    """
    grid = b.grid
    n, N = grid.depth, grid.n_points
    w = grid.weight
    bc = haar_analysis(b)

    hvals = {}
    h1vals = {}
    for p in range(n + 1):
        for j in range(1 << p):
            iv = DyadicInterval(-p, j)
            if p < n:
                hvals[(p, j)] = haar_function(0, iv, grid).values
            if p <= n:
                h1vals[(p, j)] = haar_function(1, iv, grid).values

    def rank_one(psi, phi):
        return np.outer(psi, np.conj(phi)) * w

    labels = [
        "I=J_left:dual_para",
        "I=J_left:regular",
        "I=J_right",
        "I=J:para",
        "I=J:regular",
        "I<J_left:analytic",
        "I<J_left:dual",
        "I<J_right",
    ]
    pieces = {lab: np.zeros((N, N), dtype=complex) for lab in labels}

    # J runs over intervals whose halves carry wavelets: scale p <= n-2
    for p in range(n - 1):
        inv_sqrt_len = 2.0 ** (p / 2)  # |J|^{-1/2}
        for j in range(1 << p):
            hJ = hvals[(p, j)]
            h1J = h1vals[(p, j)]
            left = (p + 1, 2 * j)
            right = (p + 1, 2 * j + 1)
            hL, hR = hvals[left], hvals[right]
            h1L = h1vals[left]
            bL = bc.wavelet[p + 1][2 * j]
            bR = bc.wavelet[p + 1][2 * j + 1]
            bJ = bc.wavelet[p][j]
            pieces["I=J_left:dual_para"] += bL * inv_sqrt_len * np.sqrt(2) * rank_one(h1L, hJ)
            pieces["I=J_left:regular"] += bL * inv_sqrt_len * rank_one(hL, hL)
            pieces["I=J_right"] += -bR * inv_sqrt_len * rank_one(hL, hR)
            pieces["I=J:para"] += -bJ * inv_sqrt_len * rank_one(hL, h1J)
            pieces["I=J:regular"] += -bJ * inv_sqrt_len * rank_one(hL, hJ)
            # descendants strictly inside the halves
            for pi in range(p + 2, n):
                shift = pi - (p + 1)
                for ji in range(2 * j << shift, (2 * j + 1) << shift):
                    bI = bc.wavelet[pi][ji]
                    if bI == 0:
                        continue
                    hI = hvals[(pi, ji)]
                    # sign of h_{J_left} at the center of I
                    midpoint = (ji * 2 + 1) << (n - pi - 1)
                    eps1 = np.sign(hL[midpoint].real)
                    pieces["I<J_left:analytic"] += (
                        bI * inv_sqrt_len * np.sqrt(2) * eps1 * rank_one(hI, hJ)
                    )
                    pieces["I<J_left:dual"] += bI * inv_sqrt_len * rank_one(hL, hI)
                for ji in range((2 * j + 1) << shift, (2 * j + 2) << shift):
                    bI = bc.wavelet[pi][ji]
                    if bI == 0:
                        continue
                    hI = hvals[(pi, ji)]
                    pieces["I<J_right"] += -bI * inv_sqrt_len * rank_one(hL, hI)

    result = ParaproductPieces(grid, pieces)
    target = commutator_gleft_matrix(b)
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
    """DeltaU at interval size 2^-scale: sum over |I| = 2^-scale of u_I <f, u_I>."""
    out = zeros(f.grid)
    for j in range(1 << scale):
        u = meyer.antianalytic_part(DyadicInterval(-scale, j))
        out = out + f.inner(u) * u
    return out


def U_operator(meyer: MeyerFamily, scale: int, f: Signal) -> Signal:
    """U at size 2^-scale: sum of DeltaU over all coarser-or-equal sizes."""
    out = zeros(f.grid)
    for p in range(0, scale + 1):
        out = out + delta_U(meyer, p, f)
    return out


def meyer_para_1d(b: Signal, phi: Signal, meyer: MeyerFamily, offset: int = 0) -> Signal:
    """sum_j (DeltaU_j b) * conj(U_{j - offset} phi); offset moves the U-block
    toward coarser scales (the proof-side variant uses a large offset)."""
    out = zeros(b.grid)
    for p in meyer.scales:
        q = p - offset
        if q < 0:
            continue
        db = delta_U(meyer, p, b)
        uphi = U_operator(meyer, min(q, meyer.max_scale), phi)
        out = out + Signal(b.grid, db.values * np.conj(uphi.values))
    return out


def delta_U_2d(meyer: MeyerFamily, scales: tuple[int, int], f: Signal) -> Signal:
    """Tensor block: sum over R with |R_s| = 2^{-scales[s]} of u_R <f, u_R>."""
    out = zeros(f.grid)
    p1, p2 = scales
    from .dyadic import DyadicRectangle

    for j1 in range(1 << p1):
        for j2 in range(1 << p2):
            r = DyadicRectangle((DyadicInterval(-p1, j1), DyadicInterval(-p2, j2)))
            u = meyer.tensor_antianalytic(r)
            out = out + f.inner(u) * u
    return out


def U_operator_2d(meyer: MeyerFamily, scales: tuple[int, int], J: tuple[int, ...],
                  f: Signal) -> Signal:
    """U_{jvec, J}: equality of scale on axes in J, coarser-or-equal elsewhere."""
    p1, p2 = scales
    if p1 < 0 or p2 < 0:
        return zeros(f.grid)
    range1 = [p1] if 1 in J else list(range(0, p1 + 1))
    range2 = [p2] if 2 in J else list(range(0, p2 + 1))
    out = zeros(f.grid)
    for q1 in range1:
        for q2 in range2:
            out = out + delta_U_2d(meyer, (q1, q2), f)
    return out


def meyer_para_multi(b: Signal, phi: Signal, meyer: MeyerFamily,
                     J: tuple[int, ...] = (1, 2), kvec: tuple[int, int] = (0, 0)) -> Signal:
    """sum_jvec (DeltaU_jvec b) * conj(U_{jvec - kvec, J} phi) on the torus;
    kvec moves the U block toward coarser scales per axis, |kvec|_inf <= 8."""
    if max(abs(k) for k in kvec) > 8:
        raise ValueError("|kvec|_inf must be <= 8")
    out = zeros(b.grid)
    for p1 in meyer.scales:
        for p2 in meyer.scales:
            db = delta_U_2d(meyer, (p1, p2), b)
            if float(np.max(np.abs(db.values))) == 0.0:
                continue
            q = (p1 - kvec[0], p2 - kvec[1])
            if q[0] < 0 or q[1] < 0 or q[0] > meyer.max_scale or q[1] > meyer.max_scale:
                continue
            uphi = U_operator_2d(meyer, q, J, phi)
            out = out + Signal(b.grid, db.values * np.conj(uphi.values))
    return out
