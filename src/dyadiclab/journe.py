"""Embeddedness, Journe-damped projections, the Carleson-type family, and the
multiparameter lower-bound experiment (the alpha/beta/gamma decomposition).

Embeddedness is computed from the double maximal-function enlargement

    V = { MM 1_{ {MM 1_U > 1/2} } > 1/2 }

on the 3x-padded non-periodic window [-1, 2)^d (so dilation never wraps
around), for any d, with

    Emb(R; U) = sup { mu >= 1 : mu R inside V },

in closed form (`_embeddedness`): the least weighted Chebyshev distance
max_a 2 t_a / |I_a| from R's centre to a cell outside V, t_a the distance
along axis a.  It is a multiple of 2^-depth, so the bisection this replaced
(refined far below 2^-depth) landed on it exactly, and its 1e-12 rounding
guard let the sup itself test as inside: the two agreed bit for bit.

Rectangles become boxes through `norms._box_arrays`, the one check of
[0,1)^d.  The damped checks read f's coefficients as arrays off one
coefficient pass (`norms._coefficient_heap`) and build no dict book.  The
lower-bound experiment splits its symbol on its Meyer coefficient matrix,
one synthesis a masked part; beta keeps the boxes inside V whose
coefficients pass the sups' significance rule (`norms._masses`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .dyadic import (
    DyadicInterval,
    DyadicRectangle,
    Grid,
    RectangleCollection,
    Signal,
    haar_tensor,
    zeros,
)
from . import norms
from .norms import _box_arrays, lp_norm
from .transforms import MeyerFamily, _strong_maximal, all_analytic_projection


# ---------------------------------------------------------------------------
# padded-window double maximal function and embeddedness


def _check_shape(mask: np.ndarray, shape: tuple, name: str) -> None:
    if np.shape(mask) != shape:
        raise ValueError(f"{name} has shape {np.shape(mask)}, not {shape}")


def enlarged_set(U_mask: np.ndarray, grid: Grid) -> np.ndarray:
    """V from the double maximal construction, as a mask on the 3x-padded
    window (the unit cube occupies the central block [N:2N]^d).  The means
    of an indicator are exact and >= 0, so they take no map."""
    _check_shape(U_mask, grid.shape, "U_mask")
    padded = np.pad(np.asarray(U_mask, dtype=bool), grid.n_points)
    m1 = _strong_maximal(padded.astype(float), grid.depth) > 0.5
    return _strong_maximal(m1.astype(float), grid.depth) > 0.5


_EMB_CHUNK = 1 << 18  # box-to-edge-cell distances held at once by `_embeddedness`


def _embeddedness(scales: np.ndarray, positions: np.ndarray, V: np.ndarray,
                  depth: int) -> np.ndarray:
    """Emb of each box of (d, K) arrays of scales and positions on the grid of
    the given depth, V a mask on its 3x-padded window, in closed form.

    The mu-dilate of a box meets cell x when mu |I_a| / 2 exceeds
    t_a = |x_a + 1/2 - c_a| - 1/2 on every axis a (c the centre, in cells),
    so Emb is the least max_a 2 t_a / |I_a| over the cells outside V and the
    ring around the window, floored at 1; 1 for a box not inside V.  A walk
    from an outside cell towards the centre never raises the distance, so
    for a box inside V the outside cells touching an inside cell (edge cells)
    hold the least; and a box with a cell inside V is inside V unless an
    edge cell is closer than 1.  Each distance is an integer over |I_a| in
    cells, exact.
    """
    d, N = scales.shape[0], 1 << depth
    _check_shape(V, (3 * N,) * d, "V_mask")
    inside = np.pad(np.asarray(V, dtype=bool), 1)  # the ring: np.roll brings it round
    near = np.zeros_like(inside)
    for axis in range(d):
        near |= np.roll(inside, 1, axis) | np.roll(inside, -1, axis)
    edge = np.argwhere(near & ~inside).T[:, None] - 1  # (d, 1, B), in window cells
    width = 1 << (depth - scales)  # |I_a| in cells
    twice_centre = 2 * N + (2 * positions + 1) * width
    emb = np.where(inside[tuple(N + 1 + positions * width)], np.inf, 1.0)
    step = max(1, _EMB_CHUNK // (d * max(edge.shape[2], 1)))
    for lo in range(0, emb.size, step):
        c, w = twice_centre[:, lo:lo + step, None], width[:, lo:lo + step, None]
        dist = np.max((np.abs(2 * edge + 1 - c) - 1) / w, axis=0)  # (boxes, edge cells)
        part = emb[lo:lo + step]
        np.minimum(part, np.maximum(dist.min(axis=1, initial=np.inf), 1.0), out=part)
    return emb


def embeddedness(R: DyadicRectangle, U_mask: np.ndarray, grid: Grid,
                 V_mask: np.ndarray | None = None) -> float:
    """Emb(R; U) = largest mu >= 1 with the mu-dilate of R inside V (by
    default `enlarged_set(U_mask, grid)`, a mask on the 3x-padded window),
    1 when R itself is not: `_embeddedness`'s closed form, exact."""
    _check_shape(U_mask, grid.shape, "U_mask")
    box = _box_arrays([R], grid.dim)
    if not U_mask[R.cell_slices(grid)].all():
        raise ValueError(f"R must be a rectangle in [0,1)^{grid.dim} contained in U; got {R}")
    V = enlarged_set(U_mask, grid) if V_mask is None else V_mask
    return float(_embeddedness(*box, V, grid.depth)[0])


# ---------------------------------------------------------------------------
# damped projection checks


def _inside_cells(mask: np.ndarray, scales: np.ndarray, positions: np.ndarray) -> np.ndarray:
    """Which boxes of (d, K) arrays of scales and positions have every cell
    in the cell mask (2^depth cells a side): the count of mask cells in each
    box, read off a summed-volume table at its 2^d corners by inclusion and
    exclusion, against the box's own count."""
    depth = mask.shape[0].bit_length() - 1
    table = np.pad(np.asarray(mask, dtype=bool), (1, 0))
    for axis in range(mask.ndim):
        table = np.cumsum(table, axis=axis)
    ends = (positions << (depth - scales), (positions + 1) << (depth - scales))
    count = sum((-1) ** c.count(0) * table[tuple(ends[e][a] for a, e in enumerate(c))]
                for c in itertools.product((0, 1), repeat=mask.ndim))
    return count == np.prod(ends[1] - ends[0], axis=0)


def journe_damped_check(f: Signal, U_mask: np.ndarray, eps: float,
                        family: str = "haar", meyer: MeyerFamily | None = None,
                        depth: int | None = None, V_mask: np.ndarray | None = None) -> dict:
    """Compare the product BMO of the damped projection
    sum_{R in U} Emb(R;U)^{-eps} <f, w_R> w_R against bmo_rect(f); V_mask,
    if given, is enlarged_set(U_mask, f.grid), shared by checks on one U.
    Both sups run on the arrays of one coefficient pass; `embeddedness`
    (DyadicRectangle -> Emb of each damped box) is the one dict built."""
    grid = f.grid
    _check_shape(U_mask, grid.shape, "U_mask")
    n = norms._depth(f, depth)
    heap = norms._coefficient_heap(f, family, meyer)
    scales, positions, coef = norms._coefficients(heap, grid.dim, depth)
    V = enlarged_set(U_mask, grid) if V_mask is None else V_mask
    mass = norms._masses(coef)
    kept = (mass > 0) & _inside_cells(U_mask, scales, positions)
    inner = (scales[:, kept], positions[:, kept])
    emb = _embeddedness(*inner, V, grid.depth)
    # float_power rounds as Python's float ** float; np.power can miss it in the last bit
    damped = norms._nonzero_book(*inner, coef[kept] * np.float_power(emb, -eps))
    lhs = np.sqrt(norms._max_union_ratio(damped, n)[0])
    rect = norms._densest_box(norms._Book(scales, positions, mass), n)[0]
    rhs = np.sqrt(float(rect))
    return {"lhs_bmo": lhs, "rhs_rect_bmo": rhs, "ratio": lhs / rhs if rhs > 0 else np.nan,
            "eps": eps, "embeddedness": dict(zip(norms._rectangles(*inner), emb.tolist()))}


class JourneCheckError(RuntimeError):
    def __init__(self, message, offenders):
        super().__init__(message)
        self.offenders = offenders


def journe_inequality_checker_d1(f: Signal, collection: RectangleCollection,
                                 V_mask: np.ndarray, emb_map: dict, eta: float,
                                 family: str = "haar", meyer: MeyerFamily | None = None,
                                 depth: int | None = None) -> dict:
    """Verify the two geometric conclusions for a supplied (V, Emb) candidate
    and evaluate the damped inequality with exponent 2d, reporting the
    empirical constant.

      (a) Emb(R) * R inside V for every R in the collection;
      (b) |V| < (1 + eta) |sh(collection)|;
      (c) product-BMO(damped projection) <= K * bmo_minus1(f): K reported.
    """
    grid = f.grid
    N, d = grid.n_points, grid.dim
    n = norms._depth(f, depth)
    members = tuple(dict.fromkeys(collection.members))
    scales, positions = _box_arrays(members, d)
    emb = np.array([emb_map.get(r, np.nan) for r in members], dtype=float)
    if not np.all(emb >= 1.0):  # Emb >= 1 by definition; NaN: a member with no entry
        raise ValueError(f"emb_map must give each member an Emb >= 1; {np.sum(~(emb >= 1))} do not")
    fits = emb <= _embeddedness(scales, positions, V_mask, grid.depth)
    fits &= _inside_cells(V_mask[(slice(N, 2 * N),) * d], scales, positions)
    offenders_a = [r for r, ok in zip(members, fits.tolist()) if not ok]
    sh_measure = collection.shadow_measure()
    v_measure = float(np.count_nonzero(V_mask)) * grid.weight
    b_ok = v_measure < (1.0 + eta) * sh_measure + 1e-12
    if offenders_a:
        raise JourneCheckError(f"{len(offenders_a)} rectangles violate Emb(R)*R inside V",
                               offenders_a)
    if not b_ok:
        raise JourneCheckError(f"|V| = {v_measure} exceeds (1+eta)|sh| = {(1 + eta) * sh_measure}",
                               [("measure", v_measure, sh_measure)])
    heap = norms._coefficient_heap(f, family, meyer)
    # a member's coefficient sits at 2^p + j on each axis; 0 for one finer than the book
    held = np.all((scales <= n) & (2 << scales <= heap.shape[0]), axis=0)
    c = np.zeros(len(members), dtype=heap.dtype)
    c[held] = heap[tuple((1 << scales[:, held]) + positions[:, held])]
    live = c != 0
    damped = norms._nonzero_book(scales[:, live], positions[:, live],
                                 c[live] * np.float_power(emb[live], -2.0 * d))
    lhs = np.sqrt(norms._max_union_ratio(damped, n)[0])
    book = norms._nonzero_book(*norms._coefficients(heap, d, depth))
    rhs = np.sqrt(norms._bmo_minus1(book, n)[0])
    return {"a_ok": True, "b_ok": True, "v_measure": v_measure, "shadow_measure": sh_measure,
            "lhs_bmo": lhs, "rhs_minus1": rhs, "K_eta": lhs / rhs if rhs > 0 else np.nan,
            "eta": eta}


def trivial_candidate(collection: RectangleCollection) -> tuple[np.ndarray, dict]:
    """Emb = 1 and V = sh(collection) on the padded window: satisfies the
    geometric conclusions with eta = 0 (and no damping)."""
    return (np.pad(collection.shadow_mask(), collection.grid.n_points),
            {r: 1.0 for r in collection.members})


# ---------------------------------------------------------------------------
# the Carleson-type family


def carleson_rectangles(n: int) -> list[DyadicRectangle]:
    """Nested corner chain anchored at (1/4, 1/4): the a-th member has sides
    2^{-a-2} x 2^{a-n-2}, a = 0..n; all have area 2^{-n-4} and share the
    anchor corner, so the union is a staircase of measure 2^{-n-5} (n+2)."""
    out = []
    for a in range(n + 1):
        i1 = DyadicInterval(-(a + 2), 1 << a)
        i2 = DyadicInterval(a - n - 2, 1 << (n - a))
        out.append(DyadicRectangle((i1, i2)))
    return out


def carleson_family(n: int, grid: Grid, seed: int = 0) -> tuple[Signal, dict]:
    """b_n = sum of eps_a w_{R_a} over the corner chain, with deterministic
    seeded signs; returns the signal and its coefficient book."""
    if grid.dim != 2:
        raise ValueError("carleson_family lives on d = 2")
    if grid.depth < n + 3:
        raise ValueError(f"need grid depth >= {n + 3} for the n = {n} family")
    rng = np.random.default_rng(np.random.Philox(key=np.uint64(seed)))
    rects = carleson_rectangles(n)
    signs = rng.integers(0, 2, size=len(rects)) * 2 - 1
    b = zeros(grid)
    book = {}
    for r, s in zip(rects, signs):
        b = b + float(s) * haar_tensor(r, grid)
        book[r] = float(s)
    return b, book


# ---------------------------------------------------------------------------
# the multiparameter lower-bound experiment


@dataclass
class SymbolDecomposition:
    alpha: Signal
    beta: Signal
    gamma: Signal
    collection: RectangleCollection
    damped_alpha: Signal
    slices: dict = field(default_factory=dict)  # embeddedness level -> Signal


def lower_bound_experiment(b: Signal, collection: RectangleCollection,
                           meyer: MeyerFamily) -> dict:
    """The alpha/beta/gamma chain for the Hankel lower bound.

    Normalizes b so the collection's analytic-coefficient mass equals the
    shadow measure, forms alpha (projection onto the collection), beta
    (rectangles inside V but outside the collection), gamma (the rest), and
    reports the norm chain together with the exact algebraic checks:
      * additivity b = alpha + beta + gamma (by construction),
      * ||H_beta alpha|| <= ||beta||_4 ||alpha||_4 (Cauchy-Schwarz),
      * the embeddedness slice table for H_gamma.
    The coefficients against the unit-normalized analytic tensors v_I (x) v_J
    come from one `MeyerFamily.analysis`; alpha, its damped form, beta and
    each slice are one synthesis each of a masked coefficient matrix.
    """
    grid = b.grid
    if grid.dim != 2:
        raise ValueError("lower_bound_experiment is two-dimensional")
    boxes = _box_arrays(collection.members, grid.dim)
    i1, i2 = np.array([[meyer.index(iv) for iv in r.coordinates] for r in collection.members],
                      dtype=int).reshape(-1, 2).T
    C = meyer.analysis(b.values, "v", normalized=True)
    mass = np.sum(np.abs(C[i1, i2]) ** 2)
    sh_measure = collection.shadow_measure()
    if mass <= 0:
        raise ValueError("collection carries no analytic coefficient mass")
    scale = np.sqrt(sh_measure / mass)
    b = scale * b
    C = C * scale

    U = collection.shadow_mask()
    V = enlarged_set(U, grid)
    emb = _embeddedness(*boxes, V, grid.depth)

    def synthesis(coefficients: np.ndarray) -> Signal:
        return Signal(grid, meyer.synthesis(coefficients, "v", normalized=True))

    def on_members(weights) -> np.ndarray:
        """C times weights on the collection, 0 elsewhere."""
        out = np.zeros_like(C)
        out[i1, i2] = C[i1, i2] * weights
        return out

    alpha = synthesis(on_members(1.0))
    damped = synthesis(on_members(emb ** (-2.0 * grid.dim)))

    # beta: the significant rectangles outside the collection whose cells all
    # lie in V; member k of the family is I(p, j) with 2^p + j = k + 1
    N, F = grid.n_points, len(meyer.intervals)
    index = np.indices((F, F)).reshape(2, -1) + 1
    p = np.frexp(index)[1] - 1
    inside_V = _inside_cells(V[N:2 * N, N:2 * N], p, index - (1 << p))
    keep = (inside_V & (norms._masses(C.ravel()) > 0)).reshape(F, F)
    keep[i1, i2] = False
    beta = synthesis(np.where(keep, C, 0.0))
    gamma = b - alpha - beta

    def hankel_apply(symbol: Signal, phi: Signal) -> Signal:
        return all_analytic_projection(Signal(grid, symbol.values * np.conj(phi.values)))

    h_b_alpha = hankel_apply(b, alpha)
    asq = Signal(grid, np.abs(alpha.values) ** 2 + 0j)
    p_asq = all_analytic_projection(asq)
    mean_removed = asq - Signal(grid, np.full(grid.shape, asq.mean()))
    alpha4 = lp_norm(alpha, 4)
    coeff_mass = np.sqrt(np.sum(np.abs(C[i1, i2]) ** 2))

    h_beta_alpha = hankel_apply(beta, alpha)
    beta4 = lp_norm(beta, 4)

    level = np.floor(np.log2(emb)).astype(int)
    slices = {int(lv): synthesis(on_members(level == lv)) for lv in np.unique(level)}
    slice_norms = {lv: hankel_apply(gamma, sl).norm2() for lv, sl in slices.items()}

    decomposition = SymbolDecomposition(alpha, beta, gamma, collection, damped, slices)
    additivity = float(np.max(np.abs((alpha + beta + gamma).values - b.values)))
    report = {
        "normalization_scale": float(scale),
        "shadow_measure": sh_measure,
        "coefficient_mass": float(coeff_mass),
        "H_b_alpha": h_b_alpha.norm2(),
        "P_plus_alpha_sq": p_asq.norm2(),
        "alpha_sq_mean_removed": mean_removed.norm2(),
        "alpha_4_sq": alpha4 ** 2,
        "alpha_2": alpha.norm2(),
        "symmetry_ratio": p_asq.norm2() / mean_removed.norm2() if mean_removed.norm2() > 0 else np.nan,
        "symmetry_reference": 2.0 ** (-grid.dim / 2.0),
        "H_beta_alpha": h_beta_alpha.norm2(),
        "beta_4_times_alpha_4": beta4 * alpha4,
        "beta_2": beta.norm2(),
        "gamma_2": gamma.norm2(),
        "additivity_defect": additivity,
        "embeddedness": {str(r): float(mu) for r, mu in zip(collection.members, emb)},
        "slice_norms": slice_norms,
        "decomposition": decomposition,
    }
    if h_beta_alpha.norm2() > beta4 * alpha4 * (1 + 1e-10) + 1e-12:
        raise AssertionError("Cauchy-Schwarz bound violated; numerical inconsistency")
    return report


def hankel_cases_1d(meyer: MeyerFamily, I: DyadicInterval, J: DyadicInterval) -> dict:
    """The scale trichotomy of P_+(v_I conj(v_J)) as mode-support arithmetic.

    Exactly zero when 8|J| < |I| (band difference stays negative); the whole
    product is analytic when 16|I| < |J|; in between both parts coexist.
    Products are taken by exact convolution of mode arrays, so the zero cases
    are bit-exact.
    """
    a_I = meyer.mode_array(I, "v")
    a_J = meyer.mode_array(J, "v")
    N = meyer.axis_grid.n_points
    # centered mode vectors (index - N/2 ... N/2 - 1 layout for convolution)
    cI = np.fft.fftshift(a_I)
    cJ = np.fft.fftshift(np.conj(a_J[np.array([(-k) % N for k in range(N)])]))
    conv = np.convolve(cI, cJ)
    # conv index m corresponds to mode m - (N - 2) ... two shifted sequences
    modes = np.arange(conv.size) + 2 * (-(N // 2))
    pos = conv[modes > 0]
    neg = conv[modes < 0]
    return {
        "positive_mass": float(np.linalg.norm(pos)),
        "negative_mass": float(np.linalg.norm(neg)),
        "pos_is_zero": bool(np.all(pos == 0)),
        "all_analytic": bool(np.all(neg == 0)),
    }
