"""Norm functionals: L^p, operator norm, and the BMO hierarchy.

The BMO functionals are quadratic forms on wavelet coefficients:

    value(U)^2 = |U|^{-1} * sum_{R subset U} |<b, w_R>|^2

with U ranging over dyadic intervals (dyadic BMO), dyadic rectangles
(rectangular BMO), arbitrary unions of finest cells (product BMO), or
shadows of one-parameter rectangle collections (the d-1 norm).  Each sup
has one exact solver: fine-to-coarse accumulation for the first two, the
same rectangular accumulation restricted to one shared side for the d-1
norm (a closed form), and for product BMO minimum cuts between the book's
rectangles and the boxes their sides cut out, with Dinkelbach's ratio
iteration, whose last cut certifies the value.  Product BMO's heuristic
mode runs that same solver and labels its value a lower bound.  A book
rectangle outside [0,1)^2 raises ValueError.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dyadic import (
    DyadicInterval,
    DyadicRectangle,
    Grid,
    RectangleCollection,
    Signal,
)
from . import transforms


class OperatorNormError(RuntimeError):
    def __init__(self, message, lower, upper):
        super().__init__(message)
        self.bracket = (lower, upper)


@dataclass
class OperatorMatrix:
    """Dense matrix with declared domain/codomain bases."""

    entries: np.ndarray
    domain_basis: tuple
    codomain_basis: tuple

    def __post_init__(self):
        self.entries = np.asarray(self.entries, dtype=complex)

    @property
    def shape(self):
        return self.entries.shape

    def compose(self, other: "OperatorMatrix") -> "OperatorMatrix":
        if self.domain_basis != other.codomain_basis:
            raise ValueError("basis mismatch in composition")
        return OperatorMatrix(self.entries @ other.entries, other.domain_basis, self.codomain_basis)

    def __matmul__(self, other):
        return self.compose(other)

    def adjoint(self) -> "OperatorMatrix":
        return OperatorMatrix(self.entries.conj().T, self.codomain_basis, self.domain_basis)

    def norm(self) -> float:
        return operator_norm(self)


# the largest dimension whose operator norm `operator_norm` takes from a dense SVD
_DENSE_SVD_MAX = 4096


def operator_norm(A, method: str = "auto", tol: float = 1e-10, max_iter: int = 10_000) -> float:
    """Largest singular value; dense SVD up to dimension 4096, else power iteration."""
    mat = A.entries if isinstance(A, OperatorMatrix) else np.asarray(A, dtype=complex)
    if mat.size == 0:
        return 0.0
    if method == "auto":
        method = "dense" if max(mat.shape) <= _DENSE_SVD_MAX else "power"
    if method == "dense":
        return float(np.linalg.svd(mat, compute_uv=False)[0])
    if method != "power":
        raise ValueError("method must be 'auto', 'dense' or 'power'")
    rng = np.random.default_rng(0)
    v = rng.standard_normal(mat.shape[1]) + 1j * rng.standard_normal(mat.shape[1])
    v /= np.linalg.norm(v)
    sigma = 0.0
    for _ in range(max_iter):
        w = mat.conj().T @ (mat @ v)
        new_sigma = float(np.sqrt(np.linalg.norm(w)))
        nw = np.linalg.norm(w)
        if nw == 0:
            return 0.0
        v = w / nw
        if abs(new_sigma - sigma) <= tol * max(new_sigma, 1e-300):
            return new_sigma
        sigma = new_sigma
    upper = float(np.sqrt(np.linalg.norm(mat, 1) * np.linalg.norm(mat, np.inf)))
    raise OperatorNormError(
        f"power iteration did not converge in {max_iter} steps", sigma, upper
    )


def operator_norms(mats: np.ndarray) -> np.ndarray:
    """`operator_norm` of each matrix of a stack (leading axis), the dense ones
    by one stacked SVD."""
    if mats.size == 0 or max(mats.shape[1:]) > _DENSE_SVD_MAX:
        return np.array([operator_norm(mat) for mat in mats])
    return np.linalg.svd(mats, compute_uv=False)[:, 0]


def lp_norm(f: Signal, p) -> float:
    if p == np.inf or p == "inf":
        return float(np.max(np.abs(f.values)))
    if p < 1:
        raise ValueError("p must be >= 1 or inf")
    return float((np.sum(np.abs(f.values) ** p) * f.grid.weight) ** (1.0 / p))


@dataclass
class BmoReport:
    """Value of a BMO-type sup, the witness achieving (or certifying) it,
    and whether the search was exhaustive."""

    value: float
    witness: object
    exactness: str  # "exact" | "lower_bound"
    family: str = "haar"
    detail: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# dyadic BMO (d = 1)


def bmo_dyadic(b: Signal) -> BmoReport:
    """sup over dyadic I of (|I|^-1 sum_{J subset I} |<b,h_J>|^2)^(1/2); exact."""
    if b.grid.dim != 1:
        raise ValueError("bmo_dyadic handles d = 1")
    best, p, j = _dyadic_bmo_squares(b.values[:, None], b.grid.depth)
    return BmoReport(np.sqrt(best[0]), DyadicInterval(-int(p[0]), int(j[0])), "exact", "haar")


def _dyadic_bmo_squares(values: np.ndarray, depth: int):
    """Squared dyadic BMO of each column of `values` (axis 0: the 2^depth
    samples of one signal), with the scale p and position j of the first
    interval attaining it, scales coarse to fine."""
    coeffs, _ = transforms._haar_pyramid_1d(values, depth)
    # mass[p][j] = sum of |c_J|^2 over J inside I(p, j), accumulated fine-to-coarse
    mass = {p: np.abs(c) ** 2 for p, c in coeffs.items()}
    for p in range(depth - 2, -1, -1):
        mass[p] = mass[p] + mass[p + 1].reshape(1 << p, 2, -1).sum(axis=1)
    cols = np.arange(values.shape[1])
    best = np.zeros(len(cols))
    at_p, at_j = np.zeros(len(cols), dtype=int), np.zeros(len(cols), dtype=int)
    for p in range(depth):
        vals = mass[p] * 2.0 ** p  # |I|^{-1} = 2^p
        j = np.argmax(vals, axis=0)
        top = vals[j, cols]
        wins = top > best
        best[wins], at_p[wins], at_j[wins] = top[wins], p, j[wins]
    return best, at_p, at_j


def bmo_dyadic_shift_average(b: Signal, shifts: int = 8) -> float:
    """Average of bmo_dyadic over circular grid shifts; a separate labeled
    output for comparing against translation-invariant BMO, never substituted
    for the plain dyadic norm."""
    N = b.grid.n_points
    shifted = np.stack([np.roll(b.values, s * (N // shifts)) for s in range(shifts)], axis=1)
    return float(np.mean(np.sqrt(_dyadic_bmo_squares(shifted, b.grid.depth)[0])))


# ---------------------------------------------------------------------------
# wavelet coefficient books for d = 2


def _haar_coefficient_book(b: Signal, depth: int | None) -> dict:
    """Map DyadicRectangle -> <b, h_R> for the wavelet rectangles resolvable
    on the grid whose coefficient is not exactly zero, optionally truncated
    to sides >= 2^-depth.  A missing rectangle has coefficient 0."""
    coeffs = transforms.haar_analysis(b)
    book = {}
    for (p1, p2), arr in coeffs.ww.items():
        if depth is not None and (p1 > depth or p2 > depth):
            continue
        for j1, j2 in zip(*np.nonzero(arr)):
            r = DyadicRectangle((DyadicInterval(-p1, int(j1)), DyadicInterval(-p2, int(j2))))
            book[r] = complex(arr[j1, j2])
    return book


def _meyer_coefficient_book(b: Signal, meyer, depth: int | None, kind: str = "w") -> dict:
    book = {}
    for r in meyer.rectangles():
        p1 = -r.coordinates[0].scale_exponent
        p2 = -r.coordinates[1].scale_exponent
        if depth is not None and (p1 > depth or p2 > depth):
            continue
        w = meyer.tensor(r, (kind, kind))
        book[r] = complex(b.inner(w))
    return book


def coefficient_book(b: Signal, family: str = "haar", meyer=None, depth: int | None = None) -> dict:
    if family == "haar":
        return _haar_coefficient_book(b, depth)
    if family == "meyer":
        if meyer is None:
            raise ValueError("pass the MeyerFamily for family='meyer'")
        return _meyer_coefficient_book(b, meyer, depth)
    raise ValueError("family must be 'haar' or 'meyer'")


# ---------------------------------------------------------------------------
# rectangular BMO


def _check_unit_square(rects) -> None:
    """ValueError unless every rectangle lies in [0,1)^2."""
    if not all(iv.in_unit_torus() for r in rects for iv in r.coordinates):
        raise ValueError("book rectangles must lie in [0,1)^2")


def _densest_rectangle(pairs, n: int, shared: int | None = None) -> tuple[float, object]:
    """max over dyadic rectangles T with sides >= 2^-n of |T|^-1 times the
    mass of the (rectangle, mass) pairs inside T, and the first T attaining
    it (None when every mass is 0).  With `shared` an axis, only rectangles
    whose side on that axis is T's own side count.

    Masses go on the rectangle lattice, one array per scale pair, and each
    target scale sums the blocks of every finer scale pair under it.
    """
    sides = np.array([[(-iv.scale_exponent, iv.position) for iv in r.coordinates]
                      for r, _ in pairs], dtype=np.int64).reshape(-1, 2, 2)
    mass = {}
    for ((p1, j1), (p2, j2)), (_, m) in zip(sides.tolist(), pairs):
        if (p1, p2) not in mass:
            mass[p1, p2] = np.zeros((1 << p1, 1 << p2))
        mass[p1, p2][j1, j2] += m
    best_val, best_rect = 0.0, None
    for q1 in range(n + 1):
        for q2 in range(n + 1):
            # total mass inside each rectangle of scale (q1, q2)
            tot = np.zeros((1 << q1, 1 << q2))
            for (p1, p2), arr in mass.items():
                if p1 < q1 or p2 < q2:
                    continue
                if shared is not None and (p1, p2)[shared] != (q1, q2)[shared]:
                    continue
                blk = arr.reshape(1 << q1, 1 << (p1 - q1), 1 << q2, 1 << (p2 - q2))
                tot += blk.sum(axis=(1, 3))
            tot *= 2.0 ** (q1 + q2)  # |T|^{-1}
            j = np.unravel_index(int(np.argmax(tot)), tot.shape)
            if tot[j] > best_val:
                best_val = float(tot[j])
                best_rect = DyadicRectangle(
                    (DyadicInterval(-q1, int(j[0])), DyadicInterval(-q2, int(j[1])))
                )
    return best_val, best_rect


def bmo_rect(b: Signal, family: str = "haar", meyer=None, depth: int | None = None,
             book: dict | None = None) -> BmoReport:
    """Product-BMO quadratic form with U ranging over dyadic rectangles; exact."""
    if b.grid.dim != 2:
        raise ValueError("bmo_rect handles d = 2")
    book = coefficient_book(b, family, meyer, depth) if book is None else book
    _check_unit_square(book)
    n = b.grid.depth if depth is None else depth
    best_val, best_rect = _densest_rectangle([(r, abs(c) ** 2) for r, c in book.items()], n)
    return BmoReport(np.sqrt(best_val), best_rect, "exact", family)


# ---------------------------------------------------------------------------
# product BMO


def _nonzero_masses(book: dict) -> list:
    """(rectangle, |c|^2) for every coefficient above 1e-12 of the largest;
    ValueError if any book rectangle, negligible or not, leaves [0,1)^2."""
    _check_unit_square(book)
    tol = 1e-12 * max([abs(c) for c in book.values()] + [1.0])
    return [(r, abs(c) ** 2) for r, c in book.items() if abs(c) > tol]


def _closure_source_side(supply: list, demand: list, boxes_of: list) -> list:
    """Maximum flow through the two-layer closure graph: s -> rectangle k
    (capacity supply[k]) -> every box of boxes_of[k] (infinite) -> t
    (capacity demand[a]).

    Returns, per box, whether it is reachable from s in the final residual
    graph: the box side of the minimal minimum s-t cut, which every maximum
    flow leaves the same.  A greedy pass first sends each rectangle's supply
    into its boxes in turn, rectangles with the fewest boxes first.  Then
    each breadth-first search of the residual graph (rectangles with supply
    left, their boxes, and back along positive flow to the rectangles that
    feed a box) augments along every path of its search tree that still
    has room at its end.  An augmentation subtracts the path's bottleneck
    from the bottleneck arc itself, which leaves it at exactly 0.
    """
    sup, dem = list(supply), list(demand)
    feed = [{} for _ in dem]  # feed[a][k] > 0: the flow on the arc k -> a
    for k in sorted(range(len(sup)), key=lambda k: len(boxes_of[k])):
        for a in boxes_of[k]:
            if sup[k] <= 0.0:
                break
            push = min(sup[k], dem[a])
            if push > 0.0:
                sup[k] -= push
                dem[a] -= push
                feed[a][k] = push
    source = len(dem)
    while True:
        came = [-1] * len(dem)  # the rectangle the search reached box a from
        via = [-1] * len(sup)  # the box it reached rectangle k from, or source
        queue = [k for k, left in enumerate(sup) if left > 0.0]
        for k in queue:
            via[k] = source
        ends = []
        for k in queue:  # the queue grows while it is read
            for a in boxes_of[k]:
                if came[a] < 0:
                    came[a] = k
                    if dem[a] > 0.0:
                        ends.append(a)
                    for k2 in feed[a]:
                        if via[k2] < 0:
                            via[k2] = a
                            queue.append(k2)
        if not ends:
            return [k >= 0 for k in came]
        for end in ends:
            forward, backward, a = [], [], end  # arcs k -> a gaining flow, a -> k losing it
            while True:
                k = came[a]
                forward.append((a, k))
                a = via[k]
                if a == source:
                    break
                backward.append((a, k))
            first = forward[-1][1]
            push = min([dem[end], sup[first]] + [feed[a].get(k, 0.0) for a, k in backward])
            if push <= 0.0:
                continue
            dem[end] -= push
            sup[first] -= push
            for a, k in forward:
                feed[a][k] = feed[a].get(k, 0.0) + push
            for a, k in backward:
                left = feed[a][k] - push
                if left > 0.0:
                    feed[a][k] = left
                else:
                    del feed[a][k]


def _max_union_ratio(masses: list, depth: int) -> tuple[float, np.ndarray, int]:
    """Exact sup over unions U of finest cells of |U|^-1 sum_{R inside U} m_R.

    The cut points of all rectangle sides split the square into boxes, and
    each rectangle is the block of boxes lo0:hi0 x lo1:hi1.  For a fixed lam,
    the best U maximises sum_{R inside U} m_R - lam |U|: a maximum-weight
    closure (taking R forces its boxes), solved by one s-t minimum cut
    (Picard 1976) of the two-layer graph s -> rectangles -> boxes -> t.
    Dinkelbach's iteration sets lam to the ratio of the last union and cuts
    again at lam (1 + 1e-12); the first cut that finds no better union
    certifies the current one.  The minimal optimal unions shrink as lam
    rises (Gallo, Grigoriadis and Tarjan 1989), so each cut after the first
    runs on the rectangles inside the last union only.  Returns (sup, cell
    mask of U, number of cuts) for masses from _nonzero_masses.
    """
    N = 1 << depth
    axis_grid = Grid(depth, 1)
    if not masses:
        return 0.0, np.zeros((N, N), dtype=bool), 0
    ranges = np.array([[iv.cell_range(axis_grid) for iv in r.coordinates] for r, _ in masses])
    cuts = [np.unique(np.append([0, N], ranges[:, axis])) for axis in (0, 1)]
    (lo0, hi0), (lo1, hi1) = (np.searchsorted(c, ranges[:, axis]).T for axis, c in enumerate(cuts))
    widths = [np.diff(c) for c in cuts]
    shape = (widths[0].size, widths[1].size)
    area = np.outer(*widths).ravel() / 4.0 ** depth
    m = np.array([mass for _, mass in masses])

    # the arcs rectangle -> box, by rectangle, each block of boxes row by row
    across, size = hi1 - lo1, (hi0 - lo0) * (hi1 - lo1)
    ends = np.cumsum(size)
    rect_arc = np.repeat(np.arange(len(m)), size)
    offset = np.arange(ends[-1]) - np.repeat(ends - size, size)
    row, col = np.divmod(offset, across[rect_arc])
    box_arc = (lo0[rect_arc] + row) * shape[1] + lo1[rect_arc] + col
    table = np.zeros((shape[0] + 1, shape[1] + 1), dtype=np.int64)  # a padded summed-area table

    def inside_union(chosen):  # the rectangles all of whose boxes lie in the union
        np.cumsum(np.cumsum(chosen.reshape(shape), axis=0), axis=1, out=table[1:, 1:])
        return table[hi0, hi1] - table[lo0, hi1] - table[hi0, lo1] + table[lo0, lo1] == size

    def ratio(chosen):  # cumsum: a plain running sum in book order, not np.sum's pairing
        return float(np.cumsum(m[inside_union(chosen)])[-1] / area[chosen].sum())

    boxes, bounds = box_arc.tolist(), [0] + ends.tolist()
    boxes_of = [boxes[i:j] for i, j in zip(bounds, bounds[1:])]
    chosen = np.bincount(box_arc, minlength=area.size) > 0  # the union of all rectangles
    value, n_cuts = ratio(chosen), 0
    while True:
        lam = value * (1.0 + 1e-12)
        keep = np.flatnonzero(inside_union(chosen))
        candidate = np.array(_closure_source_side(m[keep].tolist(), (lam * area).tolist(),
                                                  [boxes_of[k] for k in keep]))
        n_cuts += 1
        better = ratio(candidate) if candidate.any() else 0.0
        if better <= value:
            break  # no union beats value (1 + 1e-12): the certificate
        chosen, value = candidate, better
    mask = np.repeat(np.repeat(chosen.reshape(shape), widths[0], axis=0), widths[1], axis=1)
    return value, mask, n_cuts


def bmo_product(b: Signal, mode: str = "exact", family: str = "haar", meyer=None,
                depth: int | None = None, book: dict | None = None) -> BmoReport:
    """sup over unions of finest cells U of the product-BMO quadratic form.

    Minimum cuts with Dinkelbach's iteration (`_max_union_ratio`), no size
    limit; the witness is the optimal cell mask, whose own ratio is the
    value, and the last cut certifies it to 1e-12 relative.  Heuristic mode
    runs the same solver and labels the value `lower_bound`, which the exact
    value satisfies; the mode stays because callers report that labelled
    bound beside the exact value (the `carleson` experiment's heuristic
    column, criterion 10).
    """
    if b.grid.dim != 2:
        raise ValueError("bmo_product handles d = 2")
    if mode not in ("exact", "heuristic"):
        raise ValueError("mode must be 'exact' or 'heuristic'")
    book = coefficient_book(b, family, meyer, depth) if book is None else book
    n = b.grid.depth if depth is None else depth
    best_val, witness, cuts = _max_union_ratio(_nonzero_masses(book), n)
    return BmoReport(np.sqrt(best_val), witness, "exact" if mode == "exact" else "lower_bound",
                     family, {"search": "min-cut", "depth": n, "cuts": cuts})


def bmo_product_of_book(book: dict, depth: int) -> BmoReport:
    """Exact product BMO evaluated directly on a coefficient book (wavelet-family
    agnostic; used by the damped projections where the signal is synthetic),
    by the same minimum-cut solver as `bmo_product(mode="exact")`."""
    best_val, witness, cuts = _max_union_ratio(_nonzero_masses(book), depth)
    return BmoReport(np.sqrt(best_val), witness, "exact", "book",
                     {"search": "min-cut", "depth": depth, "cuts": cuts})


# ---------------------------------------------------------------------------
# BMO with one parameter lost


def bmo_minus1(b: Signal, family: str = "haar", meyer=None, depth: int | None = None,
               book: dict | None = None) -> BmoReport:
    """sup over collections sharing one coordinate interval of
    (|sh(U)|^-1 sum_{R in U} |<b,w_R>|^2)^(1/2); exact, in closed form.

    For rectangles I x K sharing I, the maximal K of U are disjoint and hold
    every other member, so the ratio of U is a mediant of the ratios of its
    parts under them; under I x J the best part takes every member inside.
    The sup is max over I x J of (sum_{K in J} m_{I x K}) / (|I| |J|): the
    rectangular accumulation counting only rectangles with side I on the
    shared axis, once per axis.  A J that is no member's side holds the
    maximal members under it in a set of at most its length, so it never
    beats them.  The witness is the members under the best I x J.
    """
    if b.grid.dim != 2:
        raise ValueError("bmo_minus1 handles d = 2")
    book = coefficient_book(b, family, meyer, depth) if book is None else book
    n = b.grid.depth if depth is None else depth
    nz = _nonzero_masses(book)
    best_val, best_members = 0.0, ()
    for axis in (0, 1):
        val, target = _densest_rectangle(nz, n, shared=axis)
        if val > best_val:
            best_val = val
            best_members = tuple(r for r, _ in nz if target.contains(r)
                                 and r.coordinates[axis] == target.coordinates[axis])
    witness = RectangleCollection(best_members, b.grid) if best_members else None
    return BmoReport(np.sqrt(best_val), witness, "exact", family)
