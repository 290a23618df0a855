"""Norm functionals: L^p, operator norm, and the BMO hierarchy.

The operator norm is exact, one values-only dense SVD, for matrices of side
up to _DENSE_SVD_MAX = 4096; a larger side raises ValueError before any SVD.

The BMO functionals are quadratic forms on wavelet coefficients:

    value(U)^2 = |U|^{-1} * sum_{R subset U} |<b, w_R>|^2

with U ranging over dyadic intervals (dyadic BMO), dyadic rectangles
(rectangular BMO), arbitrary unions of finest cells (product BMO), or
shadows of one-parameter rectangle collections (the d-1 norm).  The first
two sups are one problem, the densest dyadic box of a coefficient book, and
the d-1 norm is its closed form that counts only the boxes sharing the
target's side on one axis: one fine-to-coarse accumulation (`_densest_box`)
solves all three, a stack of books at once.  Product BMO takes minimum cuts
between the book's boxes and the boxes their sides cut out, with
Dinkelbach's ratio iteration, whose last cut certifies the value; it starts
from the members of the densest dyadic box when they beat the union of all
boxes, and its heuristic mode runs that same solver and labels its value a
lower bound.  Coefficient books are d-axis arrays of scales, positions and
masses (`_Book`), read off the nonzero entries of one heap-ordered
coefficient array for Haar and Meyer alike (a stack's book: the boxes
nonzero in some book), and every sup drops the same negligible ones
(`_masses`, shared by the lower bound); `coefficient_book` alone builds
a dict book.  Rectangles from outside (a dict `book=`, `journe`'s R and
collections) become boxes through one door, `_box_arrays`, which raises
ValueError for one of another dimension or outside [0,1)^d.  A depth
outside 0..b.grid.depth raises ValueError at once.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .dyadic import (
    DyadicInterval,
    DyadicRectangle,
    Grid,
    RectangleCollection,
    ResolutionError,
    Signal,
)
from . import transforms


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


# the largest side of a matrix whose operator norm is taken, by a dense SVD
_DENSE_SVD_MAX = 4096


def operator_norm(A) -> float:
    """Largest singular value, exact: `operator_norms` of the one matrix."""
    mat = A.entries if isinstance(A, OperatorMatrix) else np.asarray(A, dtype=complex)
    return float(operator_norms(mat))


def operator_norms(mats: np.ndarray) -> np.ndarray:
    """Largest singular value of each matrix of a stack (leading axes), exact,
    by one values-only dense SVD of the stack; ValueError before any SVD when
    a side exceeds _DENSE_SVD_MAX."""
    if max(mats.shape[-2:]) > _DENSE_SVD_MAX:
        raise ValueError(f"operator norm of a {mats.shape[-2:]} matrix: a side is above the "
                         f"dense-SVD cap {_DENSE_SVD_MAX} (a 4096^2 values-only SVD takes 64.6 s)")
    if mats.size == 0:
        return np.zeros(mats.shape[:-2])
    return np.linalg.svd(mats, compute_uv=False)[..., 0]


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
# coefficient books and the densest dyadic box


def _depth(b: Signal, depth: int | None) -> int:
    """b's grid's depth, or `depth` when it lies in 0..b.grid.depth (ValueError otherwise)."""
    if depth is not None and not 0 <= depth <= b.grid.depth:
        raise ValueError(f"depth must lie in 0..{b.grid.depth}, the depth of b's grid; got {depth}")
    return b.grid.depth if depth is None else depth


def _coefficient_heap(b: Signal, family: str, meyer) -> np.ndarray:
    """b's coefficients in `_coefficients`'s layout: its Haar transform, or its
    Meyer coefficient matrix shifted one place on each axis (member
    2^p - 1 + j to 2^p + j), which needs b on the family's 2-D grid.  The
    one coefficient pass behind every book of a signal."""
    if family == "haar":
        return transforms._haar_transform(b.values, b.grid.dim)
    if family != "meyer":
        raise ValueError("family must be 'haar' or 'meyer'")
    if meyer is None:
        raise ValueError("pass the MeyerFamily for family='meyer'")
    grid = Grid(meyer.axis_grid.depth, 2)
    if b.grid != grid:
        raise ValueError(f"a Meyer book needs a signal on the family's {grid}, not on {b.grid}")
    return np.pad(meyer.analysis(b.values), ((1, 0), (1, 0)))


def _coefficients(heap: np.ndarray, d: int, depth: int | None) -> tuple:
    """(scales, positions, c) of the boxes of sides >= 2^-depth of a heap (axes
    0..d-1 hold I(p, j) at 2^p + j, the mean at 0; trailing axes: a stack of
    books) that are nonzero in some book: (d, K) arrays in book order (scale
    tuples descending, axis 0 slowest, positions row-major) and their
    coefficients (leading axis: the boxes), read off those entries alone,
    each index's scale from its bit length."""
    finest = heap.shape[0].bit_length() - 2
    top = finest if depth is None else min(depth, finest)
    boxes = heap[(slice(1, 2 << top),) * d]  # the mean slots left out
    index = np.array(np.nonzero(np.any(boxes != 0, axis=tuple(range(d, heap.ndim))))) + 1
    scales = np.frexp(index)[1].astype(np.int64) - 1
    order = np.lexsort(-scales[::-1])  # stable: row-major positions within a scale tuple
    index, scales = index[:, order], scales[:, order]
    return scales, index - (1 << scales), heap[tuple(index)]


def coefficient_book(b: Signal, family: str = "haar", meyer=None, depth: int | None = None) -> dict:
    """Map DyadicRectangle -> <b, w_R> over the family's rectangles with
    sides >= 2^-depth whose coefficient is not exactly zero, in book order:
    the one place a dict book is built (the sups take it through `book=`)."""
    _depth(b, depth)
    scales, positions, coef = _coefficients(_coefficient_heap(b, family, meyer), b.grid.dim, depth)
    return dict(zip(_rectangles(scales, positions), coef.tolist()))


class _Book(NamedTuple):
    """A coefficient book as arrays in book order: box k is the product over
    the axes a of I(scales[a, k], positions[a, k]), where
    I(p, j) = [j 2^-p, (j+1) 2^-p), and mass[..., k] is its |c|^2 (leading
    axes: books on the same boxes)."""

    scales: np.ndarray  # (d, K)
    positions: np.ndarray  # (d, K)
    mass: np.ndarray

    def select(self, keep) -> "_Book":
        return _Book(*(a[..., keep] for a in self))


def _masses(coef: np.ndarray) -> np.ndarray:
    """|c|^2 of each coefficient, rounded as Python's abs(c) ** 2: hypot, then
    pow (np.abs and np.square each differ from those in the last bit on some
    entries); 0, the one significance rule of every sup, wherever |c| is at
    most 1e-12 of the largest |c| along the last axis, or of 1.0 if larger."""
    size = np.hypot(coef.real, coef.imag)
    tol = 1e-12 * np.maximum(size.max(axis=-1, keepdims=True, initial=0.0), 1.0)
    return np.float_power(np.where(size > tol, size, 0.0), 2.0)


def _haar_book(values: np.ndarray, d: int, depth: int | None) -> _Book:
    """The Haar boxes of `values` (axes 0..d-1; trailing axes: a stack of
    signals) nonzero in some signal, as a book of `_masses` (leading axes: the signals)."""
    scales, positions, coef = _coefficients(transforms._haar_transform(values, d), d, depth)
    return _Book(scales, positions, _masses(np.moveaxis(coef, 0, -1)))


def _nonzero_book(scales: np.ndarray, positions: np.ndarray, coef: np.ndarray) -> _Book:
    """The boxes of one set of coefficients whose mass (`_masses`) is not 0."""
    mass = _masses(coef)
    keep = mass > 0
    return _Book(scales[:, keep], positions[:, keep], mass[keep])


def _array_book(book: dict, d: int) -> _Book:
    """A dict book (DyadicRectangle -> coefficient) as a `_nonzero_book`,
    every rectangle, kept or not, through `_box_arrays`."""
    return _nonzero_book(*_box_arrays(book, d), np.array(list(book.values()), dtype=complex))


def _book_of(b: Signal, family: str, meyer, depth: int | None, book: dict | None) -> _Book:
    """The `_nonzero_book` of b's coefficients, or of the dict `book` when given."""
    if book is None:
        heap = _coefficient_heap(b, family, meyer)
        return _nonzero_book(*_coefficients(heap, b.grid.dim, depth))
    return _array_book(book, b.grid.dim)


def _rectangles(scales: np.ndarray, positions: np.ndarray) -> list:
    """The DyadicRectangles of the boxes of (d, K) arrays of scales and positions."""
    return [DyadicRectangle(tuple(map(DyadicInterval, q, t)))
            for q, t in zip((-scales).T.tolist(), positions.T.tolist())]


def _box_arrays(rects, d: int) -> tuple[np.ndarray, np.ndarray]:
    """The (d, K) arrays of scales and positions of DyadicRectangles, the
    inverse of `_rectangles`: the one door by which rectangles from outside
    become boxes, ValueError for one without d axes or outside [0,1)^d."""
    for r in rects:
        if r.dim != d or not all(iv.in_unit_torus() for iv in r.coordinates):
            raise ValueError(f"R must be a rectangle in [0,1)^{d}; got {r} of dimension {r.dim} "
                             f"for a signal of dimension {d}: rectangles must lie in [0,1)^{d}")
    sides = np.array([(-iv.scale_exponent, iv.position) for r in rects for iv in r.coordinates],
                     dtype=np.int64).reshape(len(rects), d, 2)
    return sides[..., 0].T, sides[..., 1].T


def _inside(book: _Book, scales: np.ndarray, positions: np.ndarray) -> np.ndarray:
    """Which book boxes lie inside the box of the given scales and positions."""
    q, t = scales[:, None], positions[:, None]
    return np.all((book.scales >= q) & (book.positions >> np.maximum(book.scales - q, 0) == t),
                  axis=0)


def _densest_box(book: _Book, n: int, shared: int | None = None) -> tuple:
    """max over dyadic boxes T with sides >= 2^-n of |T|^-1 times the mass of
    the book boxes inside T, and the first T attaining it, scales then
    positions ascending: (value, T's scales, T's positions as (d,) arrays,
    all 0 when every mass is 0), for each book of a stack (leading axes of
    the mass) at once.  With `shared` an axis, only book boxes whose side on
    that axis is T's own side count.

    Masses go on the box lattice, each axis in heap order (scale p at
    2^p - 1 .. 2^(p+1) - 2, so the halves of i are 2i + 1 and 2i + 2), the
    stack's axes trailing.  One pass per axis that is not shared adds to
    each scale, fine to coarse, the pair sums of the next finer one: O(d n)
    array operations.  The block maxima of the scale tuples pick T.
    """
    d, stack = book.scales.shape[0], book.mass.shape[:-1]
    top = int(book.scales.max(initial=0))  # the finest book scale
    n = min(n, top)  # a T finer than every book box holds none
    H, S = (2 << top) - 1, math.prod(stack)
    at = np.ravel_multi_index((1 << book.scales) - 1 + book.positions, (H,) * d) * S
    acc = np.bincount((at + np.arange(S)[:, None]).ravel(), weights=book.mass.ravel(),
                      minlength=H ** d * S).reshape((H,) * d + stack)
    for axis in (a for a in range(d) if a != shared):
        lattice = acc.swapaxes(0, axis)
        for p in range(top - 1, -1, -1):  # scale p: lo:hi; scale p + 1: hi:2 hi + 1
            lo, hi = (1 << p) - 1, (2 << p) - 1
            lattice[lo:hi] += lattice[hi:2 * hi + 1:2] + lattice[hi + 1:2 * hi + 1:2]
    starts = (1 << np.arange(n + 2)) - 1
    block_max = acc[(slice(0, starts[-1]),) * d]
    for axis in range(d):
        block_max = np.maximum.reduceat(block_max, starts[:-1], axis=axis)
    tuples = np.indices((n + 1,) * d).reshape(d, -1)  # the scale tuple of each block, row-major
    density = block_max.reshape(-1, S) * 2.0 ** tuples.sum(axis=0)[:, None]  # times |T|^-1
    first = np.argmax(density, axis=0)
    scales, positions = tuples[:, first].T, np.zeros((S, d), dtype=np.int64)
    acc = acc.reshape((H,) * d + (S,))
    for t in set(first.tolist()):  # the stack members whose T has the scales of block t
        won = first == t
        block = acc[tuple(slice(starts[p], starts[p + 1]) for p in tuples[:, t])][..., won]
        at = np.argmax(block.reshape(-1, block.shape[-1]), axis=0)
        positions[won] = np.array(np.unravel_index(at, block.shape[:-1])).T
    value = density[first, np.arange(S)].reshape(stack)
    return value, scales.reshape(stack + (d,)), positions.reshape(stack + (d,))


# ---------------------------------------------------------------------------
# dyadic BMO (d = 1)


def bmo_dyadic(b: Signal) -> BmoReport:
    """sup over dyadic I of (|I|^-1 sum_{J subset I} |<b,h_J>|^2)^(1/2); exact."""
    if b.grid.dim != 1:
        raise ValueError("bmo_dyadic handles d = 1")
    value, (p,), (j,) = _densest_box(_haar_book(b.values, 1, None), b.grid.depth)
    return BmoReport(np.sqrt(float(value)), DyadicInterval(-int(p), int(j)), "exact", "haar")


# ---------------------------------------------------------------------------
# rectangular BMO


def bmo_rect(b: Signal, family: str = "haar", meyer=None, depth: int | None = None,
             book: dict | None = None) -> BmoReport:
    """Product-BMO quadratic form with U ranging over dyadic rectangles; exact."""
    n = _depth(b, depth)
    value, scales, positions = _densest_box(_book_of(b, family, meyer, depth, book), n)
    witness = _rectangles(scales[:, None], positions[:, None])[0] if value > 0.0 else None
    return BmoReport(np.sqrt(float(value)), witness, "exact", family)


# ---------------------------------------------------------------------------
# product BMO


def _closure_source_side(supply: list, demand: list, boxes_of: list, order: list) -> list:
    """Maximum flow through the two-layer closure graph: s -> rectangle k
    (capacity supply[k]) -> every box of boxes_of[k] (infinite) -> t
    (capacity demand[a]).

    Returns, per box, whether it is reachable from s in the final residual
    graph: the box side of the minimal minimum s-t cut, which every maximum
    flow leaves the same.  A greedy pass first sends each rectangle's supply
    into its boxes in turn, rectangles in `order` (fewest boxes first, from
    the caller, who knows the box counts once per stack).  Then each
    breadth-first search of the residual graph (rectangles with supply left,
    their boxes, and back along positive flow to the rectangles that feed a
    box) augments along every path of its search tree that still has room
    at its end.  An augmentation subtracts the path's bottleneck
    from the bottleneck arc itself, which leaves it at exactly 0.
    """
    sup, dem = list(supply), list(demand)
    feed = [{} for _ in dem]  # feed[a][k] > 0: the flow on the arc k -> a
    for k in order:
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


class _Boxes:
    """The minimum-cut set-up of a set of boxes on the 2^depth x ... x 2^depth
    cells, shared by every book on those boxes.

    The cut points of all book box sides split each axis into ranges, and
    the cells into the product grid of those ranges, the cut boxes; each
    book box is the block lo[a]:hi[a] on axis a, its ranges read off (p, j).
    The arcs book box -> cut box go by book box, each block row-major.
    ResolutionError for a book box finer than depth.
    """

    def __init__(self, book: _Book, depth: int):
        finest = int(book.scales.max(initial=0))
        if finest > depth:
            raise ResolutionError(f"a book rectangle of side 2^-{finest} is below "
                                  f"resolution 2^-{depth}")
        d, shift = book.scales.shape[0], depth - book.scales
        lo, hi = book.positions << shift, (book.positions + 1) << shift
        cuts = [np.unique(np.concatenate([[0, 1 << depth], *ends])) for ends in zip(lo, hi)]
        span = np.array([[np.searchsorted(c, x) for c, x in zip(cuts, e)] for e in (lo, hi)])
        lo, hi = span  # each block's first and past-the-end cut box on each axis
        self.widths = [np.diff(c) for c in cuts]
        self.shape = tuple(w.size for w in self.widths)
        self.area = functools.reduce(np.multiply.outer, self.widths).ravel() / 2.0 ** (d * depth)
        extent = hi - lo
        self.size = math.prod(extent)
        ends = np.cumsum(self.size)
        self.rect_arc = np.repeat(np.arange(self.size.size), self.size)
        rest = np.arange(ends[-1]) - np.repeat(ends - self.size, self.size)  # row-major per block
        index = []
        for axis in range(d - 1, 0, -1):  # mixed radix, the last axis fastest
            rest, within = np.divmod(rest, extent[axis, self.rect_arc])
            index.insert(0, lo[axis, self.rect_arc] + within)
        self.box_arc = np.ravel_multi_index([lo[0, self.rect_arc] + rest] + index, self.shape)
        boxes, bounds = self.box_arc.tolist(), [0] + ends.tolist()
        self.boxes_of = [boxes[i:j] for i, j in zip(bounds, bounds[1:])]
        # a padded summed-volume table, and the 2^d corners of each block with their signs
        self.table = np.zeros(tuple(s + 1 for s in self.shape), dtype=np.int64)
        self.corners = [((-1) ** c.count(0), tuple(span[end, a] for a, end in enumerate(c)))
                        for c in itertools.product((0, 1), repeat=d)]

    def union(self, rects: np.ndarray) -> np.ndarray:
        """The cut boxes of the book boxes selected by the mask `rects`."""
        return np.bincount(self.box_arc[rects[self.rect_arc]], minlength=self.area.size) > 0

    def inside_union(self, chosen: np.ndarray) -> np.ndarray:
        """The book boxes all of whose cut boxes lie in the union `chosen`:
        the count of chosen cut boxes in each block, read off the summed-volume
        table at the block's 2^d corners by inclusion and exclusion."""
        volume = chosen.reshape(self.shape)
        for axis in range(volume.ndim):
            volume = np.cumsum(volume, axis=axis)
        self.table[(slice(1, None),) * volume.ndim] = volume
        return sum(sign * self.table[corner] for sign, corner in self.corners) == self.size


def _max_union_ratio(book: _Book, depth: int,
                     boxes: _Boxes | None = None) -> tuple[float, np.ndarray, int, str]:
    """Exact sup over unions U of finest cells of |U|^-1 sum_{R inside U} m_R.

    For a fixed lam, the best U maximises sum_{R inside U} m_R - lam |U|: a
    maximum-weight closure (taking R forces its boxes), solved by one s-t
    minimum cut (Picard 1976) of the two-layer graph s -> rectangles ->
    boxes -> t.  Dinkelbach's iteration sets lam to the ratio of the last
    union and cuts again at lam (1 + 1e-12); the first cut that finds no
    better union certifies the current one.  It starts from the better of
    two unions: that of all rectangles, and that of the rectangles inside
    the densest dyadic rectangle (`_densest_box`), which is nearly
    always optimal for Nehari symbols, so one cut certifies it.  The first
    cut runs on every rectangle; the minimal optimal unions shrink as lam
    rises (Gallo, Grigoriadis and Tarjan 1989), so each later cut runs on
    the rectangles inside the last union only.  Rectangles of mass 0 take
    no part beyond cutting boxes.  `boxes` is the set-up of the book's
    rectangles when one is already built (a stack of books on the same
    rectangles).  Returns (sup, cell mask of U, number of cuts, the start:
    "rectangle" or "union").
    """
    m = book.mass
    live = m > 0
    if not live.any():
        return 0.0, np.zeros((1 << depth,) * book.scales.shape[0], dtype=bool), 0, "union"
    boxes = _Boxes(book, depth) if boxes is None else boxes

    def ratio(chosen):  # cumsum: a plain running sum in book order, not np.sum's pairing
        return float(np.cumsum(m[boxes.inside_union(chosen)])[-1] / boxes.area[chosen].sum())

    chosen, start = boxes.union(live), "union"
    value = ratio(chosen)
    inner = boxes.union(live & _inside(book, *_densest_box(book, depth)[1:]))
    inner_value = ratio(inner)
    if inner_value > value:
        chosen, value, start = inner, inner_value, "rectangle"
    keep, n_cuts = np.flatnonzero(live), 0
    while True:
        lam = value * (1.0 + 1e-12)
        order = np.argsort(boxes.size[keep], kind="stable").tolist()
        candidate = np.array(_closure_source_side(m[keep].tolist(), (lam * boxes.area).tolist(),
                                                  [boxes.boxes_of[k] for k in keep], order))
        n_cuts += 1
        better = ratio(candidate) if candidate.any() else 0.0
        if better <= value:
            break  # no union beats value (1 + 1e-12): the certificate
        chosen, value = candidate, better
        keep = np.flatnonzero(live & boxes.inside_union(chosen))
    mask = chosen.reshape(boxes.shape)
    for axis, widths in enumerate(boxes.widths):
        mask = np.repeat(mask, widths, axis=axis)
    return value, mask, n_cuts, start


def bmo_product(b: Signal, mode: str = "exact", family: str = "haar", meyer=None,
                depth: int | None = None, book: dict | None = None) -> BmoReport:
    """sup over unions of finest cells U of the product-BMO quadratic form.

    Minimum cuts with Dinkelbach's iteration (`_max_union_ratio`), started
    from the better of the union of all rectangles and the densest dyadic
    rectangle's members, no size limit; the witness is the optimal cell
    mask, whose own ratio is the value, and the last cut certifies it to
    1e-12 relative.  `detail` records the cuts and the start.  Heuristic
    mode runs the same solver and labels the value `lower_bound`, which the
    exact value satisfies; the mode stays because callers report that
    labelled bound beside the exact value (the `carleson` experiment's
    heuristic column, criterion 10).
    """
    if mode not in ("exact", "heuristic"):
        raise ValueError("mode must be 'exact' or 'heuristic'")
    n = _depth(b, depth)
    value, witness, cuts, start = _max_union_ratio(_book_of(b, family, meyer, depth, book), n)
    return BmoReport(np.sqrt(value), witness, "exact" if mode == "exact" else "lower_bound",
                     family, {"search": "min-cut", "depth": n, "cuts": cuts, "start": start})


# ---------------------------------------------------------------------------
# BMO with one parameter lost


def _bmo_minus1(book: _Book, n: int) -> tuple[float, _Book]:
    """`bmo_minus1`'s sup squared on a d = 2 book, and the members under its best I x J."""
    # The mediant closed form needs the other side to be one-parameter: in
    # d >= 3 the maximal other sides are boxes, which need not be disjoint.
    if book.scales.shape[0] != 2:
        raise ValueError("bmo_minus1 handles d = 2")
    best_val, best = 0.0, book.select(slice(0, 0))
    for axis in (0, 1):
        val, scales, positions = _densest_box(book, n, shared=axis)
        if val > best_val:
            best_val = float(val)
            best = book.select(_inside(book, scales, positions) & (book.scales[axis] == scales[axis]))
    return best_val, best


def bmo_minus1(b: Signal, family: str = "haar", meyer=None, depth: int | None = None,
               book: dict | None = None) -> BmoReport:
    """sup over collections sharing one coordinate interval of
    (|sh(U)|^-1 sum_{R in U} |<b,w_R>|^2)^(1/2); exact, in closed form.

    For rectangles I x K sharing I, the maximal K of U are disjoint and hold
    every other member, so the ratio of U is a mediant of the ratios of its
    parts under them; under I x J the best part takes every member inside.
    The sup is max over I x J of (sum_{K in J} m_{I x K}) / (|I| |J|): the
    rectangular accumulation counting only rectangles with side I on the
    shared axis, once per axis (`_bmo_minus1`).  A J that is no member's
    side holds the maximal members under it in a set of at most its length,
    so it never beats them.  The witness is the members under the best I x J.
    """
    n = _depth(b, depth)
    value, best = _bmo_minus1(_book_of(b, family, meyer, depth, book), n)
    members = tuple(_rectangles(best.scales, best.positions))
    witness = RectangleCollection(members, b.grid) if members else None
    return BmoReport(np.sqrt(value), witness, "exact", family)
