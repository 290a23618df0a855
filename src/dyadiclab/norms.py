"""Norm functionals: L^p, operator norm, and the BMO hierarchy.

The BMO functionals are quadratic forms on wavelet coefficients:

    value(U)^2 = |U|^{-1} * sum_{R subset U} |<b, w_R>|^2

with U ranging over dyadic intervals (dyadic BMO), dyadic rectangles
(rectangular BMO), arbitrary unions of finest cells (product BMO), or
shadows of one-parameter rectangle collections (the d-1 norm).  Each sup
has one exact solver: fine-to-coarse accumulation for the first two, the
same rectangular accumulation restricted to one shared side for the d-1
norm (a closed form), and minimum cuts with Dinkelbach's ratio iteration
for product BMO, whose last cut certifies the value.  Product BMO's
heuristic mode runs that same solver and labels its value a lower bound.
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


def operator_norm(A, method: str = "auto", tol: float = 1e-10, max_iter: int = 10_000) -> float:
    """Largest singular value; dense SVD up to dimension 4096, else power iteration."""
    mat = A.entries if isinstance(A, OperatorMatrix) else np.asarray(A, dtype=complex)
    if mat.size == 0:
        return 0.0
    if method == "auto":
        method = "dense" if max(mat.shape) <= 4096 else "power"
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
    coeffs = transforms.haar_analysis(b)
    n = b.grid.depth
    # mass[p][j] = sum of |c_J|^2 over J inside I(p, j), accumulated fine-to-coarse
    mass = {p: np.abs(coeffs.wavelet[p]) ** 2 for p in range(n)}
    for p in range(n - 2, -1, -1):
        children = mass[p + 1].reshape(-1, 2).sum(axis=1)
        mass[p] = mass[p] + children
    best_val, best_iv = 0.0, DyadicInterval(0, 0)
    for p in range(n):
        vals = mass[p] * 2.0 ** p  # |I|^{-1} = 2^p
        j = int(np.argmax(vals))
        if vals[j] > best_val:
            best_val, best_iv = float(vals[j]), DyadicInterval(-p, j)
    return BmoReport(np.sqrt(best_val), best_iv, "exact", "haar")


def bmo_dyadic_shift_average(b: Signal, shifts: int = 8) -> float:
    """Average of bmo_dyadic over circular grid shifts; a separate labeled
    output for comparing against translation-invariant BMO, never substituted
    for the plain dyadic norm."""
    N = b.grid.n_points
    vals = []
    for s in range(shifts):
        shifted = Signal(b.grid, np.roll(b.values, s * (N // shifts)))
        vals.append(bmo_dyadic(shifted).value)
    return float(np.mean(vals))


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


def _book_from_args(b, family, meyer, depth, book):
    if book is not None:
        return book
    return coefficient_book(b, family, meyer, depth)


# ---------------------------------------------------------------------------
# rectangular BMO


def _densest_rectangle(pairs, n: int, shared: int | None = None) -> tuple[float, object]:
    """max over dyadic rectangles T with sides >= 2^-n of |T|^-1 times the
    mass of the (rectangle, mass) pairs inside T, and the first T attaining
    it (None when every mass is 0).  With `shared` an axis, only rectangles
    whose side on that axis is T's own side count.

    Masses go on the rectangle lattice, one array per scale pair, and each
    target scale sums the blocks of every finer scale pair under it.
    """
    mass = {}
    for r, m in pairs:
        p1 = -r.coordinates[0].scale_exponent
        p2 = -r.coordinates[1].scale_exponent
        key = (p1, p2)
        if key not in mass:
            mass[key] = np.zeros((1 << p1, 1 << p2))
        mass[key][r.coordinates[0].position, r.coordinates[1].position] += m
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
    book = _book_from_args(b, family, meyer, depth, book)
    n = b.grid.depth if depth is None else depth
    best_val, best_rect = _densest_rectangle([(r, abs(c) ** 2) for r, c in book.items()], n)
    return BmoReport(np.sqrt(best_val), best_rect, "exact", family)


# ---------------------------------------------------------------------------
# product BMO


def _nonzero_masses(book: dict) -> list:
    """(rectangle, |c|^2) for every coefficient above 1e-12 of the largest."""
    tol = 1e-12 * max([abs(c) for c in book.values()] + [1.0])
    return [(r, abs(c) ** 2) for r, c in book.items() if abs(c) > tol]


def _min_cut_source_side(n_nodes: int, arcs: list, s: int, t: int) -> list:
    """Dinic's maximum flow on float capacities, iterative (no recursion).

    Returns, per node, whether it is reachable from s in the final residual
    graph: the source side of a minimum s-t cut.  An augmentation subtracts
    the path's bottleneck from the bottleneck arc itself, which leaves it at
    exactly 0, so each phase ends and at most n_nodes phases run.
    """
    to, cap, adj = [], [], [[] for _ in range(n_nodes)]
    for u, v, c in arcs:  # arc 2i and its reverse 2i + 1
        adj[u].append(len(to))
        adj[v].append(len(to) + 1)
        to += [v, u]
        cap += [c, 0.0]
    while True:
        level = [-1] * n_nodes
        level[s] = 0
        queue = [s]
        for u in queue:
            for e in adj[u]:
                if cap[e] > 0 and level[to[e]] < 0:
                    level[to[e]] = level[u] + 1
                    queue.append(to[e])
        if level[t] < 0:
            return [lv >= 0 for lv in level]
        ptr = [0] * n_nodes
        path, u = [], s
        while True:
            if u == t:
                f = min(cap[e] for e in path)
                for e in path:
                    cap[e] -= f
                    cap[e ^ 1] += f
                k = next(i for i, e in enumerate(path) if cap[e] <= 0)
                del path[k:]
                u = to[path[-1]] if path else s
                continue
            edges = adj[u]
            while ptr[u] < len(edges):
                e = edges[ptr[u]]
                if cap[e] > 0 and level[to[e]] == level[u] + 1:
                    break
                ptr[u] += 1
            if ptr[u] < len(edges):
                path.append(edges[ptr[u]])
                u = to[path[-1]]
            elif u == s:
                break
            else:
                level[u] = -1  # dead end for the rest of this phase
                u = to[path.pop() ^ 1]
                ptr[u] += 1


def _max_union_ratio(masses: list, depth: int) -> tuple[float, np.ndarray, int]:
    """Exact sup over unions U of finest cells of |U|^-1 sum_{R inside U} m_R.

    The cut points of all rectangle sides split the square into boxes; boxes
    lying in exactly the same rectangles form one atom.  For a fixed lam, the
    best U maximises sum_{R inside U} m_R - lam |U|: a maximum-weight closure
    (taking R forces its atoms), solved by one s-t minimum cut (Picard 1976).
    Dinkelbach's iteration sets lam to the ratio of the last union and cuts
    again at lam (1 + 1e-12); the first cut that finds no better union
    certifies the current one.  Returns (sup, cell mask of U, number of cuts).
    """
    N = 1 << depth
    axis_grid = Grid(depth, 1)
    if not masses:
        return 0.0, np.zeros((N, N), dtype=bool), 0
    ranges = [[iv.cell_range(axis_grid) for iv in r.coordinates] for r, _ in masses]
    cuts = [np.unique([0, N] + [x for rr in ranges for x in rr[axis]]) for axis in (0, 1)]
    inside = np.zeros((cuts[0].size - 1, cuts[1].size - 1, len(masses)), dtype=bool)
    for k, rr in enumerate(ranges):
        (a0, a1), (b0, b1) = (np.searchsorted(c, r) for c, r in zip(cuts, rr))
        inside[a0:a1, b0:b1, k] = True
    widths = [np.diff(c) for c in cuts]
    flat = inside.reshape(-1, len(masses))
    covered = np.flatnonzero(flat.any(axis=1))
    _, first, atom_of = np.unique(np.packbits(flat[covered], axis=1), axis=0,
                                  return_index=True, return_inverse=True)
    atom_of = atom_of.ravel()
    member = flat[covered[first]]  # member[a, k]: atom a lies in rectangle k
    area = np.bincount(atom_of, np.outer(*widths).ravel()[covered]) / 4.0 ** depth
    m = np.array([mass for _, mass in masses])

    def ratio(chosen):  # cumsum: a plain running sum in book order, not np.sum's pairing
        inside_u = ~(member & ~chosen[:, None]).any(axis=0)
        return float(np.cumsum(m[inside_u])[-1] / area[chosen].sum())

    n_rect, n_atom = len(masses), len(area)
    s, t = n_rect + n_atom, n_rect + n_atom + 1
    links = [(k, n_rect + a, np.inf) for a, k in zip(*np.nonzero(member))]
    links += [(s, k, float(m[k])) for k in range(n_rect)]
    chosen = np.ones(n_atom, dtype=bool)  # the union of all rectangles
    value, n_cuts = ratio(chosen), 0
    while True:
        lam = value * (1.0 + 1e-12)
        sink = [(n_rect + a, t, lam * float(area[a])) for a in range(n_atom)]
        source_side = _min_cut_source_side(n_rect + n_atom + 2, links + sink, s, t)
        n_cuts += 1
        candidate = np.array(source_side[n_rect:n_rect + n_atom])
        better = ratio(candidate) if candidate.any() else 0.0
        if better <= value:
            break  # no union beats value (1 + 1e-12): the certificate
        chosen, value = candidate, better
    boxes = np.zeros(flat.shape[0], dtype=bool)
    boxes[covered] = chosen[atom_of]
    mask = np.repeat(np.repeat(boxes.reshape(inside.shape[:2]), widths[0], axis=0),
                     widths[1], axis=1)
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
    book = _book_from_args(b, family, meyer, depth, book)
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
    book = _book_from_args(b, family, meyer, depth, book)
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
