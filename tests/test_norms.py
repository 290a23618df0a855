import itertools
import math
import tracemalloc

import numpy as np
import pytest

import dyadiclab as dl
from dyadiclab import journe
from dyadiclab.dyadic import (
    DyadicInterval,
    DyadicRectangle,
    Grid,
    constant,
    haar_function,
    haar_tensor,
    random_signal,
)
from dyadiclab.norms import (
    OperatorMatrix,
    bmo_dyadic,
    bmo_minus1,
    bmo_product,
    bmo_rect,
    lp_norm,
    operator_norm,
)

rng = np.random.default_rng(9)


# ---------------------------------------------------------------------------
# operator norm


def test_operator_norm_basics():
    assert operator_norm(np.eye(8)) == 1.0
    assert abs(operator_norm(np.array([[0, 1], [1, 0]])) - 1.0) < 1e-14


def test_operator_norm_random_vs_randomized_lower_bound():
    # randomized maximization of ||Av||: many random starts, each refined by
    # normalized A*A ascent steps; an SVD-independent oracle
    A = rng.standard_normal((50, 50)) + 1j * rng.standard_normal((50, 50))
    dense = operator_norm(A)
    best = 0.0
    for _ in range(50):
        v = rng.standard_normal(50) + 1j * rng.standard_normal(50)
        v /= np.linalg.norm(v)
        for _ in range(40):
            w = A.conj().T @ (A @ v)
            v = w / np.linalg.norm(w)
        best = max(best, float(np.linalg.norm(A @ v)))
    assert best <= dense + 1e-10
    assert dense - best < 1e-6 * dense


def test_operator_norm_raises_above_the_cap_before_any_svd(monkeypatch):
    monkeypatch.setattr(dl.norms, "_DENSE_SVD_MAX", 8)
    A = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    assert operator_norm(A) == float(np.linalg.svd(A, compute_uv=False)[0])  # at the cap

    def no_svd(*args, **kwargs):
        raise AssertionError("an SVD ran above the cap")
    monkeypatch.setattr(np.linalg, "svd", no_svd)
    for call, mats in ((operator_norm, np.ones((9, 3))), (dl.norms.operator_norms, np.ones((2, 9, 9)))):
        with pytest.raises(ValueError, match="cap 8"):
            call(mats)


def test_operator_matrix_algebra():
    A = OperatorMatrix(rng.standard_normal((3, 4)))
    B = OperatorMatrix(rng.standard_normal((4, 2)))
    C = OperatorMatrix(A.entries @ B.entries)
    assert C.shape == (3, 2) and C.entries.dtype == complex
    assert abs(operator_norm(A.entries.conj().T) - A.norm()) < 1e-12
    # submultiplicative
    assert operator_norm(C) <= operator_norm(A) * operator_norm(B) + 1e-12


def test_lp_norms():
    g = Grid(5, 1)
    one = constant(g)
    for p in (1, 2, 4, np.inf):
        assert abs(lp_norm(one, p) - 1.0) < 1e-14
    h = haar_function(0, DyadicInterval(-1, 0), g)
    assert abs(lp_norm(h, 2) - 1.0) < 1e-12


# ---------------------------------------------------------------------------
# dyadic BMO


def test_bmo_dyadic_examples():
    g = Grid(4, 1)
    r = bmo_dyadic(haar_function(0, DyadicInterval(0, 0), g))
    assert abs(r.value - 1.0) < 1e-12
    assert r.witness == DyadicInterval(0, 0)
    r = bmo_dyadic(haar_function(0, DyadicInterval(-1, 0), g))
    assert abs(r.value - np.sqrt(2)) < 1e-12
    assert r.witness == DyadicInterval(-1, 0)
    r = bmo_dyadic(constant(g))
    assert r.value == 0.0 and r.witness == DyadicInterval(0, 0)


def test_bmo_dyadic_witness_reproduces_value():
    g = Grid(6, 1)
    b = random_signal(g, rng)
    rep = bmo_dyadic(b)
    iv = rep.witness
    coeffs = dl.haar_analysis(b)
    total = 0.0
    for p in range(g.depth):
        for j in range(1 << p):
            J = DyadicInterval(-p, j)
            if iv.contains(J):
                total += abs(coeffs.band(p)[j]) ** 2
    assert abs(np.sqrt(total / iv.length) - rep.value) < 1e-10


# ---------------------------------------------------------------------------
# product / rectangular / minus-one BMO


def _corner_pair(grid):
    r1 = DyadicRectangle((DyadicInterval(0, 0), DyadicInterval(-1, 0)))
    r2 = DyadicRectangle((DyadicInterval(-1, 0), DyadicInterval(0, 0)))
    return haar_tensor(r1, grid) + haar_tensor(r2, grid)


def test_bmo_sups_of_an_empty_book_are_zero():
    # no mass at all: the zero signal's Haar book and the empty dict book
    g = Grid(3, 2)
    b = dl.zeros(g)
    for book in (None, {}):
        assert bmo_rect(b, book=book).value == 0.0 and bmo_rect(b, book=book).witness is None
        assert bmo_minus1(b, book=book).value == 0.0 and bmo_minus1(b, book=book).witness is None
        rep = bmo_product(b, book=book)
        assert rep.value == 0.0 and not rep.witness.any() and rep.detail["cuts"] == 0


def test_single_wavelet_values():
    g = Grid(2, 2)
    full = haar_tensor(DyadicRectangle((DyadicInterval(0, 0),) * 2), g)
    assert abs(bmo_product(full, mode="exact").value - 1.0) < 1e-12
    assert abs(bmo_rect(full).value - 1.0) < 1e-12
    assert abs(bmo_minus1(full).value - 1.0) < 1e-12
    # smaller rectangle: value = |R|^{-1/2}
    r = DyadicRectangle((DyadicInterval(-1, 1), DyadicInterval(-1, 0)))
    w = haar_tensor(r, g)
    for fn in (lambda b: bmo_product(b, mode="exact"), bmo_rect, bmo_minus1):
        assert abs(fn(w).value - 2.0) < 1e-12


def test_two_disjoint_rectangles_unit_coefficients():
    # family value equals the single-rectangle value 1/sqrt(area)
    g = Grid(2, 2)
    r1 = DyadicRectangle((DyadicInterval(0, 0), DyadicInterval(-1, 0)))
    r2 = DyadicRectangle((DyadicInterval(0, 0), DyadicInterval(-1, 1)))
    b = haar_tensor(r1, g) + haar_tensor(r2, g)
    rep = bmo_product(b, mode="exact")
    assert abs(rep.value - np.sqrt(2.0)) < 1e-12
    single = haar_tensor(r1, g)
    assert abs(bmo_product(single, mode="exact").value - rep.value) < 1e-12
    # shadow additivity for the shared-side family in the minus-one norm
    assert abs(bmo_minus1(b).value - np.sqrt(2.0)) < 1e-12


def test_chain_ratio_and_heuristic():
    g = Grid(2, 2)
    b = _corner_pair(g)
    exact = bmo_product(b, mode="exact")
    rect = bmo_rect(b)
    assert abs(exact.value / rect.value - 2.0 / np.sqrt(3.0)) < 1e-10
    heur = bmo_product(b, mode="heuristic")
    assert heur.exactness == "lower_bound"
    assert heur.value <= exact.value + 1e-12
    # heuristic mode runs the exact solver, so it finds the exact union
    assert abs(heur.value - exact.value) < 1e-10


def test_norm_chain_and_invariances():
    g = Grid(2, 2)
    for _ in range(8):
        b = random_signal(g, rng)
        m1 = bmo_minus1(b).value
        rc = bmo_rect(b).value
        pr = bmo_product(b, mode="exact").value
        assert m1 <= rc + 1e-10
        assert rc <= pr + 1e-10
        # coordinate swap invariance
        bt = dl.Signal(g, b.values.T.copy())
        assert abs(bmo_product(bt, mode="exact").value - pr) < 1e-10
    # sign flips of individual wavelet coefficients leave the value unchanged
    b = _corner_pair(g)
    r1 = DyadicRectangle((DyadicInterval(0, 0), DyadicInterval(-1, 0)))
    flipped = b - 2.0 * haar_tensor(r1, g)
    assert abs(bmo_product(b, mode="exact").value - bmo_product(flipped, mode="exact").value) < 1e-12


def test_minus1_equals_rect_fails_in_general():
    # the one-parameter norm cannot mix both orientations: strict inequality
    g = Grid(2, 2)
    b = dl.zeros(g)
    for r in [
        DyadicRectangle((DyadicInterval(0, 0), DyadicInterval(-1, 0))),
        DyadicRectangle((DyadicInterval(0, 0), DyadicInterval(-1, 1))),
        DyadicRectangle((DyadicInterval(-1, 0), DyadicInterval(0, 0))),
        DyadicRectangle((DyadicInterval(-1, 1), DyadicInterval(0, 0))),
    ]:
        b = b + haar_tensor(r, g)
    assert abs(bmo_rect(b).value - 2.0) < 1e-12
    assert abs(bmo_minus1(b).value - np.sqrt(2.0)) < 1e-12


def _book_value(book, mask, grid):
    """|U|^-1 sum_{R inside U} |c_R|^2 for a cell mask U on `grid`."""
    num = sum(abs(c) ** 2 for r, c in book.items() if mask[r.cell_slices(grid)].all())
    return num / (mask.sum() * grid.weight)


def _cell_union_oracle(book, depth):
    """Brute-force product BMO: every nonempty union of the 4^depth <= 16 cells."""
    g = Grid(depth, 2)
    assert g.n_points ** 2 <= 16
    rect_bits = []
    for r in book:
        mask = np.zeros(g.shape, dtype=bool)
        mask[r.cell_slices(g)] = True
        rect_bits.append(int(sum(1 << int(i) for i in np.flatnonzero(mask.ravel()))))
    masses = np.array([abs(c) ** 2 for c in book.values()])
    unions = np.arange(1, 1 << g.n_points ** 2, dtype=np.int64)
    num = np.zeros(unions.shape)
    for bits, m in zip(rect_bits, masses):
        num += np.where(unions & bits == bits, m, 0.0)
    return float(np.sqrt(np.max(num / (np.bitwise_count(unions) * g.weight))))


def _sparse_book(depth, k, rng):
    """k random Haar rectangles of sides >= 2^-(depth-1) with complex coefficients."""
    book = {}
    while len(book) < k:
        p1, p2 = (int(p) for p in rng.integers(0, depth, 2))
        r = DyadicRectangle((DyadicInterval(-p1, int(rng.integers(0, 1 << p1))),
                             DyadicInterval(-p2, int(rng.integers(0, 1 << p2)))))
        book[r] = complex(rng.standard_normal(), rng.standard_normal())
    return book


def _signal_of_book(book, grid):
    b = dl.zeros(grid)
    for r, c in book.items():
        b = b + c * haar_tensor(r, grid)
    return b


def test_exact_product_bmo_matches_cell_union_oracle():
    g = Grid(2, 2)
    for _ in range(12):
        b = random_signal(g, rng)
        rep = bmo_product(b, mode="exact")
        oracle = _cell_union_oracle(dl.norms.coefficient_book(b), 2)
        assert rep.exactness == "exact"
        assert abs(rep.value - oracle) <= 1e-12 * oracle
    for k in (1, 2, 3, 5, 7):
        book = _sparse_book(2, k, rng)
        oracle = _cell_union_oracle(book, 2)
        assert abs(bmo_product(dl.zeros(g), book=book, depth=2).value - oracle) <= 1e-12 * oracle
        assert abs(bmo_product(_signal_of_book(book, g)).value - oracle) <= 1e-12 * oracle


def test_exact_product_bmo_matches_rectangle_union_oracle():
    # the sup is attained on a union of nonzero-coefficient rectangles
    # (dropping cells that complete no rectangle only shrinks |U|)
    for depth, k in ((3, 8), (4, 9)):
        g = Grid(depth, 2)
        for _ in range(4):
            book = _sparse_book(depth, k, rng)
            best = 0.0
            for size in range(1, k + 1):
                for combo in itertools.combinations(list(book), size):
                    mask = np.zeros(g.shape, dtype=bool)
                    for r in combo:
                        mask[r.cell_slices(g)] = True
                    best = max(best, _book_value(book, mask, g))
            rep = bmo_product(dl.zeros(g), book=book, depth=depth)
            assert abs(rep.value - np.sqrt(best)) <= 1e-12 * np.sqrt(best)
            assert abs(np.sqrt(_book_value(book, rep.witness, g)) - rep.value) <= 1e-12 * rep.value


# greedy-search values of the former heuristic mode on these inputs
_GREEDY_VALUES = {
    (3, 0): 1.1494052248915043, (3, 1): 1.2376560186654793, (3, 2): 1.4827891487679863,
    (4, 0): 1.6318624040463652, (4, 1): 1.6996851451614268, (4, 2): 1.34654667021321,
}


def test_heuristic_never_exceeds_exact_product_bmo():
    for (depth, seed), greedy in _GREEDY_VALUES.items():
        b = random_signal(Grid(depth, 2), np.random.default_rng(seed))
        exact = bmo_product(b, mode="exact")
        heur = bmo_product(b, mode="heuristic")
        assert exact.exactness == "exact" and heur.exactness == "lower_bound"
        assert bmo_rect(b).value <= heur.value * (1 + 1e-12)
        assert heur.value <= exact.value * (1 + 1e-12)
        # the exact sup is certified to 1e-12 relative, so no lower bound beats it by more
        assert heur.value >= greedy * (1 - 1e-12)


def _minus1_oracle(book, grid):
    """Brute-force BMO_-1: every subcollection of every shared-side group."""
    best = 0.0
    for axis in (0, 1):
        groups = {}
        for r, c in book.items():
            if abs(c) > 0:
                groups.setdefault(r.coordinates[axis], []).append(r)
        for members in groups.values():
            for size in range(1, len(members) + 1):
                for combo in itertools.combinations(members, size):
                    coll = dl.RectangleCollection(combo, grid)
                    num = sum(abs(book[r]) ** 2 for r in combo)
                    best = max(best, num / coll.shadow_measure())
    return np.sqrt(best)


def test_minus1_matches_subset_oracle():
    g3, g4 = Grid(3, 2), Grid(4, 2)
    cases = [(g3, dl.norms.coefficient_book(random_signal(g3, rng))) for _ in range(3)]
    cases += [(g3, _sparse_book(3, k, rng)) for k in (2, 4, 8, 12)]
    cases += [(g4, _sparse_book(4, k, rng)) for k in (3, 6, 12, 20)]
    for g, book in cases:
        rep = bmo_minus1(_signal_of_book(book, g))
        oracle = _minus1_oracle(book, g)
        assert rep.exactness == "exact"
        assert abs(rep.value - oracle) <= 1e-12 * oracle
        num = sum(abs(book[r]) ** 2 for r in rep.witness.members)
        assert abs(np.sqrt(num / rep.witness.shadow_measure()) - rep.value) <= 1e-12 * rep.value


def test_minus1_exact_and_witness_at_depth_5():
    # 31 rectangles share each side here: beyond any subset enumeration
    g = Grid(5, 2)
    b = random_signal(g, rng)
    rep = bmo_minus1(b)
    assert rep.exactness == "exact"
    book = dl.norms.coefficient_book(b)
    members = rep.witness.members
    assert len({r.coordinates[0] for r in members}) == 1 or len({r.coordinates[1] for r in members}) == 1
    num = sum(abs(book[r]) ** 2 for r in members)
    assert abs(np.sqrt(num / rep.witness.shadow_measure()) - rep.value) <= 1e-12 * rep.value
    assert rep.value <= bmo_rect(b).value * (1 + 1e-12)


def test_haar_book_holds_exactly_the_nonzero_coefficients():
    b, _ = dl.carleson_family(6, Grid(9, 2), seed=0)
    book = dl.norms.coefficient_book(b)
    coeffs = dl.haar_analysis(b)
    assert len(book) == np.count_nonzero(coeffs.values[1:, 1:])
    for r, c in book.items():
        p1, p2 = (-iv.scale_exponent for iv in r.coordinates)
        assert c != 0 and c == coeffs.band(p1, p2)[r.coordinates[0].position, r.coordinates[1].position]


def _band_by_band_book(heap, d, depth):
    """(scales, positions, c): every box of sides >= 2^-depth of a heap-ordered
    coefficient array (trailing axes: a stack of books), sliced off the heap
    band by band in book order, zero or not: the oracle of `_coefficients`."""
    finest = heap.shape[0].bit_length() - 2
    top = finest if depth is None else min(depth, finest)
    sides = np.array(list(itertools.product(range(top, -1, -1), repeat=d)),
                     dtype=np.int64).reshape(-1, d).T  # a column per scale tuple
    blocks = [heap[dl.transforms._heap_band(q)] for q in sides.T]
    positions = np.concatenate([np.indices(c.shape[:d]).reshape(d, -1) for c in blocks], axis=1)
    coef = np.concatenate([c.reshape((-1,) + heap.shape[d:]) for c in blocks])
    return np.repeat(sides, 1 << sides.sum(axis=0), axis=1), positions, coef


def test_coefficients_reads_the_boxes_nonzero_in_some_book_in_book_order():
    heap_rng = np.random.default_rng(28)
    cases = []  # (heap, d, depth)
    for d, depth in ((1, 7), (2, 5), (3, 4)):
        heap = dl.transforms._haar_transform(random_signal(Grid(depth, d), heap_rng).values, d)
        cases += [(heap, d, book_depth) for book_depth in (None, 0, 1, depth // 2)]
    # a zero signal and an integer one, constant on 4 x 4 blocks, as a stack
    blocks = np.kron(heap_rng.integers(-2, 3, (4, 4)), np.ones((4, 4)))
    stack = dl.transforms._haar_transform(np.stack([np.zeros((16, 16)), blocks], axis=-1), 2)
    cases += [(stack, 2, None), (stack, 2, 3)]
    meyer = dl.transforms.build_meyer_family(Grid(6, 1))
    b = random_signal(Grid(6, 2), heap_rng)
    cases.append((dl.norms._coefficient_heap(b, "meyer", meyer), 2, None))
    carleson = dl.transforms._haar_transform(dl.carleson_family(6, Grid(9, 2), seed=0)[0].values, 2)
    cases.append((carleson, 2, None))
    for heap, d, depth in cases:
        scales, positions, coef = _band_by_band_book(heap, d, depth)
        some = np.any(coef.reshape(len(coef), -1) != 0, axis=1)
        got = dl.norms._coefficients(heap, d, depth)
        for got_array, want in zip(got, (scales[:, some], positions[:, some], coef[some])):
            assert np.array_equal(got_array, want)
    assert dl.norms._coefficients(stack, 2, None)[0].max() == 1  # sides 1 and 1/2 only
    assert dl.norms._coefficients(carleson, 2, None)[2].size == 65 and carleson.size == 262144
    # an all-zero heap: (d, 0) arrays, and BMO 0
    for d in (1, 2, 3):
        scales, positions, coef = dl.norms._coefficients(np.zeros((8,) * d), d, None)
        assert scales.shape == positions.shape == (d, 0) and coef.shape == (0,)
    assert bmo_dyadic(dl.zeros(Grid(3, 1))).value == 0.0
    for evaluate in (bmo_rect, bmo_product, bmo_minus1):
        assert evaluate(dl.zeros(Grid(3, 2))).value == 0.0


def test_rounding_level_books_have_bmo_zero_at_every_level_of_the_hierarchy():
    # every sup drops a coefficient at most 1e-12 of max(1, the largest |c|):
    # BMO_-1 <= rectangular <= product holds, all 0, for a signal scaled to rounding level
    b = random_signal(Grid(4, 2), np.random.default_rng(0))
    tiny = dl.Signal(b.grid, b.values * 1e-13)
    assert bmo_minus1(tiny).value == bmo_rect(tiny).value == bmo_product(tiny).value == 0.0
    assert bmo_dyadic(dl.Signal(Grid(4, 1), b.values[0] * 1e-13)).value == 0.0
    assert bmo_rect(b).value > 0.0


def test_a_dict_book_of_another_dimension_is_rejected():
    b = dl.zeros(Grid(3, 2))
    interval, square, cube = (DyadicRectangle((DyadicInterval(-1, 0),) * d) for d in (1, 2, 3))
    for book in ({cube: 1.0}, {interval: 1.0}, {square: 1.0, cube: 1.0}):
        for evaluate in (bmo_product, bmo_rect, bmo_minus1):
            with pytest.raises(ValueError, match="dimension [13] for a signal of dimension 2"):
                evaluate(b, book=book)


def test_product_witness_reproduces_value():
    g = Grid(2, 2)
    b = _corner_pair(g)
    rep = bmo_product(b, mode="exact")
    book = dl.norms.coefficient_book(b)
    assert abs(np.sqrt(_book_value(book, rep.witness, g)) - rep.value) < 1e-10
    g = Grid(4, 2)
    b = random_signal(g, rng)
    rep = bmo_product(b, mode="exact")
    book = dl.norms.coefficient_book(b)
    assert abs(np.sqrt(_book_value(book, rep.witness, g)) - rep.value) <= 1e-12 * rep.value


def test_bmo_with_meyer_family():
    from dyadiclab.transforms import build_meyer_family

    g = Grid(6, 2)
    fam = build_meyer_family(Grid(6, 1))
    r = DyadicRectangle((DyadicInterval(-1, 1), DyadicInterval(-2, 2)))
    w = fam.tensor(r, ("w", "w"))
    rep_rect = bmo_rect(w, family="meyer", meyer=fam)
    assert abs(rep_rect.value - r.area ** -0.5) < 1e-8
    rep_prod = bmo_product(w, mode="exact", family="meyer", meyer=fam)
    assert abs(rep_prod.value - r.area ** -0.5) < 1e-8
    assert abs(bmo_minus1(w, family="meyer", meyer=fam).value - r.area ** -0.5) < 1e-8


def test_a_meyer_book_needs_a_signal_on_the_family_grid():
    # a family built on Grid(5, 1) reads signals on Grid(5, 2) only
    from dyadiclab.transforms import build_meyer_family

    fam = build_meyer_family(Grid(5, 1))
    bmo_rect(random_signal(Grid(5, 2), rng), family="meyer", meyer=fam)
    for g in (Grid(5, 1), Grid(5, 3), Grid(6, 2)):
        b = random_signal(g, rng)
        for evaluate in (lambda: bmo_rect(b, family="meyer", meyer=fam),
                         lambda: bmo_product(b, family="meyer", meyer=fam),
                         lambda: bmo_minus1(b, family="meyer", meyer=fam),
                         lambda: dl.norms.coefficient_book(b, "meyer", fam),
                         lambda: journe.journe_damped_check(b, np.ones(g.shape, dtype=bool), 0.5,
                                                            "meyer", fam)):
            with pytest.raises(ValueError, match=r"Grid\(depth=5, dim=2\)"):
                evaluate()


@pytest.mark.parametrize("depth", [-1, 4, 5])
def test_a_depth_outside_the_grid_is_rejected_before_any_work(depth, monkeypatch):
    g = Grid(3, 2)
    b = random_signal(g, rng)
    book = dl.norms.coefficient_book(b)
    U = np.ones(g.shape, dtype=bool)
    coll = dl.RectangleCollection((DyadicRectangle((DyadicInterval(-1, 0), DyadicInterval(-1, 0))),), g)

    def no_work(*args):
        raise AssertionError("a coefficient pass ran")

    monkeypatch.setattr(dl.transforms, "_haar_transform", no_work)
    for evaluate in (lambda: dl.norms.coefficient_book(b, depth=depth),
                     lambda: bmo_rect(b, depth=depth),
                     lambda: bmo_rect(b, depth=depth, book=book),
                     lambda: bmo_minus1(b, depth=depth),
                     lambda: bmo_minus1(b, depth=depth, book=book),
                     lambda: bmo_product(b, depth=depth),
                     lambda: bmo_product(b, depth=depth, book=book),
                     lambda: journe.journe_damped_check(b, U, 0.5, depth=depth),
                     lambda: journe.journe_inequality_checker_d1(b, coll, *journe.trivial_candidate(coll),
                                                                 eta=0.0, depth=depth)):
        with pytest.raises(ValueError, match=r"depth must lie in 0\.\.3"):
            evaluate()


@pytest.mark.parametrize("bad", [DyadicRectangle((DyadicInterval(-1, 0),) * 3),
                                 DyadicRectangle((DyadicInterval(-1, 2), DyadicInterval(-1, 0)))],
                         ids=["another_dimension", "outside_the_unit_square"])
def test_every_entry_point_rejects_a_bad_rectangle_before_any_work(bad, monkeypatch):
    # `_box_arrays`, the one door from rectangles to boxes, checks each
    # rectangle; a member outside [0,1)^2 is rejected where its collection is built
    g = Grid(6, 2)
    b = random_signal(g, rng)
    fam = dl.build_meyer_family(Grid(6, 1))
    book = {DyadicRectangle((DyadicInterval(-1, 0),) * 2): 1.0, bad: 1.0}
    U, V = np.ones(g.shape, dtype=bool), np.ones((3 * g.n_points,) * 2, dtype=bool)

    def coll():
        return dl.RectangleCollection((bad,), Grid(6, bad.dim))

    def no_work(*args, **kwargs):
        raise AssertionError("a coefficient pass ran")

    monkeypatch.setattr(dl.transforms, "_haar_transform", no_work)
    monkeypatch.setattr(dl.transforms.MeyerFamily, "analysis", no_work)
    monkeypatch.setattr(journe, "_embeddedness", no_work)
    for evaluate in (lambda: bmo_rect(b, book=book),
                     lambda: bmo_minus1(b, book=book),
                     lambda: bmo_product(b, book=book),
                     lambda: journe.embeddedness(bad, U, g),
                     lambda: journe.journe_inequality_checker_d1(b, coll(), V, {bad: 1.0}, eta=0.0),
                     lambda: journe.lower_bound_experiment(b, coll(), fam)):
        with pytest.raises(ValueError, match=r"R must be a rectangle in \[0,1\)\^2"):
            evaluate()


# ---------------------------------------------------------------------------
# the two-layer minimum cut against Dinic's general maximum flow


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


def _dinic_atom_side(supply, demand, atoms_of) -> list:
    """The atom side of the two-layer closure graph's minimal minimum cut, by Dinic."""
    n_rect, n_atom = len(supply), len(demand)
    s, t = n_rect + n_atom, n_rect + n_atom + 1
    arcs = [(s, k, float(c)) for k, c in enumerate(supply)]
    arcs += [(k, n_rect + a, np.inf) for k, atoms in enumerate(atoms_of) for a in atoms]
    arcs += [(n_rect + a, t, float(c)) for a, c in enumerate(demand)]
    return _min_cut_source_side(n_rect + n_atom + 2, arcs, s, t)[n_rect:n_rect + n_atom]


def _brute_force_densest_members(book, depth):
    """The book rectangles inside the first densest dyadic rectangle T with
    sides >= 2^-depth (scales, then positions ascending; strict >), each T's
    mass summed straight from its members: (its value, their indices)."""
    best, members = 0.0, None
    for q1 in range(depth + 1):
        for q2 in range(depth + 1):
            fits = (book.scales[0] >= q1) & (book.scales[1] >= q2)
            t1 = book.positions[0] >> np.where(fits, book.scales[0] - q1, 0)
            cell = (t1 << q2) + (book.positions[1] >> np.where(fits, book.scales[1] - q2, 0))
            mass = np.bincount(cell[fits], weights=book.mass[fits], minlength=1 << (q1 + q2))
            tot = mass * 2.0 ** (q1 + q2)
            t = int(np.argmax(tot))
            if tot[t] > best:
                best, members = float(tot[t]), np.flatnonzero(fits & (cell == t))
    return best, members


def _dinic_max_union_ratio(book, depth: int, rectangle_start: bool = True):
    """Product BMO's Dinkelbach iteration with one Dinic cut of the whole
    closure graph per step: the solver before the two-layer flow and its
    nested cuts.  With rectangle_start it starts, as `_max_union_ratio`
    does, from the union of the members of the densest dyadic rectangle
    (found by brute force) when that beats the union of all rectangles;
    without, from the union of all."""
    book = book.select(book.mass > 0)
    N = 1 << depth
    if not book.mass.size:
        return 0.0, np.zeros((N, N), dtype=bool), 0
    ranges = [[(int(j) << (depth - int(p)), (int(j) + 1) << (depth - int(p))) for p, j in sides]
              for sides in zip(zip(book.scales[0], book.positions[0]),
                               zip(book.scales[1], book.positions[1]))]
    cuts = [np.unique([0, N] + [x for rr in ranges for x in rr[axis]]) for axis in (0, 1)]
    inside = np.zeros((cuts[0].size - 1, cuts[1].size - 1, len(ranges)), dtype=bool)
    for k, rr in enumerate(ranges):
        (a0, a1), (b0, b1) = (np.searchsorted(c, r) for c, r in zip(cuts, rr))
        inside[a0:a1, b0:b1, k] = True
    widths = [np.diff(c) for c in cuts]
    flat = inside.reshape(-1, len(ranges))
    covered = np.flatnonzero(flat.any(axis=1))
    _, first, atom_of = np.unique(np.packbits(flat[covered], axis=1), axis=0,
                                  return_index=True, return_inverse=True)
    atom_of = atom_of.ravel()
    member = flat[covered[first]]
    area = np.bincount(atom_of, np.outer(*widths).ravel()[covered]) / 4.0 ** depth
    m = book.mass

    def ratio(chosen):
        inside_u = ~(member & ~chosen[:, None]).any(axis=0)
        return float(np.cumsum(m[inside_u])[-1] / area[chosen].sum())

    atoms_of = [np.flatnonzero(member[:, k]).tolist() for k in range(len(ranges))]
    chosen = np.ones(len(area), dtype=bool)
    value, n_cuts = ratio(chosen), 0
    if rectangle_start:
        _, members = _brute_force_densest_members(book, depth)
        start = member[:, members].any(axis=1)
        if ratio(start) > value:
            chosen, value = start, ratio(start)
    while True:
        lam = value * (1.0 + 1e-12)
        candidate = np.array(_dinic_atom_side(m, [lam * float(a) for a in area], atoms_of))
        n_cuts += 1
        better = ratio(candidate) if candidate.any() else 0.0
        if better <= value:
            break
        chosen, value = candidate, better
    boxes = np.zeros(flat.shape[0], dtype=bool)
    boxes[covered] = chosen[atom_of]
    mask = np.repeat(np.repeat(boxes.reshape(inside.shape[:2]), widths[0], axis=0),
                     widths[1], axis=1)
    return value, mask, n_cuts


def test_two_layer_cut_matches_dinic_on_random_graphs():
    # small dyadic capacities make exact ties; zero and infinite capacities
    # appear on one side at a time (both at once would make the flow infinite)
    rng = np.random.default_rng(31)
    for trial in range(400):
        n_rect, n_atom = (int(v) for v in rng.integers(1, 20, 2))
        member = rng.random((n_atom, n_rect)) < rng.uniform(0.05, 0.6)
        member[rng.integers(0, n_atom, n_rect), np.arange(n_rect)] = True  # no empty rectangle
        atoms_of = [np.flatnonzero(member[:, k]).tolist() for k in range(n_rect)]
        kind = trial % 4
        if kind == 0:
            supply = rng.choice([0.0, 0.25, 0.5, 1.0, 2.0], n_rect)
            demand = rng.choice([0.0, 0.25, 0.5, 1.0, 3.0], n_atom)
        elif kind == 1:
            supply = rng.random(n_rect)
            demand = rng.random(n_atom) * rng.uniform(0.1, 3.0)
        elif kind == 2:
            supply = rng.choice([0.0, 1.0, np.inf], n_rect)
            demand = rng.choice([0.0, 0.5, 1.5], n_atom)
        else:
            supply = rng.choice([0.0, 0.5, 1.0], n_rect)
            demand = rng.choice([0.0, 1.0, np.inf], n_atom)
        order = np.argsort([len(atoms) for atoms in atoms_of], kind="stable").tolist()
        got = dl.norms._closure_source_side(supply.tolist(), demand.tolist(), atoms_of, order)
        assert got == _dinic_atom_side(supply, demand, atoms_of)


def _solved_books(tmp_path, monkeypatch):
    """Every book the default carleson, journe and nehari2d runs solve (the
    30 nehari2d trials as one stack), plus dense and +-1 (tied) books of
    depths 2 to 5 and books whose boxes are not their atoms: (book, depth,
    whether its masses are all +-1)."""
    from dyadiclab import experiments

    books = []
    solve = dl.norms._max_union_ratio

    def recording(book, depth, boxes=None):
        books.append((book, depth, False))
        return solve(book, depth, boxes)

    monkeypatch.setattr(dl.norms, "_max_union_ratio", recording)
    for name in ("carleson", "journe", "nehari2d"):
        experiments.run({"experiment": name}, tmp_path / name, threads=1)
    monkeypatch.undo()
    assert len(books) == 5 + 9 + 30
    book_rng = np.random.default_rng(12)
    for depth in (2, 3, 4, 5):
        b = random_signal(Grid(depth, 2), book_rng)
        book = dl.norms.coefficient_book(b)
        books.append((dl.norms._array_book(book, 2), depth, False))
        signs = {r: complex(book_rng.choice([-1.0, 1.0])) for r in book if book_rng.random() < 0.3}
        books.append((dl.norms._array_book(signs, 2), depth, True))
    # sparse +-1 books at depths 6 and 7, the Carleson chain, and one coarse
    # rectangle cut into boxes by fine ones
    for depth in (6, 6, 7, 7):
        signs = {r: complex(book_rng.choice([-1.0, 1.0])) for r in _sparse_book(depth, 12, book_rng)}
        books.append((dl.norms._array_book(signs, 2), depth, True))
    for n in (5, 6):
        _, chain = journe.carleson_family(n, Grid(n + 3, 2))
        books.append((dl.norms._array_book(chain, 2), n + 3, True))
    mixed = {DyadicRectangle((DyadicInterval(0, 0), DyadicInterval(-1, 1))): 1.0}
    mixed.update(_sparse_book(4, 5, book_rng))
    books.append((dl.norms._array_book(mixed, 2), 4, False))
    return books


def test_max_union_ratio_matches_the_dinic_solver_on_experiment_books(tmp_path, monkeypatch):
    # values, witnesses and cut counts agree exactly with Dinic from the same start;
    # from the union of all rectangles Dinic finds the same values in no fewer cuts
    starts = []
    for book, depth, signs in _solved_books(tmp_path, monkeypatch):
        value, mask, cuts, start = dl.norms._max_union_ratio(book, depth)
        want = _dinic_max_union_ratio(book, depth)
        assert value == want[0] and np.array_equal(mask, want[1]) and cuts == want[2]
        union_value, union_mask, union_cuts = _dinic_max_union_ratio(book, depth, rectangle_start=False)
        assert value == union_value and cuts <= union_cuts
        if signs:  # unions of +-1 books tie: the witness may differ, its own ratio may not
            assert np.cumsum(book.mass[_inside_mask(book, mask)])[-1] / (mask.sum() / 4.0 ** depth) == value
        else:
            assert np.array_equal(mask, union_mask)
        starts.append(start)
    assert starts.count("rectangle") >= 30


def _block_sum_densest(book, n, shared=None):
    """The rectangular accumulation with one block sum per (target scale,
    book scale) pair: O(n^4) array operations, the two-pass one's reference."""
    mass = {}
    (p1s, p2s), (j1s, j2s) = book.scales.tolist(), book.positions.tolist()
    for p1, j1, p2, j2, m in zip(p1s, j1s, p2s, j2s, book.mass.tolist()):
        mass.setdefault((p1, p2), np.zeros((1 << p1, 1 << p2)))[j1, j2] += m
    best_val, best = 0.0, None
    for q1 in range(n + 1):
        for q2 in range(n + 1):
            tot = np.zeros((1 << q1, 1 << q2))
            for (p1, p2), arr in mass.items():
                if p1 < q1 or p2 < q2 or (shared is not None and (p1, p2)[shared] != (q1, q2)[shared]):
                    continue
                tot += arr.reshape(1 << q1, 1 << (p1 - q1), 1 << q2, 1 << (p2 - q2)).sum(axis=(1, 3))
            tot *= 2.0 ** (q1 + q2)
            j = np.unravel_index(int(np.argmax(tot)), tot.shape)
            if tot[j] > best_val:
                best_val, best = float(tot[j]), (q1, int(j[0]), q2, int(j[1]))
    return best_val, best


def _box_sum_densest(book, n, shared=None):
    """The densest dyadic box with sides >= 2^-n of a d-axis book, each box's
    mass summed straight from its members (with `shared` an axis, only those
    whose side on it is the box's own): (value, (scales, positions)), the
    first box attaining it, scale tuples then positions ascending."""
    d = book.scales.shape[0]
    best_val, best = 0.0, ((0,) * d, (0,) * d)
    for q in itertools.product(range(n + 1), repeat=d):
        side = np.array(q)[:, None]
        inside = np.all(book.scales >= side, axis=0)
        if shared is not None:
            inside &= book.scales[shared] == q[shared]
        shape = tuple(1 << qa for qa in q)
        box = np.ravel_multi_index(book.positions[:, inside] >> (book.scales[:, inside] - side), shape)
        totals = np.bincount(box, book.mass[inside], math.prod(shape)) * 2.0 ** sum(q)
        k = int(np.argmax(totals))
        if totals[k] > best_val:
            best_val, best = float(totals[k]), (q, tuple(int(t) for t in np.unravel_index(k, shape)))
    return best_val, best


def test_densest_rectangle_in_two_passes_matches_block_sums(tmp_path, monkeypatch):
    # the passes add in another order: values agree to a few units in the
    # last place (exactly on +-1 and integer books), the first densest box is
    # the same, in 1-D, 2-D and 3-D
    book_rng = np.random.default_rng(21)
    books = [(book, depth) for book, depth, _ in _solved_books(tmp_path, monkeypatch)]
    for depth in (2, 3, 4, 5, 6):
        for _ in range(3):
            books.append((dl.norms._haar_book(random_signal(Grid(depth, 2), book_rng).values, 2, None),
                          depth))
    for book, depth in books:
        for shared in (None, 0, 1):
            value, scales, positions = dl.norms._densest_box(book, depth, shared)
            want_value, want_best = _block_sum_densest(book, depth, shared)
            assert (scales[0], positions[0], scales[1], positions[1]) == want_best
            assert abs(value - want_value) <= 8 * np.finfo(float).eps * want_value
    for depth in (3, 5):  # through the public functions, on dict books
        b = random_signal(Grid(depth, 2), book_rng)
        book = dl.norms.coefficient_book(b)
        arrays = dl.norms._array_book(book, 2)
        rect = _block_sum_densest(arrays, depth)[0]
        assert abs(bmo_rect(b, book=book).value ** 2 - rect) <= 8 * np.finfo(float).eps * rect
        minus1 = max(_block_sum_densest(arrays, depth, axis)[0] for axis in (0, 1))
        assert abs(bmo_minus1(b, book=book).value ** 2 - minus1) <= 8 * np.finfo(float).eps * minus1
    # 1-D: the Haar book of a random signal, and books on the same intervals
    # with masses 0, 1 or 2 (exact, so intervals tie), against a direct sum
    # over dyadic intervals
    for depth in range(1, 9):
        b = random_signal(Grid(depth, 1), book_rng)
        haar = dl.norms._haar_book(b.values, 1, None)
        for book in [haar] + [haar._replace(mass=book_rng.choice([0.0, 0.0, 1.0, 2.0], haar.mass.size))
                              for _ in range(3)]:
            value, (q,), (t,) = dl.norms._densest_box(book, depth)
            want_value, want_best = _box_sum_densest(book, depth)
            assert ((q,), (t,)) == want_best
            assert abs(value - want_value) <= 8 * np.finfo(float).eps * want_value
        rep = bmo_dyadic(b)
        want_value, ((q,), (t,)) = _box_sum_densest(haar, depth)
        assert rep.witness == DyadicInterval(-q, t)
        assert abs(rep.value ** 2 - want_value) <= 8 * np.finfo(float).eps * want_value
    # 3-D: the same for Haar books on the polydisc, and for every shared axis
    for depth in range(1, 5):
        haar = dl.norms._haar_book(random_signal(Grid(depth, 3), book_rng).values, 3, None)
        for book in (haar, haar._replace(mass=book_rng.choice([0.0, 0.0, 1.0, 2.0], haar.mass.size))):
            for shared in (None, 0, 1, 2):
                value, scales, positions = dl.norms._densest_box(book, depth, shared)
                want_value, want_best = _box_sum_densest(book, depth, shared)
                assert (tuple(scales.tolist()), tuple(positions.tolist())) == want_best
                assert abs(value - want_value) <= 8 * np.finfo(float).eps * want_value


def test_a_stack_of_books_is_solved_as_each_book_alone():
    # Haar books of random, +-1 and zero signals and a sparse 0/1 book on the
    # same boxes, in 1-D and 2-D: values, scales and positions bit for bit
    book_rng = np.random.default_rng(22)
    for d, depth in ((1, 3), (1, 7), (2, 2), (2, 4)):
        shape = (1 << depth,) * d
        signals = [random_signal(Grid(depth, d), book_rng).values for _ in range(4)]
        signals += [book_rng.choice([-1.0, 1.0], shape), np.zeros(shape)]
        stack = dl.norms._haar_book(np.stack(signals, axis=-1), d, None)
        sparse = (book_rng.random((1, stack.mass.shape[1])) < 0.2).astype(float)
        stack = stack._replace(mass=np.concatenate([stack.mass, sparse]))
        for shared in (None, 0, 1) if d == 2 else (None,):
            together = dl.norms._densest_box(stack, depth, shared)
            for s, mass in enumerate(stack.mass):
                alone = dl.norms._densest_box(stack._replace(mass=mass), depth, shared)
                for got, want in zip(together, alone):
                    assert np.array_equal(got[s], want)


def _inside_mask(book, mask):
    """Which book rectangles lie inside the cell mask."""
    depth = mask.shape[0].bit_length() - 1
    return np.array([mask[j1 << (depth - p1):(j1 + 1) << (depth - p1),
                          j2 << (depth - p2):(j2 + 1) << (depth - p2)].all()
                     for (p1, p2), (j1, j2) in zip(book.scales.T, book.positions.T)], dtype=bool)


def test_max_union_ratio_rejects_a_rectangle_finer_than_its_depth():
    fine = DyadicRectangle((DyadicInterval(-3, 0), DyadicInterval(-1, 0)))
    with pytest.raises(dl.ResolutionError):
        bmo_product(dl.zeros(Grid(2, 2)), book={fine: 1.0}, depth=2)


def _half_square(position: int) -> DyadicRectangle:
    return DyadicRectangle((DyadicInterval(-1, position), DyadicInterval(-1, 0)))


# a coefficient dropped as negligible is still checked against [0,1)^2
@pytest.mark.parametrize("book", [{_half_square(-1): 1.0}, {_half_square(5): 1.0},
                                  {_half_square(0): 1.0, _half_square(5): 1e-15}],
                         ids=["left_of_0", "right_of_1", "negligible_right_of_1"])
def test_book_rectangles_outside_the_unit_square_are_rejected(book):
    b = dl.zeros(Grid(2, 2))
    for evaluate in (lambda: bmo_product(b, book=book, depth=2),
                     lambda: bmo_product(b, book=book),
                     lambda: bmo_rect(b, book=book),
                     lambda: bmo_minus1(b, book=book)):
        with pytest.raises(ValueError, match=r"must lie in \[0,1\)\^2"):
            evaluate()


def test_max_union_ratio_allocates_nothing_of_size_boxes_by_rectangles():
    # 3969 rectangles on 1024 boxes: dense box-by-rectangle arrays peaked above 12 MiB
    b = dl.hankel.random_symbol(16, np.random.default_rng(16), dim=2).to_signal(Grid(6, 2))
    book = dl.norms._array_book(dl.norms.coefficient_book(b, depth=5), 2)
    tracemalloc.start()
    try:
        cuts = dl.norms._max_union_ratio(book, 5)[2]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cuts == 1
    assert peak < 9 * 2 ** 20


# ---------------------------------------------------------------------------
# the polydisc: rectangular and product BMO in three parameters


def _boxes_and_cells(depth, d):
    """Every dyadic box of [0, 1)^d with sides >= 2^-depth, and its cells on
    Grid(depth, d) as a row of a (boxes, cells) mask."""
    g = Grid(depth, d)
    axis = [DyadicInterval(-p, j) for p in range(depth + 1) for j in range(1 << p)]
    boxes = [DyadicRectangle(sides) for sides in itertools.product(axis, repeat=d)]
    cells = np.zeros((len(boxes),) + g.shape, dtype=bool)
    for k, r in enumerate(boxes):
        cells[k][r.cell_slices(g)] = True
    return boxes, cells.reshape(len(boxes), -1)


def test_product_bmo_in_three_parameters_matches_every_union_of_the_eight_cells():
    # depth 1: random books of the 27 boxes with sides >= 1/2, and Haar books
    # of random signals on Grid(1, 3), against all 255 unions of the 8 cells;
    # masses summed in book order, as the solver sums them
    book_rng = np.random.default_rng(31)
    boxes, cells = _boxes_and_cells(1, 3)
    at = {r: k for k, r in enumerate(boxes)}
    unions = (np.arange(1, 256)[:, None] >> np.arange(8) & 1).astype(bool)
    inside = ~np.any(cells[None] & ~unions[:, None], axis=2)  # (union, box)

    def brute(book):
        mass = np.where(inside[:, [at[r] for r in book]], [abs(c) ** 2 for c in book.values()], 0.0)
        return np.sqrt(np.max(np.cumsum(mass, axis=1)[:, -1] / (unions.sum(axis=1) * 0.125)))

    for _ in range(100):
        chosen = book_rng.permutation(27)[:book_rng.integers(1, 28)]
        book = {boxes[k]: complex(*book_rng.standard_normal(2)) for k in chosen}
        assert bmo_product(dl.zeros(Grid(1, 3)), book=book, depth=1).value == brute(book)
    for _ in range(10):
        b = random_signal(Grid(1, 3), book_rng)
        rep = bmo_product(b)
        assert rep.value == brute(dl.norms.coefficient_book(b))
        assert rep.witness.shape == (2, 2, 2)


def test_rect_bmo_in_three_parameters_is_the_densest_dyadic_box():
    # against a direct sum over the 343 dyadic boxes of Grid(2, 3)
    book_rng = np.random.default_rng(32)
    boxes, cells = _boxes_and_cells(2, 3)
    at = {r: k for k, r in enumerate(boxes)}
    area = np.array([r.area for r in boxes])
    for _ in range(5):
        b = random_signal(Grid(2, 3), book_rng)
        book = dl.norms.coefficient_book(b)
        held = cells[[at[r] for r in book]]
        inside = ~np.any(held[None] & ~cells[:, None], axis=2)  # (box T, book box)
        density = inside @ np.array([abs(c) ** 2 for c in book.values()]) / area
        rep = bmo_rect(b)
        assert abs(rep.value ** 2 - density.max()) <= 8 * np.finfo(float).eps * density.max()
        assert rep.witness == boxes[int(np.argmax(density))]
