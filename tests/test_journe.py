import itertools

import numpy as np
import pytest

import dyadiclab as dl
from dyadiclab.dyadic import (
    DyadicInterval,
    DyadicRectangle,
    Grid,
    RectangleCollection,
    ResolutionError,
    Signal,
    haar_tensor,
)
from dyadiclab import journe as jn
from dyadiclab import transforms
from dyadiclab.transforms import build_meyer_family

rng = np.random.default_rng(4)


def _rect(i1, i2):
    return DyadicRectangle((i1, i2))


def test_embeddedness_boundary_and_interior():
    g = Grid(3, 2)
    U = np.ones(g.shape, dtype=bool)
    full = _rect(DyadicInterval(0, 0), DyadicInterval(0, 0))
    assert jn.embeddedness(full, U, g) == 1.0
    central = _rect(DyadicInterval(-3, 3), DyadicInterval(-3, 3))
    assert jn.embeddedness(central, U, g) >= 4.0
    with pytest.raises(ValueError, match="contained"):
        empty = np.zeros(g.shape, dtype=bool)
        jn.embeddedness(central, empty, g)


def test_embeddedness_rejects_a_rectangle_outside_the_unit_square():
    # these once sliced an empty block of U, passed the containment check and gave 1.0
    g = Grid(3, 2)
    U = np.ones(g.shape, dtype=bool)
    half = DyadicInterval(-1, 0)
    outside = [_rect(DyadicInterval(-1, -1), half), _rect(DyadicInterval(-1, 2), half),
               _rect(DyadicInterval(-2, 5), half), _rect(DyadicInterval(1, 0), half),
               DyadicRectangle((half,)), DyadicRectangle((half,) * 3)]
    for R in outside:
        with pytest.raises(ValueError, match=r"R must be a rectangle in \[0,1\)\^2"):
            jn.embeddedness(R, U, g)


def test_embeddedness_monotone_and_symmetric():
    g = Grid(3, 2)
    R = _rect(DyadicInterval(-2, 1), DyadicInterval(-2, 1))
    small = np.zeros(g.shape, dtype=bool)
    small[2:4, 2:4] = True
    big = np.ones(g.shape, dtype=bool)
    assert jn.embeddedness(R, small, g) <= jn.embeddedness(R, big, g) + 1e-12
    # axis swap invariance
    Rt = _rect(DyadicInterval(-2, 1), DyadicInterval(-3, 2))
    Ut = np.zeros(g.shape, dtype=bool); Ut[2:4, 2:3] = True
    a = jn.embeddedness(Rt, Ut | big, g)
    Rs = _rect(DyadicInterval(-3, 2), DyadicInterval(-2, 1))
    b = jn.embeddedness(Rs, (Ut | big).T, g)
    assert abs(a - b) < 1e-9


def test_damped_check_examples():
    g = Grid(4, 2)
    # single wavelet: damping shrinks, ratio <= 1
    r = _rect(DyadicInterval(-2, 1), DyadicInterval(-2, 1))
    f = haar_tensor(r, g)
    U = np.ones(g.shape, dtype=bool)
    rep = jn.journe_damped_check(f, U, eps=0.5)
    assert rep["ratio"] <= 1.0 + 1e-12
    # eps = 0 recovers the raw projection
    rep0 = jn.journe_damped_check(f, U, eps=0.0)
    assert abs(rep0["ratio"] - 1.0) < 1e-12


def test_damped_check_on_carleson_family():
    g = Grid(5, 2)
    b, _ = jn.carleson_family(2, g, seed=0)
    U = np.ones(g.shape, dtype=bool)
    undamped = jn.journe_damped_check(b, U, eps=0.0)
    damped = jn.journe_damped_check(b, U, eps=0.5)
    assert undamped["ratio"] > damped["ratio"]
    assert abs(undamped["ratio"] - np.sqrt(1.5)) < 1e-9


def test_carleson_family_values():
    # the corner chain is a bounded family: exact product/rect ratio^2 is
    # 2(n+1)/(n+2), monotone, 1 at n=0 and > 1 from n=1
    ratios = []
    for n in range(7):
        g = Grid(n + 3, 2)
        b, book = jn.carleson_family(n, g, seed=0)
        assert len(book) == n + 1
        coeffs = dl.norms.coefficient_book(b)  # one Haar analysis for both norms
        pe = dl.bmo_product(b, mode="exact", book=coeffs)
        re_ = dl.bmo_rect(b, book=coeffs).value
        assert pe.exactness == "exact"
        ratios.append(pe.value / re_)
        assert abs(ratios[-1] ** 2 - 2.0 * (n + 1) / (n + 2)) < 1e-12
    assert ratios[0] == pytest.approx(1.0, abs=1e-12)
    assert all(r1 > r0 for r0, r1 in zip(ratios, ratios[1:]))


def test_carleson_needs_depth():
    with pytest.raises(ValueError, match="depth"):
        jn.carleson_family(2, Grid(4, 2))


def test_trivial_candidate_passes_checker():
    g = Grid(2, 2)
    members = (
        _rect(DyadicInterval(-1, 0), DyadicInterval(-1, 1)),
        _rect(DyadicInterval(-1, 0), DyadicInterval(-1, 0)),
    )
    coll = RectangleCollection(members, g)
    f = dl.random_signal(g, rng)
    V, emb = jn.trivial_candidate(coll)
    out = jn.journe_inequality_checker_d1(f, coll, V, emb, eta=0.0)
    assert out["a_ok"] and out["b_ok"]
    assert out["K_eta"] >= 0.0


def test_checker_rejects_bad_candidates():
    g = Grid(2, 2)
    members = (_rect(DyadicInterval(-1, 0), DyadicInterval(-1, 0)),)
    coll = RectangleCollection(members, g)
    f = dl.random_signal(g, rng)
    V, emb = jn.trivial_candidate(coll)
    with pytest.raises(jn.JourneCheckError, match="inside V"):
        jn.journe_inequality_checker_d1(f, coll, V, {members[0]: 3.0}, eta=0.0)
    big_V = np.ones((3 * g.n_points,) * 2, dtype=bool)
    with pytest.raises(jn.JourneCheckError, match="exceeds"):
        jn.journe_inequality_checker_d1(f, coll, big_V, emb, eta=0.1)


def test_checker_rejects_an_emb_below_1_or_a_missing_one_before_any_work(monkeypatch):
    # these once read K_eta 3.5077 (Emb 0.5 multiplied each coefficient by 16),
    # 0.0 after a divide-by-zero warning (Emb 0) and 0.2192 (Emb -1, as Emb 1);
    # a member with no entry raised a raw KeyError
    g = Grid(4, 2)
    f = dl.random_signal(g, np.random.default_rng(1))
    members = (_rect(DyadicInterval(-2, 0), DyadicInterval(-1, 0)),
               _rect(DyadicInterval(-2, 1), DyadicInterval(-1, 0)))
    coll = RectangleCollection(members, g)
    V, emb = jn.trivial_candidate(coll)
    assert jn.journe_inequality_checker_d1(f, coll, V, emb, eta=0.0)["K_eta"] == 0.21922956288008907

    def no_work(*args):
        raise AssertionError("work ran before the check")

    monkeypatch.setattr(jn, "_embeddedness", no_work)
    monkeypatch.setattr(dl.norms, "_coefficient_heap", no_work)
    for bad in ({**emb, members[1]: 0.5}, dict.fromkeys(members, 0.0),
                dict.fromkeys(members, -1.0), {members[0]: 1.0}):
        with pytest.raises(ValueError, match="Emb >= 1"):
            jn.journe_inequality_checker_d1(f, coll, V, bad, eta=0.0)


def test_journe_checks_make_one_coefficient_pass_and_no_dict_book(monkeypatch):
    passes, transforms_run = [], []
    coefficients, transform = dl.norms._coefficient_heap, transforms._haar_transform

    def counting(b, *args):
        passes.append(b.grid.depth)
        return coefficients(b, *args)

    def counting_transform(*args, **kwargs):
        transforms_run.append(1)
        return transform(*args, **kwargs)

    def no_dict_book(*args, **kwargs):
        raise AssertionError("a dict book was built")

    monkeypatch.setattr(dl.norms, "_coefficient_heap", counting)
    monkeypatch.setattr(transforms, "_haar_transform", counting_transform)
    monkeypatch.setattr(dl.norms, "coefficient_book", no_dict_book)
    g = Grid(3, 2)
    f = dl.random_signal(g, rng)
    jn.journe_damped_check(f, np.ones(g.shape, dtype=bool), eps=0.5)
    assert passes == [3] and len(transforms_run) == 1
    coll = RectangleCollection((_rect(DyadicInterval(-1, 0), DyadicInterval(-2, 1)),), g)
    V, emb = jn.trivial_candidate(coll)
    jn.journe_inequality_checker_d1(f, coll, V, emb, eta=0.0)
    assert passes == [3, 3] and len(transforms_run) == 2


def _dict_damped_check(f, U_mask, eps, family="haar", meyer=None, depth=None):
    """The damped check on dict books, rectangle by rectangle, as it ran
    before the array path: the oracle of `journe_damped_check`."""
    grid = f.grid
    book = dl.norms.coefficient_book(f, family, meyer, depth)
    V = jn.enlarged_set(U_mask, grid)
    n = grid.depth if depth is None else depth
    tol = 1e-12 * max([abs(c) for c in book.values()] + [1.0])
    kept = [r for r, c in book.items() if abs(c) > tol and U_mask[r.cell_slices(grid)].all()]
    emb = jn._embeddedness(*jn._box_arrays(kept, grid.dim), V, grid.depth).tolist()
    emb_values = dict(zip(kept, emb))
    damped = {r: book[r] * mu ** -eps for r, mu in emb_values.items()}
    lhs = dl.bmo_product(dl.zeros(grid), book=damped, depth=n).value
    rhs = dl.bmo_rect(f, family, meyer, depth, book=book).value
    return {"lhs_bmo": lhs, "rhs_rect_bmo": rhs, "ratio": lhs / rhs if rhs > 0 else np.nan,
            "eps": eps, "embeddedness": emb_values}


@pytest.mark.parametrize("family,d,depth", [("haar", 2, 4), ("haar", 3, 3), ("meyer", 2, 6)])
def test_damped_check_on_arrays_matches_the_dict_oracle_bit_for_bit(family, d, depth):
    # a U with holes leaves boxes out; several eps and book depths
    check_rng = np.random.default_rng(25 + d + depth)
    g = Grid(depth, d)
    meyer = build_meyer_family(Grid(depth, 1)) if family == "meyer" else None
    for trial in range(2):
        f = dl.random_signal(g, check_rng)
        if trial:
            f = f + 1j * dl.random_signal(g, check_rng)
        U = check_rng.random(g.shape) < 0.85
        U[(slice(0, g.n_points // 2),) * d] = True
        for book_depth in (None, 1):
            for eps in (0.0, 0.5, 1.5):
                got = jn.journe_damped_check(f, U, eps, family, meyer, book_depth)
                want = _dict_damped_check(f, U, eps, family, meyer, book_depth)
                kept, book = want["embeddedness"], dl.norms.coefficient_book(f, family, meyer, book_depth)
                assert len(kept) < len(book) and (kept or book_depth == 1)
                for key in ("lhs_bmo", "rhs_rect_bmo", "ratio"):
                    assert got[key] == want[key], key
                assert list(got["embeddedness"].items()) == list(want["embeddedness"].items())


def _maximal_candidate(collection):
    """(V, Emb) from the double maximal-function construction, every
    member's Emb from one closed-form pass over the window."""
    g = collection.grid
    V = jn.enlarged_set(collection.shadow_mask(), g)
    emb = jn._embeddedness(*jn._box_arrays(collection.members, g.dim), V, g.depth)
    return V, dict(zip(collection.members, emb.tolist()))


def test_checker_cross_checks_damped_check():
    # with the maximal-function candidate, the damped numerator of the checker
    # agrees with journe_damped_check restricted to the collection
    g = Grid(2, 2)
    members = (
        _rect(DyadicInterval(-1, 0), DyadicInterval(-1, 1)),
        _rect(DyadicInterval(-1, 1), DyadicInterval(-1, 1)),
    )
    coll = RectangleCollection(members, g)
    f = haar_tensor(members[0], g) + haar_tensor(members[1], g)
    V, emb = _maximal_candidate(coll)
    out = jn.journe_inequality_checker_d1(f, coll, V, emb, eta=10.0)
    assert np.isfinite(out["K_eta"])
    rep = jn.journe_damped_check(f, coll.shadow_mask(), eps=2.0 * g.dim)
    assert abs(out["lhs_bmo"] - rep["lhs_bmo"]) < 1e-10


def test_hij_trichotomy_exact():
    fam = build_meyer_family(Grid(8, 1))
    for I in fam.intervals:
        for J in fam.intervals:
            r = jn.hankel_cases_1d(fam, I, J)
            if 8.0 * J.length < I.length:
                assert r["pos_is_zero"], (I, J)
            elif 16.0 * I.length < J.length:
                assert r["all_analytic"], (I, J)


def test_lower_bound_experiment_single_wavelet():
    g = Grid(6, 2)
    fam = build_meyer_family(Grid(6, 1))
    R = _rect(DyadicInterval(-1, 1), DyadicInterval(-1, 0))
    v = fam.tensor(R, ("v", "v"), normalized=True)
    coll = RectangleCollection((R,), g)
    rep = jn.lower_bound_experiment(v, coll, fam)
    # alpha equals the normalized symbol: the Hankel image is exactly P|alpha|^2
    assert abs(rep["H_b_alpha"] - rep["P_plus_alpha_sq"]) < 1e-12
    assert rep["additivity_defect"] < 1e-12
    dec = rep["decomposition"]
    assert np.max(np.abs(dec.beta.values + dec.gamma.values)) < 1e-12


def test_lower_bound_experiment_general():
    g = Grid(6, 2)
    fam = build_meyer_family(Grid(6, 1))
    members = tuple(
        _rect(DyadicInterval(-2, i), DyadicInterval(-2, j)) for i in (1, 2) for j in (1, 2)
    )
    coll = RectangleCollection(members, g)
    b = dl.random_signal(g, rng)
    rep = jn.lower_bound_experiment(b, coll, fam)
    assert rep["additivity_defect"] < 1e-12
    # normalization: collection mass equals shadow measure
    assert abs(rep["coefficient_mass"] ** 2 - rep["shadow_measure"]) < 1e-10
    # Cauchy-Schwarz side of the beta estimate
    assert rep["H_beta_alpha"] <= rep["beta_4_times_alpha_4"] * (1 + 1e-10) + 1e-12
    # the d=1 symmetry identity is exact; d=2 reports a ratio
    assert 0.0 <= rep["symmetry_ratio"]
    assert rep["symmetry_reference"] == 0.5
    assert len(rep["slice_norms"]) >= 1


def test_lower_bound_experiment_rejects_members_outside_the_family():
    g = Grid(6, 2)
    fam = build_meyer_family(Grid(6, 1))
    fine = DyadicInterval(-(fam.max_scale + 1), 0)
    coarse = DyadicInterval(-1, 0)
    coll = RectangleCollection((_rect(coarse, coarse), _rect(fine, coarse)), g)
    with pytest.raises(ResolutionError):
        jn.lower_bound_experiment(dl.random_signal(g, rng), coll, fam)


def test_positive_function_symmetry_exact_in_1d():
    # ||P_+ g||^2 = (||g||^2 - |mean|^2)/2 for real g: Hermitian spectrum
    g = Grid(6, 1)
    f = dl.random_signal(g, rng, real=True)
    pp_ = dl.analytic_projection("+", 1, f)
    lhs = pp_.norm2() ** 2
    rhs = 0.5 * (f.norm2() ** 2 - abs(f.mean()) ** 2)
    # the Nyquist mode is excluded from P_+; remove it from the reference too
    spec = np.fft.fft(f.values) / g.n_points
    rhs -= 0.5 * abs(spec[g.n_points // 2]) ** 2
    assert abs(lhs - rhs) < 1e-12


def test_journe_experiment_builds_the_enlarged_set_once(tmp_path, monkeypatch):
    # every check of the experiment shares one all-ones U, so one V serves all
    from dyadiclab import experiments

    calls = []
    original = jn.enlarged_set

    def counting(U_mask, grid):
        calls.append(grid.depth)
        return original(U_mask, grid)

    monkeypatch.setattr(jn, "enlarged_set", counting)
    experiments.run({"experiment": "journe"}, tmp_path)
    assert len(calls) == 1


def _strong_maximal_by_blocks(mask, depth):
    """The padded strong maximal function block by block: one mean per
    aligned dyadic box of [-1, 2)^d at each tuple of sides."""
    N = 1 << depth
    L = 3 * N
    f = mask.astype(float)
    best = np.zeros(mask.shape)
    # (first cell, block size, count) per side 2^k, k = -depth..0, then 2^1
    sides = [(0, 1 << (depth + k), L >> (depth + k)) for k in range(-depth, 1)] + [(N, 2 * N, 1)]
    for per_axis in itertools.product(sides, repeat=mask.ndim):
        for at in itertools.product(*(range(count) for _, _, count in per_axis)):
            block = tuple(slice(first + i * size, first + (i + 1) * size)
                          for (first, size, _), i in zip(per_axis, at))
            best[block] = np.maximum(best[block], f[block].mean())
    return best


def test_padded_strong_maximal_matches_block_means():
    for d, depths in ((2, (1, 2, 3, 4)), (3, (1, 2))):
        for depth in depths:
            N = 1 << depth
            for density in (0.0, 0.2, 0.7, 1.0):
                mask = np.zeros((3 * N,) * d, dtype=bool)
                mask[(slice(N, 2 * N),) * d] = rng.random((N,) * d) < density
                assert np.array_equal(transforms._strong_maximal(mask.astype(float), depth),
                                      _strong_maximal_by_blocks(mask, depth))
            mask = rng.random((3 * N,) * d) < 0.5  # mass outside the unit cube too
            assert np.array_equal(transforms._strong_maximal(mask.astype(float), depth),
                                  _strong_maximal_by_blocks(mask, depth))


def test_strong_maximal_and_enlarged_set_share_one_kernel(monkeypatch):
    # per call of the nest on d = 2 at depth 3: one call along axis 0, then
    # one along axis 1 per side 2^-3..1, and on the window one more for [0, 2)
    cells, kernel = [], transforms._largest_mean

    def counting(a, depth, axis, **kw):
        cells.append(a.shape[axis] >> depth)  # 1 on the torus, 3 on the window
        return kernel(a, depth, axis, **kw)

    monkeypatch.setattr(transforms, "_largest_mean", counting)
    g, gen = Grid(3, 2), np.random.default_rng(21)
    dl.strong_maximal(dl.random_signal(g, gen))
    assert cells == [1] * 5
    cells.clear()
    jn.enlarged_set(gen.random(g.shape) < 0.3, g)
    assert cells == [3] * 12


# ---------------------------------------------------------------------------
# embeddedness in closed form against the bisection it replaced


def _dilate_inside(R, mu, V, N):
    """The bisection's test, on d axes: every cell of the padded window
    meeting the mu-dilate of R lies in V (a dilate leaving the window is not
    inside)."""
    cells = []
    for iv in R.coordinates:
        c, h = iv.center, iv.length / 2.0
        lo, hi = c - mu * h, c + mu * h
        if lo < -1.0 or hi > 2.0:
            return False
        cells.append(slice(int(np.floor(lo * N + 1e-12)) + N, int(np.ceil(hi * N - 1e-12)) + N))
    return bool(V[tuple(cells)].all())


def _bisected_embeddedness(R, V, N, mu_tol=1e-9):
    """Emb(R) by doubling, then bisection refined to mu_tol."""
    if not _dilate_inside(R, 1.0, V, N):
        return 1.0
    lo, hi = 1.0, 2.0
    while _dilate_inside(R, hi, V, N):
        lo, hi = hi, hi * 2.0
    while hi - lo > mu_tol * lo:
        mid = 0.5 * (lo + hi)
        if _dilate_inside(R, mid, V, N):
            lo = mid
        else:
            hi = mid
    return lo


def _boxes(depth, d):
    """Every dyadic box of [0, 1)^d with sides >= 2^-depth."""
    axis = [DyadicInterval(-p, j) for p in range(depth + 1) for j in range(1 << p)]
    return [DyadicRectangle(sides) for sides in itertools.product(axis, repeat=d)]


def _closed_form(boxes, V, depth):
    return jn._embeddedness(*dl.norms._box_arrays(boxes, boxes[0].dim), V, depth)


def _assert_matches_bisection(boxes, V, depth):
    closed = _closed_form(boxes, V, depth)
    assert closed.tolist() == [_bisected_embeddedness(r, V, 1 << depth) for r in boxes]
    # a multiple of 2^-depth, so of 2^-(depth + 1): the bisection's midpoints hit it
    assert np.all(closed * 2.0 ** depth % 1.0 == 0.0)
    return closed


def test_closed_form_matches_the_bisection_on_enlarged_sets():
    # V the enlarged set of random unions of dyadic rectangles of sides >=
    # 1/4, every dyadic box inside U
    sweep_rng = np.random.default_rng(11)
    pieces = _boxes(2, 2)
    for depth in (2, 3, 4, 5):
        g = Grid(depth, 2)
        boxes = _boxes(depth, 2)
        for _ in range(4):
            U = np.zeros(g.shape, dtype=bool)
            for i in sweep_rng.integers(0, len(pieces), size=sweep_rng.integers(1, 5)):
                U[pieces[i].cell_slices(g)] = True
            inside = [r for r in boxes if U[r.cell_slices(g)].all()]
            V = jn.enlarged_set(U, g)
            closed = _assert_matches_bisection(inside, V, depth)
            assert jn.embeddedness(inside[-1], U, g) == closed[-1]


def test_closed_form_matches_the_bisection_on_random_windows():
    # any mask of the window, in 2-D and 3-D: boxes inside and outside V,
    # finest cells (centres on half cells), and, for V all ones, dilates
    # stopped by the window's edge
    win_rng = np.random.default_rng(12)
    for d, depth in ((2, 2), (2, 3), (3, 1), (3, 2)):
        boxes, seen = _boxes(depth, d), set()
        for density in (1.0, 0.999, 0.99, 0.9):
            V = win_rng.random((3 << depth,) * d) < density
            if density < 1.0:  # a hole in the unit cube too
                V[tuple((1 << depth) + win_rng.integers(0, 1 << depth, d))] = False
            seen.update(_assert_matches_bisection(boxes, V, depth).tolist())
        assert min(seen) == 1.0 and len(seen) > 2


def test_closed_form_on_the_full_window_is_the_distance_to_its_edge():
    # V all ones: a finest cell's dilate stops at the nearer window edge
    for d, depth in ((1, 3), (2, 2), (3, 2)):
        N = 1 << depth
        cell = DyadicRectangle((DyadicInterval(-depth, 0),) * d)
        assert _closed_form([cell], np.ones((3 * N,) * d, dtype=bool), depth)[0] == 2 * N + 1


def test_checker_accepts_the_closed_form_and_rejects_any_larger_emb():
    # the cells of a 4 x 4 block: the central ones are embedded beyond 1
    g = Grid(3, 2)
    members = tuple(_rect(DyadicInterval(-3, i), DyadicInterval(-3, j))
                    for i in range(2, 6) for j in range(2, 6))
    coll = RectangleCollection(members, g)
    V, emb = _maximal_candidate(coll)
    assert max(emb.values()) > 1.0
    U = coll.shadow_mask()
    assert emb == {r: jn.embeddedness(r, U, g, V_mask=V) for r in members}
    f = dl.random_signal(g, np.random.default_rng(13))
    assert jn.journe_inequality_checker_d1(f, coll, V, emb, eta=100.0)["a_ok"]
    for r in members[:6]:
        with pytest.raises(jn.JourneCheckError, match="inside V") as err:
            jn.journe_inequality_checker_d1(f, coll, V, {**emb, r: emb[r] * (1 + 1e-9)}, eta=100.0)
        assert err.value.offenders == [r]
    # Emb 1 does not excuse a member that is not inside V
    V_hole = V.copy()
    V_hole[(g.n_points + 3,) * 2] = False
    with pytest.raises(jn.JourneCheckError, match="inside V") as err:
        jn.journe_inequality_checker_d1(f, coll, V_hole, dict.fromkeys(members, 1.0), eta=100.0)
    assert err.value.offenders == [members[5]]


def test_each_caller_makes_one_closed_form_call(monkeypatch):
    calls = []
    closed = jn._embeddedness

    def counting(scales, positions, V, depth):
        calls.append(scales.shape[1])
        return closed(scales, positions, V, depth)

    monkeypatch.setattr(jn, "_embeddedness", counting)
    call_rng = np.random.default_rng(14)
    g = Grid(3, 2)
    f = dl.random_signal(g, call_rng)
    rep = jn.journe_damped_check(f, np.ones(g.shape, dtype=bool), eps=0.5)
    assert calls == [len(rep["embeddedness"])] and calls[0] > 1
    coll = RectangleCollection((_rect(DyadicInterval(-1, 0), DyadicInterval(-2, 1)),
                                _rect(DyadicInterval(-2, 3), DyadicInterval(-1, 1))), g)
    V, emb = jn.trivial_candidate(coll)
    jn.journe_inequality_checker_d1(f, coll, V, emb, eta=0.0)
    assert calls[1:] == [2]
    members = tuple(_rect(DyadicInterval(-2, i), DyadicInterval(-2, j)) for i in (1, 2) for j in (1, 2))
    jn.lower_bound_experiment(dl.random_signal(Grid(6, 2), call_rng),
                              RectangleCollection(members, Grid(6, 2)),
                              build_meyer_family(Grid(6, 1)))
    assert calls[2:] == [4]


def test_masks_of_the_wrong_shape_are_rejected():
    # R = I(2,1) x I(2,1) on Grid(3, 2), U its own 2 x 2 block: the window V
    # gives Emb 1, where U itself read as V gave 3 and an 8 x 8 all-ones
    # mask 11 before the shapes were checked
    g = Grid(3, 2)
    R = _rect(DyadicInterval(-2, 1), DyadicInterval(-2, 1))
    U = np.zeros(g.shape, dtype=bool)
    U[2:4, 2:4] = True
    assert jn.embeddedness(R, U, g) == 1.0
    f = haar_tensor(R, g)
    coll = RectangleCollection((R,), g)
    for V in (U, np.ones(g.shape, dtype=bool)):
        with pytest.raises(ValueError, match="V_mask"):
            jn.embeddedness(R, U, g, V_mask=V)
        with pytest.raises(ValueError, match="V_mask"):
            jn.journe_damped_check(f, U, eps=0.5, V_mask=V)
        with pytest.raises(ValueError, match="V_mask"):
            jn.journe_inequality_checker_d1(f, coll, V, {R: 1.0}, eta=0.0)
    wide = np.ones((16, 16), dtype=bool)
    for call in (lambda: jn.embeddedness(R, wide, g), lambda: jn.enlarged_set(wide, g),
                 lambda: jn.journe_damped_check(f, wide, eps=0.5, V_mask=jn.enlarged_set(U, g))):
        with pytest.raises(ValueError, match="U_mask"):
            call()


def test_damped_check_on_the_polydisc():
    # one box on Grid(3, 3): ratio 1 undamped, Emb^-eps damped
    g = Grid(3, 3)
    r = DyadicRectangle((DyadicInterval(-2, 1), DyadicInterval(-2, 2), DyadicInterval(-2, 1)))
    f = haar_tensor(r, g)
    U = np.ones(g.shape, dtype=bool)
    assert abs(jn.journe_damped_check(f, U, eps=0.0)["ratio"] - 1.0) < 1e-12
    rep = jn.journe_damped_check(f, U, eps=0.5)
    mu = rep["embeddedness"][r]
    assert mu == _bisected_embeddedness(r, jn.enlarged_set(U, g), g.n_points) > 1.0
    assert abs(rep["ratio"] - mu ** -0.5) < 1e-12
