import numpy as np
import pytest

from dyadiclab.dyadic import (
    DyadicInterval,
    DyadicRectangle,
    Grid,
    RectangleCollection,
    ResolutionError,
    enumerate_intervals,
    enumerate_rectangles,
    haar_function,
    haar_tensor,
    shifted_haar_g,
)


def test_interval_geometry():
    I = DyadicInterval(-2, 3)  # [3/4, 1)
    assert I.length == 0.25
    assert I.left == 0.75
    assert I.center == 0.875
    assert I.left_half() == DyadicInterval(-3, 6)
    assert I.parent() == DyadicInterval(-1, 1)


def test_nesting_trichotomy_exhaustive():
    # two dyadic intervals are nested, disjoint, or equal: every pair at
    # depth 5, a strided sample at depth 6
    for depth, s1, s2 in ((5, 1, 1), (6, 7, 5)):
        intervals = enumerate_intervals(depth, 2.0 ** -depth)
        for I in intervals[::s1]:
            for J in intervals[::s2]:
                relations = [
                    I == J,
                    I != J and I.contains(J),
                    I != J and J.contains(I),
                    I.is_disjoint(J),
                ]
                assert sum(bool(r) for r in relations) == 1, (I, J)


def test_haar_function_examples():
    g1 = Grid(1, 1)
    h = haar_function(0, DyadicInterval(0, 0), g1)
    assert np.allclose(h.values, [-1.0, 1.0])

    g3 = Grid(3, 1)
    h = haar_function(0, DyadicInterval(-1, 0), g3)
    expect = np.array([-1, -1, 1, 1, 0, 0, 0, 0]) * np.sqrt(2)
    assert np.allclose(h.values, expect)
    assert abs(h.norm2() - 1.0) < 1e-12
    assert abs(h.mean()) < 1e-15
    # orthogonal to the top-level Haar function
    top = haar_function(0, DyadicInterval(0, 0), g3)
    assert abs(h.inner(top)) < 1e-14

    one = haar_function(1, DyadicInterval(0, 0), g3)
    assert np.allclose(one.values, 1.0)
    assert abs(one.norm2() - 1.0) < 1e-12


def test_haar_orthonormality_all_pairs():
    g = Grid(5, 1)
    intervals = enumerate_intervals(5, 2.0 ** -4)
    funcs = [haar_function(0, iv, g) for iv in intervals]
    for a, fa in enumerate(funcs):
        for b, fb in enumerate(funcs):
            expect = 1.0 if a == b else 0.0
            assert abs(fa.inner(fb) - expect) < 1e-12


def test_haar_resolution_error():
    g = Grid(2, 1)
    with pytest.raises(ResolutionError, match="resolution"):
        haar_function(0, DyadicInterval(-2, 0), g)
    # indicator of a single cell is still fine
    haar_function(1, DyadicInterval(-2, 0), g)


def test_pairing_with_indicator_quadrature():
    # <h_J, h^1_I> = sqrt(|I|) h_J(c(I)) for I strictly inside J, else 0
    g = Grid(5, 1)
    intervals = enumerate_intervals(5, 2.0 ** -4)
    for J in intervals:
        hJ = haar_function(0, J, g)
        for I in intervals:
            h1I = haar_function(1, I, g)
            got = hJ.inner(h1I)
            if I.is_disjoint(J) or (I.contains(J)):
                assert abs(got) < 1e-13, (I, J)
            elif J.contains(I) and I != J:
                center_cell = int(I.center * g.n_points)
                expect = np.sqrt(I.length) * hJ.values[center_cell]
                assert abs(got - expect) < 1e-13, (I, J)


def test_shifted_haar_g():
    g = Grid(2, 1)
    I = DyadicInterval(0, 0)
    gI = shifted_haar_g(I, g)
    manual = haar_function(0, DyadicInterval(-1, 1), g) - haar_function(0, DyadicInterval(-1, 0), g)
    assert np.allclose(gI.values, manual.values)
    assert abs(gI.inner(gI) - 2.0) < 1e-12
    assert abs(gI.inner(haar_function(0, I, g))) < 1e-13
    with pytest.raises(ResolutionError):
        shifted_haar_g(DyadicInterval(-1, 0), g)


def test_enumerate_counts():
    assert len(enumerate_intervals(2, 0.25)) == 7
    assert len(enumerate_rectangles(Grid(1, 2), 0.5)) == 9
    assert len(enumerate_rectangles(Grid(2, 2), 0.25)) == 49
    # deterministic order
    a = enumerate_rectangles(Grid(2, 2), 0.25)
    b = enumerate_rectangles(Grid(2, 2), 0.25)
    assert a == b


def test_shadow():
    g = Grid(3, 2)
    empty = RectangleCollection((), g)
    measure = empty.shadow_measure()
    assert measure == 0.0
    full = RectangleCollection((DyadicRectangle((DyadicInterval(0, 0),) * 2),), g)
    measure = full.shadow_measure()
    assert abs(measure - 1.0) < 1e-15
    ell = RectangleCollection(
        (
            DyadicRectangle((DyadicInterval(-1, 0), DyadicInterval(0, 0))),
            DyadicRectangle((DyadicInterval(0, 0), DyadicInterval(-1, 0))),
        ),
        g,
    )
    measure = ell.shadow_measure()
    assert abs(measure - 0.75) < 1e-15
    assert np.count_nonzero(ell.shadow_mask()) == 48


def test_a_collection_rejects_members_outside_the_unit_square():
    # a member that leaves [0,1)^2 was once clipped silently: these three
    # together read shadow measure 0.5, the second dropped and the third cut
    # down to the whole first axis
    g = Grid(3, 2)
    members = tuple(DyadicRectangle((DyadicInterval(*side), DyadicInterval(-1, 0)))
                    for side in ((-1, 0), (-1, 2), (1, 0)))
    assert RectangleCollection(members[:1], g).shadow_measure() == 0.25
    for bad in (members, members[1:2], members[2:]):
        with pytest.raises(ValueError, match=r"must lie in \[0,1\)\^2"):
            RectangleCollection(bad, g)
    with pytest.raises(ValueError, match="dimension 1 for a signal of dimension 2"):
        RectangleCollection((DyadicRectangle((DyadicInterval(-1, 0),)),), g)


def test_haar_tensor_norm():
    g = Grid(3, 2)
    r = DyadicRectangle((DyadicInterval(-1, 1), DyadicInterval(-2, 2)))
    w = haar_tensor(r, g)
    assert abs(w.norm2() - 1.0) < 1e-12
