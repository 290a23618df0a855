import itertools

import numpy as np
import pytest

import dyadiclab as dl
from dyadiclab.dyadic import DyadicInterval, DyadicRectangle, Grid, Signal, constant, random_signal
from dyadiclab.transforms import (
    all_analytic_projection,
    analytic_projection,
    apply_multipliers,
    axis_mean_projection,
    axis_multiplier,
    fourier_mode,
    from_spectrum,
    haar_analysis,
    haar_synthesis,
    hilbert_transform,
    on_axis,
    product_projection,
    signum_transform,
    square_function,
    strong_maximal,
    to_spectrum,
)

rng = np.random.default_rng(42)


def test_spectrum_roundtrip():
    f = random_signal(Grid(6, 1), rng)
    back = from_spectrum(to_spectrum(f))
    assert np.max(np.abs(back.values - f.values)) < 1e-12
    f2 = random_signal(Grid(4, 2), rng)
    back2 = from_spectrum(to_spectrum(f2))
    assert np.max(np.abs(back2.values - f2.values)) < 1e-12


def test_projection_conventions():
    g = Grid(5, 1)
    c = constant(g, 3.0)
    assert analytic_projection("+", 1, c).norm2() < 1e-14
    assert analytic_projection("-", 1, c).norm2() < 1e-14
    e1 = fourier_mode(g, 1)
    assert np.max(np.abs(analytic_projection("+", 1, e1).values - e1.values)) < 1e-12
    assert analytic_projection("-", 1, e1).norm2() < 1e-14
    # real signals split evenly
    f = random_signal(g, rng, real=True)
    assert abs(analytic_projection("+", 1, f).norm2() - analytic_projection("-", 1, f).norm2()) < 1e-12
    # idempotent and orthogonal
    pp = analytic_projection("+", 1, f)
    assert np.max(np.abs(analytic_projection("+", 1, pp).values - pp.values)) < 1e-12
    assert analytic_projection("-", 1, pp).norm2() < 1e-13
    # P_+ + P_- + mean/Nyquist extraction = identity
    total = (
        analytic_projection("+", 1, f).values
        + analytic_projection("-", 1, f).values
        + axis_mean_projection(1, f).values
    )
    assert np.max(np.abs(total - f.values)) < 1e-12


def test_product_projections_2d():
    g = Grid(4, 2)
    f = random_signal(g, rng)
    sigmas = [(a, b) for a in "+-" for b in "+-"]
    # mutually orthogonal idempotents
    parts = {s: product_projection(s, f) for s in sigmas}
    for s, fs in parts.items():
        again = product_projection(s, fs)
        assert np.max(np.abs(again.values - fs.values)) < 1e-12
        for s2, fs2 in parts.items():
            if s2 != s:
                assert abs(fs.inner(fs2)) < 1e-12
    # sum of all sigma parts plus axis-mean corrections is the identity
    total = sum(p.values for p in parts.values())
    m1 = axis_mean_projection(1, f).values
    m2 = axis_mean_projection(2, f).values
    mm = axis_mean_projection(2, axis_mean_projection(1, f)).values
    # inclusion-exclusion: remaining = m1 + m2 - mm plus cross terms of mean with +/-
    rest = f.values - total
    rebuilt = np.zeros_like(rest)
    for s in "+-":
        rebuilt += analytic_projection(s, 2, axis_mean_projection(1, f)).values
        rebuilt += analytic_projection(s, 1, axis_mean_projection(2, f)).values
    rebuilt += mm
    assert np.max(np.abs(rest - rebuilt)) < 1e-12


def test_hilbert_transform():
    g = Grid(5, 1)
    x = g.points()
    cosx = Signal(g, np.cos(2 * np.pi * x))
    assert np.max(np.abs(hilbert_transform(1, cosx).values - np.sin(2 * np.pi * x))) < 1e-12
    assert hilbert_transform(1, constant(g)).norm2() < 1e-14
    f = random_signal(g, rng)
    hh = hilbert_transform(1, hilbert_transform(1, f))
    mean_part = axis_mean_projection(1, f)
    assert np.max(np.abs(hh.values - (-(f.values - mean_part.values)))) < 1e-12
    # the sign-multiplier variant is i times the real-for-real one
    assert np.max(np.abs(signum_transform(1, f).values - 1j * hilbert_transform(1, f).values)) < 1e-12


def test_array_multipliers_act_on_a_batch():
    for d in (1, 2):
        g = Grid(6 if d == 1 else 4, d)
        stack = np.stack([random_signal(g, rng).values for _ in range(5)])
        cases = []
        for ax in range(1, d + 1):
            for s in "+-":
                cases.append((on_axis(s, ax, d), lambda f, s=s, ax=ax: analytic_projection(s, ax, f)))
            cases.append((on_axis("hilbert", ax, d), lambda f, ax=ax: hilbert_transform(ax, f)))
            cases.append((on_axis("signum", ax, d), lambda f, ax=ax: signum_transform(ax, f)))
        for sigma in itertools.product("+-", repeat=d):
            cases.append((sigma, lambda f, sigma=sigma: product_projection(sigma, f)))
        for kinds, per_signal in cases:
            batched = apply_multipliers(kinds, stack)
            for vals, out in zip(stack, batched):
                assert np.max(np.abs(out - per_signal(Signal(g, vals)).values)) <= 1e-15
            # in place on a copy gives the same array
            again = stack.copy()
            assert apply_multipliers(kinds, again, out=again) is again
            assert np.max(np.abs(again - batched)) <= 1e-15


def test_cached_multipliers_are_read_only():
    for kind in ("+", "-", "mean", "hilbert", "signum"):
        mult = axis_multiplier(kind, 16)
        assert mult is axis_multiplier(kind, 16)
        with pytest.raises(ValueError):
            mult[1] = 2.0
    assert np.array_equal(axis_multiplier("hilbert", 8), -1j * np.array([0, 1, 1, 1, 0, -1, -1, -1]))


def test_haar_roundtrip_and_parseval():
    f = random_signal(Grid(6, 1), rng)
    coeffs = haar_analysis(f)
    back = haar_synthesis(coeffs)
    assert np.max(np.abs(back.values - f.values)) < 1e-12
    assert abs(coeffs.total_energy() - f.norm2() ** 2) < 1e-12

    f2 = random_signal(Grid(4, 2), rng)
    c2 = haar_analysis(f2)
    back2 = haar_synthesis(c2)
    assert np.max(np.abs(back2.values - f2.values)) < 1e-12
    assert abs(c2.total_energy() - f2.norm2() ** 2) < 1e-12

    f3 = random_signal(Grid(3, 3), np.random.default_rng(3))
    c3 = haar_analysis(f3)
    assert np.max(np.abs(haar_synthesis(c3).values - f3.values)) < 1e-12
    assert abs(c3.total_energy() - f3.norm2() ** 2) < 1e-12


@pytest.mark.parametrize("depth, dim", [(3, 1), (3, 2), (2, 3)])
def test_haar_coefficients_in_heap_order(depth, dim):
    # index 0 of an axis is the torus with eps = 1, index 2^p + j is I(p, j) with eps = 0
    g = Grid(depth, dim)
    f = random_signal(g, np.random.default_rng(4))
    values = haar_analysis(f).values
    assert values.shape == g.shape
    torus = DyadicInterval(0, 0)
    for index in itertools.product(range(g.n_points), repeat=dim):
        sides = [DyadicInterval(-(i.bit_length() - 1), i - (1 << (i.bit_length() - 1))) if i else torus
                 for i in index]
        eps = tuple(int(i == 0) for i in index)
        want = f.inner(dl.haar_tensor(DyadicRectangle(tuple(sides)), g, eps))
        assert abs(values[index] - want) < 1e-12


def test_haar_single_wavelet_and_constant():
    g = Grid(4, 1)
    h = dl.haar_function(0, DyadicInterval(0, 0), g)
    c = haar_analysis(h)
    assert abs(c.band(0)[0] - 1.0) < 1e-13
    assert abs(c.mean) < 1e-14
    others = sum(np.sum(np.abs(c.band(p)) ** 2) for p in range(1, 4))
    assert others < 1e-26

    ones = haar_analysis(constant(g))
    assert abs(ones.mean - 1.0) < 1e-14
    assert all(np.max(np.abs(ones.band(p))) < 1e-14 for p in range(4))


def test_dyadic_maximal():  # the strong maximal function in 1-D
    g = Grid(4, 1)
    assert np.max(np.abs(strong_maximal(constant(g)).values - 1.0)) < 1e-14
    f = Signal(g, (g.points() < 0.25).astype(complex))
    m = strong_maximal(f).values.real
    assert np.allclose(m[:4], 1.0)
    assert np.allclose(m[4:8], 0.5)
    assert np.allclose(m[8:], 0.25)
    # monotone on nonnegative inputs
    a = Signal(g, rng.random(g.shape))
    b = Signal(g, a.values + rng.random(g.shape))
    assert np.all(strong_maximal(a).values.real <= strong_maximal(b).values.real + 1e-14)


def test_strong_maximal():
    g = Grid(3, 2)
    f = Signal(g, np.zeros(g.shape))
    f.values[:4, :4] = 1.0  # indicator of [0,1/2)^2
    m = strong_maximal(f).values.real
    # at (3/4, 3/4) the only covering dyadic rectangle with mass is the full square
    assert abs(m[6, 6] - 0.25) < 1e-14
    assert abs(m[0, 0] - 1.0) < 1e-14
    # brute force comparison on all cells
    from dyadiclab.dyadic import enumerate_rectangles

    rects = enumerate_rectangles(g, g.cell_width)
    brute = np.zeros(g.shape)
    for r in rects:
        s1, s2 = r.cell_slices(g)
        avg = abs(f.values[s1, s2].mean())
        brute[s1, s2] = np.maximum(brute[s1, s2], avg)
    assert np.max(np.abs(m - brute)) < 1e-13


def _largest_box_means(values, depth):
    """|mean| of values over every dyadic box of the torus, box by box, the
    largest at each cell."""
    best = np.zeros(values.shape)
    for sides in itertools.product([1 << k for k in range(depth + 1)], repeat=values.ndim):
        for at in itertools.product(*(range((1 << depth) // s) for s in sides)):
            box = tuple(slice(i * s, (i + 1) * s) for s, i in zip(sides, at))
            best[box] = np.maximum(best[box], abs(values[box].mean()))
    return best


def test_strong_maximal_matches_box_means_for_any_d():
    gen = np.random.default_rng(20)  # its own draws: the module generator's later ones stay put
    for d, depths in ((1, range(1, 7)), (2, range(1, 5)), (3, (1, 2))):
        for depth in depths:
            f = random_signal(Grid(depth, d), gen)
            m = strong_maximal(f).values
            assert m.dtype == complex and not np.any(m.imag)
            brute = _largest_box_means(f.values, depth)
            assert np.max(np.abs(m.real - brute) / brute) <= 1e-15


def test_square_function():
    g = Grid(5, 1)
    h = dl.haar_function(0, DyadicInterval(0, 0), g)
    s = square_function(h)
    assert np.max(np.abs(s.values - 1.0)) < 1e-12
    assert square_function(constant(g)).norm2() < 1e-14
    f = random_signal(g, rng)
    coeffs = haar_analysis(f)
    total = sum(float(np.sum(np.abs(coeffs.band(p)) ** 2)) for p in range(5))
    assert abs(square_function(f).norm2() ** 2 - total) < 1e-12


def test_lp_monotone_on_probability_space():
    f = random_signal(Grid(6, 1), rng)
    assert dl.lp_norm(f, 4) >= dl.lp_norm(f, 2) - 1e-14
    f2 = random_signal(Grid(4, 2), rng)
    assert dl.lp_norm(f2, 4) >= dl.lp_norm(f2, 2) - 1e-14
