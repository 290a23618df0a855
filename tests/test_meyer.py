import numpy as np
import pytest

import dyadiclab as dl
from dyadiclab.dyadic import DyadicInterval, Grid, ResolutionError
from dyadiclab.transforms import (
    build_meyer_family,
    meyer_amplitude,
    meyer_father_profile,
    meyer_mother_profile,
    meyer_window,
    mode_numbers,
)

rng = np.random.default_rng(3)


def test_window_identity():
    t = np.linspace(0, 1, 101)
    assert np.max(np.abs(meyer_window(t) + meyer_window(1 - t) - 1.0)) < 1e-12
    assert meyer_window(0.0) == 0.0 and meyer_window(1.0) == 1.0


def test_band_support_bit_exact():
    fam = build_meyer_family(Grid(8, 1))
    k = mode_numbers(fam.axis_grid)
    for iv in fam.intervals:
        p = -iv.scale_exponent
        arr = fam.mode_array(iv, "w")
        outside = (np.abs(k) < (1 << p)) | (np.abs(k) > (1 << (p + 2)))
        assert np.all(arr[outside] == 0.0), iv  # bit-exact zero off the band


def test_gram_defect():
    fam = build_meyer_family(Grid(8, 1))
    assert fam.gram_defect() < 1e-8  # in practice ~1e-15


def test_too_coarse_grid():
    with pytest.raises(ResolutionError):
        build_meyer_family(Grid(4, 1))


def test_parts_and_reality():
    fam = build_meyer_family(Grid(7, 1))
    iv = DyadicInterval(-1, 1)
    w = fam.signal(iv, "w")
    u = fam.signal(iv, "u")
    v = fam.signal(iv, "v")
    assert np.max(np.abs(w.values.imag)) < 1e-12  # the wavelet itself is real
    assert np.max(np.abs((u + v).values - w.values)) < 1e-12
    assert abs(w.norm2() - 1.0) < 1e-12
    # v has spectrum only at positive modes
    spec = np.fft.fft(v.values) / fam.axis_grid.n_points
    k = mode_numbers(fam.axis_grid)
    assert np.max(np.abs(spec[k <= 0])) < 1e-13


def test_father_two_scale_relation():
    t = np.linspace(-4.5, 4.5, 1201)
    lhs = meyer_father_profile(t) - meyer_father_profile(2 * t)
    rhs = meyer_mother_profile(t)
    assert np.max(np.abs(lhs - rhs)) < 1e-8  # exact by construction
    # father support: 0 < |t| <= 4
    tt = np.array([4.5, 5.0, -4.2, 0.0])
    assert np.max(np.abs(meyer_father_profile(tt))) == 0.0


def test_calderon_constant_and_span_reconstruction():
    # the per-mode Calderon sum of the stretched-band profile is exactly 1/3,
    # so the system is orthonormal but spans a third of the covered band;
    # reconstruction is exact on the span.
    fam = build_meyer_family(Grid(8, 1))
    k = np.arange(6, 60)
    cal = sum(meyer_amplitude(k * 2.0 ** -p) ** 2 for p in range(20))
    assert np.max(np.abs(cal - 1.0 / 3.0)) < 1e-12

    coeffs = rng.standard_normal(len(fam.intervals)) + 1j * rng.standard_normal(len(fam.intervals))
    f = dl.zeros(fam.axis_grid)
    for c, iv in zip(coeffs, fam.intervals):
        f = f + c * fam.signal(iv, "w")
    rebuilt = dl.zeros(fam.axis_grid)
    for iv in fam.intervals:
        rebuilt = rebuilt + f.inner(fam.signal(iv, "w")) * fam.signal(iv, "w")
    assert np.max(np.abs(rebuilt.values - f.values)) < 1e-10


def test_meyer_square_function_energy():
    g = Grid(7, 1)
    fam = build_meyer_family(g)
    f = dl.random_signal(g, rng)
    s = dl.square_function(f, family="meyer", meyer=fam)
    total = sum(abs(f.inner(fam.signal(iv, "w"))) ** 2 for iv in fam.intervals)
    assert abs(s.norm2() ** 2 - total) < 1e-10
    with pytest.raises(ValueError, match="one-dimensional"):
        dl.square_function(dl.random_signal(Grid(7, 2), rng), family="meyer", meyer=fam)


def test_tensor_norms():
    fam = build_meyer_family(Grid(6, 1))
    from dyadiclab.dyadic import DyadicRectangle

    r = DyadicRectangle((DyadicInterval(-1, 0), DyadicInterval(-2, 3)))
    w = fam.tensor(r, ("w", "w"))
    assert abs(w.norm2() - 1.0) < 1e-12
    v = fam.tensor(r, ("v", "v"))
    assert abs(v.norm2() - 0.5) < 1e-12  # quarter energy in the (+,+) octant
    vn = fam.tensor(r, ("v", "v"), normalized=True)
    assert abs(vn.norm2() - 1.0) < 1e-12


def test_mixed_father_tensor():
    from dyadiclab.dyadic import DyadicRectangle

    fam = build_meyer_family(Grid(6, 1))
    r = DyadicRectangle((DyadicInterval(-1, 0), DyadicInterval(-2, 1)))
    mixed = fam.mixed_father(r, J=(1,))
    ref = np.multiply.outer(
        fam.signal(r.coordinates[0], "u").values,
        fam.signal(r.coordinates[1], "W").values,
    )
    assert np.max(np.abs(mixed.values - ref)) < 1e-14
    # both factors live on the antianalytic side: all-analytic content is zero
    spec = np.fft.fft2(mixed.values)
    assert np.max(np.abs(spec[1 : 32, 1 : 32])) < 1e-10


def _per_interval_build(fam, kind):
    """Rows and samples of one kind built one interval at a time."""
    k = mode_numbers(fam.axis_grid)
    rows, samples = [], []
    for iv in fam.intervals:
        p = -iv.scale_exponent
        t = k * 2.0 ** -p
        prof = meyer_father_profile(t) if kind == "W" else meyer_mother_profile(t)
        if kind == "v":
            prof = np.where(k > 0, prof, 0.0)
        elif kind in ("u", "W"):
            prof = np.where(k < 0, prof, 0.0)
        arr = 2.0 ** (-p / 2) * prof * np.exp(-2j * np.pi * t * iv.position)
        rows.append(arr)
        samples.append(np.fft.ifft(arr) * fam.axis_grid.n_points)
    return np.array(rows), np.array(samples).T


@pytest.mark.parametrize("depth", [6, 8])
def test_tables_match_a_per_interval_build_bit_for_bit(depth):
    fam = build_meyer_family(Grid(depth, 1))
    for kind in "wuvW":
        rows, samples = _per_interval_build(fam, kind)
        assert np.array_equal(fam.table(kind).rows, rows), kind
        assert np.array_equal(fam.table(kind).samples, samples), kind
        assert np.array_equal(fam.signal(fam.intervals[-2], kind).values, samples[:, -2])
    samples = _per_interval_build(fam, "u")[1]
    for p in fam.scales:
        assert np.array_equal(fam.block_factor(p), samples[:, (1 << p) - 1:(2 << p) - 1])


@pytest.mark.parametrize("kind, normalized", [("w", False), ("v", True)])
def test_analysis_matches_inner_products_over_rectangles(kind, normalized):
    fam = build_meyer_family(Grid(6, 1))
    b = dl.random_signal(Grid(6, 2), rng)
    C = fam.analysis(b.values, kind, normalized)
    for r in fam.rectangles():
        i1, i2 = (fam.index(iv) for iv in r.coordinates)
        t = fam.tensor(r, (kind, kind))
        ref = b.inner((1.0 / t.norm2()) * t if normalized else t)
        assert abs(C[i1, i2] - ref) < 1e-13, r
    # 1-D: one inner product per interval
    f = dl.random_signal(fam.axis_grid, rng)
    c = fam.analysis(f.values, kind, normalized)
    for i, iv in enumerate(fam.intervals):
        s = fam.signal(iv, kind)
        ref = f.inner((1.0 / s.norm2()) * s if normalized else s)
        assert abs(c[i] - ref) < 1e-13, iv


def test_synthesis_sums_the_tensors_and_inverts_the_orthonormal_analysis():
    fam = build_meyer_family(Grid(6, 1))
    n = len(fam.intervals)
    C = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    X = fam.synthesis(C, "v", normalized=True)
    ref = sum(C[fam.index(r.coordinates[0]), fam.index(r.coordinates[1])]
              * fam.tensor(r, ("v", "v")).values / fam.tensor(r, ("v", "v")).norm2()
              for r in fam.rectangles())
    assert np.max(np.abs(X - ref)) < 1e-12
    assert np.max(np.abs(fam.analysis(fam.synthesis(C), "w") - C)) < 1e-12
    # a band keeps C[rows, cols] and the members it selects
    rows, cols = slice(1, 3), slice(3, 7)
    masked = np.zeros_like(C)
    masked[rows, cols] = C[rows, cols]
    assert np.max(np.abs(fam.synthesis(C, bands=(rows, cols)) - fam.synthesis(masked))) < 1e-12


def test_index_is_the_heap_order_and_rejects_what_the_family_lacks():
    fam = build_meyer_family(Grid(7, 1))
    assert [fam.index(iv) for iv in fam.intervals] == list(range(len(fam.intervals)))
    for bad in (DyadicInterval(-2, 4), DyadicInterval(-2, -1), DyadicInterval(0, 1)):
        with pytest.raises(ValueError, match="position"):
            fam.mode_array(bad)
    with pytest.raises(ResolutionError):
        fam.signal(DyadicInterval(-(fam.max_scale + 1), 0))
    with pytest.raises(ResolutionError):
        fam.block_factor(fam.max_scale + 1)
    with pytest.raises(ValueError, match="kind"):
        fam.table("x")
