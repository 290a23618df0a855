"""Acceptance gate: every release-blocking property at its stated tolerance.

Each test prints one [PASS]/[FAIL] line (visible under `pytest -s` or in the
captured output of failures).  Tolerances are pinned here, not configurable.
"""

import time

import numpy as np

from dyadiclab.dyadic import Grid, Signal, random_signal
from dyadiclab import aak, experiments as ex, hankel as hk, journe as jn
from dyadiclab import norms, paraproducts as pp
from dyadiclab.transforms import build_meyer_family, haar_analysis, haar_synthesis, mode_numbers


def _report(num, desc, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {num:2d}: {desc}  {detail}")
    assert ok, f"criterion {num}: {desc}  {detail}"


def test_criterion_01_commutator_decomposition_exact():
    t0 = time.time()
    grid = Grid(6, 1)
    worst = 0.0
    for t in range(50):
        rng = ex.trial_rng(101, t)
        b = Signal(grid, rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape))
        pieces = pp.decompose_commutator_Gleft(b, check_tol=np.inf)
        target = pp.commutator_gleft_matrix(b)
        worst = max(worst, float(np.max(np.abs(pieces.total() - target))))
    elapsed = time.time() - t0
    _report(1, "[M_b, G_left] = sum of paraproduct pieces (50 symbols, n=6)",
            worst <= 1e-12 and elapsed < 30.0,
            f"max residual {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_restricted_sum_identity():
    worst = 0.0
    for n in (4, 5, 6):
        grid = Grid(n, 1)
        rng = ex.trial_rng(102, n)
        b = random_signal(grid, rng)
        f = random_signal(grid, rng)
        lhs = pp.para_haar(b, f)
        rhs = pp.para_double_sum(b, f)
        worst = max(worst, float(np.max(np.abs(lhs.values - rhs.values))))
    _report(2, "para_haar equals the brute-force double sum over I inside J",
            worst <= 1e-12, f"max residual {worst:.2e}")


def test_criterion_03_haar_parseval_meyer_gram_band():
    rng = ex.trial_rng(103, 0)
    f = random_signal(Grid(6, 1), rng)
    c = haar_analysis(f)
    recon = float(np.max(np.abs(haar_synthesis(c).values - f.values)))
    parseval = abs(c.total_energy() - f.norm2() ** 2)
    f2 = random_signal(Grid(4, 2), rng)
    c2 = haar_analysis(f2)
    recon2 = float(np.max(np.abs(haar_synthesis(c2).values - f2.values)))
    parseval2 = abs(c2.total_energy() - f2.norm2() ** 2)

    fam = build_meyer_family(Grid(8, 1))
    gram = fam.gram_defect()
    k = mode_numbers(fam.axis_grid)
    band_exact = True
    for iv in fam.intervals:
        p = -iv.scale_exponent
        arr = fam.mode_array(iv, "w")
        outside = (np.abs(k) < (1 << p)) | (np.abs(k) > (1 << (p + 2)))
        if not np.all(arr[outside] == 0.0):
            band_exact = False
    ok = (max(recon, parseval, recon2, parseval2) <= 1e-12
          and gram <= 1e-8 and band_exact)
    _report(3, "Haar Parseval/reconstruction; Meyer Gram and exact band support",
            ok, f"haar {max(recon, parseval, recon2, parseval2):.2e}, gram {gram:.2e}, band bit-zero {band_exact}")


def test_criterion_04_hankel_structure():
    rng = ex.trial_rng(104, 0)
    worst_eq = 0.0
    worst_tw = 0.0
    worst_anti = 0.0
    for t in range(10):
        b = hk.random_symbol(8, ex.trial_rng(104, t))
        Hop = hk.hankel_operator_1d(b)
        Hst = hk.hankel_matrix(b.coeffs, 8)
        worst_eq = max(worst_eq, float(np.max(np.abs(Hop.matrix.entries - Hst.matrix.entries))))
        worst_tw = max(worst_tw, hk.check_intertwining(Hst))
        grid = Grid(6, 1)
        perturbed = b.to_signal(grid).values
        x = grid.points()
        for m, amp in ((2, 0.9), (7, 1.1j)):
            perturbed = perturbed + amp * np.exp(-2j * np.pi * m * x)
        cols = np.empty((8, 8), dtype=complex)
        for j in range(8):
            phi = np.exp(2j * np.pi * j * x)
            cols[:, j] = (np.fft.fft(perturbed * np.conj(phi)) / grid.n_points)[:8]
        worst_anti = max(worst_anti, float(np.max(np.abs(cols - Hop.matrix.entries))))
    ok = worst_eq <= 1e-12 and worst_tw == 0.0 and worst_anti <= 1e-12
    _report(4, "Hankel operator = structural matrix; intertwining; analytic part only",
            ok, f"equality {worst_eq:.2e}, intertwining {worst_tw:.2e}, antianalytic {worst_anti:.2e}")


def test_criterion_05_block_identities():
    rng = ex.trial_rng(105, 0)
    g1 = Grid(6, 1)
    b1 = hk.random_symbol(8, rng).to_signal(g1)
    b1 = b1 - Signal(g1, np.full(g1.shape, b1.mean()))
    d1 = hk.block_identity_check(b1, mode_cutoff=12)
    g2 = Grid(6, 2)
    b2 = hk.random_symbol(8, ex.trial_rng(105, 1), dim=2).to_signal(g2)
    d2 = hk.block_identity_check(b2, mode_cutoff=8)
    ok = d1 <= 1e-12 and d2 <= 1e-12
    _report(5, "commutator projection-block identities (d=1 four-block, d=2 sign*2^d)",
            ok, f"d=1 defect {d1:.2e}, d=2 defect {d2:.2e}")


def test_criterion_06_parrott_and_extension():
    t0 = time.time()
    worst_gap = 0.0
    for t in range(200):
        rng = ex.trial_rng(106, t)
        A = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        B = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        C = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        p = aak.BlockProblem(A, B, C)
        res = aak.parrott_min(p)
        worst_gap = max(worst_gap, abs(res["achieved_norm"] - aak.parrott_closed_form(p)))
    worst_ext = 0.0
    for m in (4, 16, 64):
        rng = ex.trial_rng(106, 1000 + m)
        seq = rng.standard_normal(2 * m - 1) + 1j * rng.standard_normal(2 * m - 1)
        H = hk.hankel_matrix(seq, m)
        ext = aak.extend_hankel_step(H)
        worst_ext = max(worst_ext, abs(H.sequence_norm() - ext.sequence_norm()))
    elapsed = time.time() - t0
    ok = worst_gap <= 1e-8 and worst_ext <= 1e-8 and elapsed < 60.0
    _report(6, "Parrott completion attains the closed form; extension norm-preserving",
            ok, f"completion gap {worst_gap:.2e}, extension defect {worst_ext:.2e}, {elapsed:.1f}s")


def test_criterion_07_nehari_equivalence_desk_scale():
    ratios = []
    for t in range(100):
        b = hk.random_symbol(32, ex.trial_rng(107, t))
        ratios.append(hk.nehari_ratio(b)["ratio"])
    ratios = np.array(ratios)
    spread = ratios.max() / ratios.min()

    means = []
    for m in (8, 16, 32):
        vals = [hk.nehari_ratio(hk.random_symbol(m, ex.trial_rng(107, 10_000 * m + t)))["ratio"]
                for t in range(40)]
        means.append(np.mean(np.log(vals)))
    slope = float(np.polyfit(np.log2([8, 16, 32]), means, 1)[0])

    ratios2 = []
    for t in range(30):
        b = hk.random_symbol(4, ex.trial_rng(107, 20_000 + t), dim=2)
        ratios2.append(hk.nehari_ratio(b, product_depth=2)["ratio"])
    ratios2 = np.array(ratios2)
    spread2 = ratios2.max() / ratios2.min()

    ok = spread < 10.0 and abs(slope) <= 0.1 and spread2 < 10.0
    _report(7, "Hankel/BMO ratio spread and degree trend (1D and little Hankel)",
            ok, f"1D max/min {spread:.3f}, slope {slope:+.4f}, 2D max/min {spread2:.3f}")


def test_criterion_08_meyer_case_zero_exact():
    fam = build_meyer_family(Grid(8, 1))
    all_zero = True
    checked = 0
    for I in fam.intervals:
        for J in fam.intervals:
            if 8.0 * J.length < I.length:
                checked += 1
                if not jn.hankel_cases_1d(fam, I, J)["pos_is_zero"]:
                    all_zero = False
    _report(8, "P_+(v_I conj v_J) bit-exact zero whenever 8|J| < |I| (n=8)",
            all_zero and checked > 0, f"{checked} pairs checked")


def test_criterion_09_petermichl_convergence():
    grid = Grid(10, 1)
    x = grid.points()
    z = (x - 0.5) / 0.08
    vals = z * np.exp(-z * z)
    f = Signal(grid, vals - vals.mean())
    rep64 = pp.petermichl_fit_on_signal(f, Y=8.0, s_steps=64, y_steps=64)
    rep32 = pp.petermichl_fit_on_signal(f, Y=8.0, s_steps=32, y_steps=32)
    ok = rep64["relative_error"] < 0.05 and rep64["relative_error"] < rep32["relative_error"]
    _report(9, "averaged shift fits c*H within 5% at n=10, improving with quadrature",
            ok, f"err(64^2) {rep64['relative_error']:.4f}, err(32^2) {rep32['relative_error']:.4f}, c {rep64['fitted_c']:.4f}")


def test_criterion_10_carleson_separation():
    exact_ratios = []
    for n in (0, 1, 2):
        g = Grid(n + 3, 2)
        b, _ = jn.carleson_family(n, g, seed=0)
        exact_ratios.append(norms.bmo_product(b, mode="exact").value / norms.bmo_rect(b).value)
    heuristic_ratios = []
    for n in (3, 4):
        g = Grid(n + 3, 2)
        b, _ = jn.carleson_family(n, g, seed=0)
        heuristic_ratios.append(norms.bmo_product(b, mode="heuristic").value / norms.bmo_rect(b).value)
    ok = (exact_ratios[0] < exact_ratios[1] < exact_ratios[2]
          and exact_ratios[1] > 1.0
          and exact_ratios[2] < heuristic_ratios[0] < heuristic_ratios[1])
    _report(10, "product/rect BMO ratio grows along the Carleson family",
            ok, "ratios " + ", ".join(f"{r:.4f}" for r in exact_ratios + heuristic_ratios))


def test_criterion_11_journe_damping():
    summary = ex.CATALOG["journe"]["fn"]({"seed": 0, "n": 2, "eps": 0.5}, 1)[1]
    ok = (summary["max_within_3x_median"]
          and summary["undamped_exceeds_family_max"]
          and summary["damped_carleson_ratio"] < summary["undamped_carleson_ratio"])
    _report(11, "damped ratios bounded across the staircase family; undamped Carleson exceeds them",
            ok, f"family max {summary['family_max_ratio']:.4f}, median {summary['family_median_ratio']:.4f}, "
                f"undamped {summary['undamped_carleson_ratio']:.4f}")


def test_criterion_12_determinism(tmp_path):
    cfg = {"experiment": "nehari1d", "M": 8, "trials": 6, "M_list": [4, 8],
           "trend_trials": 4, "seed": 7}
    blobs = []
    for threads in (1, 2, 8):
        out = tmp_path / f"t{threads}"
        ex.run(cfg, out, threads=threads)
        blobs.append(((out / "manifest.json").read_bytes(), (out / "rows.csv").read_bytes()))
    ok = blobs[0] == blobs[1] == blobs[2]
    _report(12, "identical config reruns are byte-identical under 1/2/8 threads", ok)
