"""Batch experiment driver: deterministic configs, per-trial RNG streams,
CSV + JSON result files.

Determinism contract: every trial draws from its own counter-based stream
Philox(key=(seed, trial_index)), trials may run on any number of threads,
and aggregation sorts by trial index, so reruns of the same config produce
byte-identical manifest and CSV files.  Wall-clock data goes to a separate
run_info.json that is excluded from the contract.

The `threads` argument sizes the trial pool of `_map_trials`, which
para-bound, commutator-decomp and aak-extend use.  nehari1d and nehari2d
stack their trials' symbols along an array axis and run them through the
batched kernels of `hankel.nehari_ratios` instead; the other experiments
have no trials to spread.
"""

from __future__ import annotations

import csv
import json
import math
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import __version__
from .dyadic import (
    DyadicInterval,
    DyadicRectangle,
    Grid,
    RectangleCollection,
    Signal,
    haar_tensor,
)
from . import aak, hankel, journe, norms, paraproducts, transforms


class ConfigError(ValueError):
    pass


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    """The documented counter-based stream: Philox keyed by (seed, trial)."""
    key = np.array([seed, trial], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _map_trials(fn, n_trials: int, threads: int):
    if threads <= 1:
        results = [fn(t) for t in range(n_trials)]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(fn, range(n_trials)))
    return results


def _slope(xs: np.ndarray, ys: np.ndarray) -> float:
    """Least-squares slope of ys against xs; NaN on fewer than two distinct xs,
    where no line is determined."""
    if len(set(xs.tolist())) < 2:
        return np.nan
    return float(np.polyfit(xs, ys, 1)[0])


# ---------------------------------------------------------------------------
# individual experiments; each returns (rows, summary, exactness_flags)


def _symbol_stack(seed: int, trials: int, degree: int, dim: int = 1) -> np.ndarray:
    """The analytic coefficients of trials random symbols, trial t drawn from
    its own stream trial_rng(seed, t), stacked along the leading axis."""
    return np.stack([hankel.random_symbol(degree, trial_rng(seed, t), dim=dim).coeffs
                     for t in range(trials)])


def _nehari_rows(rep: dict, degree: int) -> list:
    return [{"trial": t, "M": degree, "hankel_norm": h, "bmo_value": v, "ratio": r}
            for t, (h, v, r) in enumerate(zip(rep["hankel_norm"].tolist(),
                                              rep["bmo_value"].tolist(), rep["ratio"].tolist()))]


def _exp_nehari1d(cfg, threads):
    seed = cfg["seed"]
    trials = cfg.get("trials", 100)
    degree = cfg.get("M", 32)
    m_list = cfg.get("M_list", [8, 16, 32])
    trend_trials = cfg.get("trend_trials", 40)

    rows = _nehari_rows(hankel.nehari_ratios(_symbol_stack(seed, trials, degree), "dyadic"), degree)
    ratios = np.array([r["ratio"] for r in rows])
    summary = {
        "ratio_min": float(ratios.min()),
        "ratio_max": float(ratios.max()),
        "ratio_mean": float(ratios.mean()),
        "max_over_min": float(ratios.max() / ratios.min()),
        "hankel_projection": "analytic (k >= 0, Hardy with DC)",
        "hilbert_normalization": "-i sgn(k)",
    }
    # trend across degrees
    trend_rows = []
    for m in m_list:
        vals = hankel.nehari_ratios(_symbol_stack(seed + 1000 * m, trend_trials, m), "dyadic")["ratio"]
        mean_log = float(np.mean(np.log(vals)))
        trend_rows.append({"trial": -1, "M": m, "hankel_norm": np.nan,
                           "bmo_value": np.nan, "ratio": float(np.exp(mean_log))})
        summary[f"mean_log_ratio_M{m}"] = mean_log
    xs = np.log2(np.array(m_list, dtype=float))
    ys = np.array([summary[f"mean_log_ratio_M{m}"] for m in m_list])
    summary["log_ratio_slope_per_log2M"] = _slope(xs, ys)
    return rows + trend_rows, summary, ["exact"]


def _exp_nehari2d(cfg, threads):
    seed = cfg["seed"]
    trials = cfg.get("trials", 30)
    degree = cfg.get("M", 4)
    depth = cfg.get("n", 2)

    rep = hankel.nehari_ratios(_symbol_stack(seed, trials, degree, dim=2), "product_exact",
                               product_depth=depth)
    rows = _nehari_rows(rep, degree)
    ratios = np.array([r["ratio"] for r in rows])
    summary = {
        "ratio_min": float(ratios.min()),
        "ratio_max": float(ratios.max()),
        "max_over_min": float(ratios.max() / ratios.min()),
        "bmo_depth": depth,
        "hankel_projection": "all-analytic octant (k_i >= 0, Hardy with DC)",
    }
    return rows, summary, ["exact"]


def _exp_para_bound(cfg, threads):
    seed = cfg["seed"]
    trials = cfg.get("trials", 5)
    n_list = cfg.get("n_list", [4, 5, 6, 7, 8])

    rows = []
    for n in n_list:
        grid = Grid(n, 1)

        def one(t, n=n, grid=grid):
            rng = trial_rng(seed + 37 * n, t)
            b = Signal(grid, rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape))
            b = b - Signal(grid, np.full(grid.shape, b.mean()))
            mat = paraproducts.para_haar_matrix(b)
            ratio = norms.operator_norm(mat) / norms.bmo_dyadic(b).value
            return {"trial": t, "n": n, "ratio": ratio}

        rows.extend(_map_trials(one, trials, threads))
    by_n = {}
    for r in rows:
        by_n.setdefault(r["n"], []).append(r["ratio"])
    max_ratios = {n: max(v) for n, v in by_n.items()}
    xs = np.array(sorted(max_ratios), dtype=float)
    ys = np.log(np.array([max_ratios[int(n)] for n in xs]))
    summary = {"max_ratio_by_n": {str(k): float(v) for k, v in sorted(max_ratios.items())},
               "log_max_ratio_slope_vs_n": _slope(xs, ys)}
    return rows, summary, ["exact"]


def _exp_commutator_decomp(cfg, threads):
    seed = cfg["seed"]
    trials = cfg.get("trials", 50)
    n = cfg.get("n", 6)
    grid = Grid(n, 1)

    def one(t):
        rng = trial_rng(seed, t)
        b = Signal(grid, rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape))
        residual = paraproducts.decompose_commutator_Gleft(b, check_tol=np.inf).residual
        return {"trial": t, "n": n, "residual": residual}

    rows = _map_trials(one, trials, threads)
    summary = {"max_residual": float(max(r["residual"] for r in rows))}
    return rows, summary, ["exact"]


def _exp_petermichl(cfg, threads):
    n = cfg.get("n", 10)
    Y = cfg.get("Y", 8.0)
    steps = cfg.get("steps", 64)
    y_measure = cfg.get("y_measure", "uniform")
    width = cfg.get("bump_width", 0.08)
    grid = Grid(n, 1)
    x = grid.points()
    z = (x - 0.5) / width
    vals = z * np.exp(-z * z)
    f = Signal(grid, vals - vals.mean())
    rep_full = paraproducts.petermichl_fit_on_signal(
        f, Y=Y, s_steps=steps, y_steps=steps, y_measure=y_measure)
    rep_half = paraproducts.petermichl_fit_on_signal(
        f, Y=Y, s_steps=steps // 2, y_steps=steps // 2, y_measure=y_measure)
    rows = [
        {"trial": 0, "steps": steps, "fitted_c": rep_full["fitted_c"],
         "relative_error": rep_full["relative_error"]},
        {"trial": 1, "steps": steps // 2, "fitted_c": rep_half["fitted_c"],
         "relative_error": rep_half["relative_error"]},
    ]
    summary = {
        "fitted_c": rep_full["fitted_c"],
        "relative_error": rep_full["relative_error"],
        "relative_error_half_steps": rep_half["relative_error"],
        "error_decreases_with_steps": bool(
            rep_full["relative_error"] < rep_half["relative_error"]),
        "Y": Y, "n": n, "steps": steps, "y_measure": y_measure,
    }
    return rows, summary, ["quadrature"]


def _exp_aak_extend(cfg, threads):
    seed = cfg["seed"]
    trials = cfg.get("trials", 5)
    m_list = cfg.get("M_list", [4, 16, 64])
    k_steps = cfg.get("K", 4)

    rows = []
    for m in m_list:
        def one(t, m=m):
            rng = trial_rng(seed + m, t)
            seq = rng.standard_normal(2 * m - 1) + 1j * rng.standard_normal(2 * m - 1)
            base = hankel.hankel_matrix(seq, m).sequence_norm()  # the step's gamma
            extended = aak._extend_sequence(seq, base)[1]  # the extended sequence norm
            return {"trial": t, "M": m, "base_norm": base, "extended_norm": extended,
                    "preservation_defect": abs(base - extended)}
        rows.extend(_map_trials(one, trials, threads))
    # recovery ratio trend on a few symbols: one extension chain per symbol, read after each step
    recovery = []
    for t in range(cfg.get("recovery_trials", 3)):
        rng = trial_rng(seed + 999, t)
        H = hankel.hankel_operator_1d(hankel.random_symbol(cfg.get("recovery_degree", 6), rng))
        seq = np.asarray(H.sequence, dtype=complex)
        base = gamma = H.sequence_norm()
        for K in range(k_steps + 1):
            if K:  # each achieved norm is the next step's gamma, as in recover_bounded_symbol
                seq, gamma = aak._extend_sequence(seq, gamma)
            rep = aak._bounded_symbol(seq, K, base)
            recovery.append({"trial": t, "M": -K,  # reuse M column for -K
                             "base_norm": rep["hankel_norm"],
                             "extended_norm": rep["sup_norm"],
                             "preservation_defect": rep["ratio"]})
    summary = {"max_preservation_defect": float(max(r["preservation_defect"] for r in rows)),
               "recovery_ratios": [float(r["preservation_defect"]) for r in recovery]}
    return rows + recovery, summary, ["exact"]


def _exp_carleson(cfg, threads):
    seed = cfg["seed"]
    n_list = cfg.get("n_list", [0, 1, 2, 3, 4])
    rows = []
    for n in n_list:
        grid = Grid(n + 3, 2)
        b, _ = journe.carleson_family(n, grid, seed=seed)
        book = norms.coefficient_book(b)
        rect = norms.bmo_rect(b, book=book)
        # heuristic mode runs the same cut: its column is this value, labelled a lower bound
        exact = norms.bmo_product(b, mode="exact", book=book)
        rows.append({
            "n": n,
            "bmo_rect": rect.value,
            "bmo_product_exact": exact.value,
            "bmo_product_heuristic": exact.value,
            "ratio_exact": exact.value / rect.value,
            "ratio_heuristic": exact.value / rect.value,
        })
    xs = np.log(np.array(n_list, dtype=float) + 1.0)
    ys = np.log(np.array([r["ratio_exact"] for r in rows]))
    mask = xs > 0
    summary = {
        "ratios_exact": [float(r["ratio_exact"]) for r in rows],
        "monotone_exact": bool(all(
            rows[i + 1]["ratio_exact"] > rows[i]["ratio_exact"] - 1e-12
            for i in range(len(rows) - 1))),
        "fitted_growth_exponent_vs_nplus1": _slope(xs[mask], ys[mask]),
    }
    return rows, summary, ["exact", "heuristic_lower_bound"]


def _journe_staircase_family(seed: int):
    """Deterministic staircase instances: interior anchored chains and their
    subchains, each damped inside the full unit square."""
    chain = journe.carleson_rectangles(2)
    singles = [(f"single_{i}", (r,)) for i, r in enumerate(chain)]
    pairs = [("pair_01", tuple(chain[:2])), ("pair_12", tuple(chain[1:]))]
    full = [("chain_012", tuple(chain))]
    # a translated pair anchored at (1/2, 1/4)
    a = DyadicRectangle((DyadicInterval(-2, 2), DyadicInterval(-4, 4)))
    b = DyadicRectangle((DyadicInterval(-3, 4), DyadicInterval(-3, 2)))
    translated = [("pair_translated", (a, b))]
    return singles + pairs + full + translated


def _exp_journe(cfg, threads):
    seed = cfg["seed"]
    n = cfg.get("n", 2)
    eps = cfg.get("eps", 0.5)
    grid = Grid(n + 3, 2)
    U = np.ones(grid.shape, dtype=bool)
    V = journe.enlarged_set(U, grid)
    rows = []
    rng = trial_rng(seed, 0)
    for name, members in _journe_staircase_family(seed):
        f = Signal(grid, np.zeros(grid.shape, dtype=complex))
        for r in members:
            sign = float(rng.integers(0, 2) * 2 - 1)
            f = f + sign * haar_tensor(r, grid)
        rep = journe.journe_damped_check(f, U, eps=eps, V_mask=V)
        rows.append({"instance": name, "eps": eps,
                     "damped_bmo": rep["lhs_bmo"], "rect_bmo": rep["rhs_rect_bmo"],
                     "ratio": rep["ratio"]})
    b, _ = journe.carleson_family(n, grid, seed=seed)
    undamped = journe.journe_damped_check(b, U, eps=0.0, V_mask=V)
    damped = journe.journe_damped_check(b, U, eps=eps, V_mask=V)
    rows.append({"instance": "carleson_undamped", "eps": 0.0,
                 "damped_bmo": undamped["lhs_bmo"], "rect_bmo": undamped["rhs_rect_bmo"],
                 "ratio": undamped["ratio"]})
    rows.append({"instance": "carleson_damped", "eps": eps,
                 "damped_bmo": damped["lhs_bmo"], "rect_bmo": damped["rhs_rect_bmo"],
                 "ratio": damped["ratio"]})
    family_ratios = np.array([r["ratio"] for r in rows if r["instance"] not in
                              ("carleson_undamped", "carleson_damped")])
    summary = {
        "family_max_ratio": float(family_ratios.max()),
        "family_median_ratio": float(np.median(family_ratios)),
        "max_within_3x_median": bool(family_ratios.max() <= 3 * np.median(family_ratios)),
        "undamped_carleson_ratio": float(undamped["ratio"]),
        "undamped_exceeds_family_max": bool(undamped["ratio"] > family_ratios.max()),
        "damped_carleson_ratio": float(damped["ratio"]),
    }
    return rows, summary, ["exact"]


def _exp_lower_bound(cfg, threads):
    seed = cfg["seed"]
    depth = cfg.get("grid_depth", 6)
    grid = Grid(depth, 2)
    fam = transforms.build_meyer_family(Grid(depth, 1))
    rng = trial_rng(seed, 0)
    # collection: a block of analytic rectangles away from the boundary
    members = tuple(
        DyadicRectangle((DyadicInterval(-2, i), DyadicInterval(-2, j)))
        for i in (1, 2) for j in (1, 2)
    )
    coll = RectangleCollection(members, grid)
    b = Signal(grid, rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape))
    rep = journe.lower_bound_experiment(b, coll, fam,
                                        eta_J=cfg.get("eta_J", 0.01),
                                        eta_minus1=cfg.get("eta_minus1", 0.01))
    keys = ["normalization_scale", "shadow_measure", "coefficient_mass",
            "H_b_alpha", "P_plus_alpha_sq", "alpha_sq_mean_removed", "alpha_4_sq",
            "alpha_2", "symmetry_ratio", "symmetry_reference",
            "H_beta_alpha", "beta_4_times_alpha_4", "beta_2", "gamma_2",
            "additivity_defect"]
    rows = [{"quantity": k, "value": float(rep[k])} for k in keys]
    for lv, v in sorted(rep["slice_norms"].items()):
        rows.append({"quantity": f"H_gamma_alpha_slice_2^{lv}", "value": float(v)})
    summary = {k: float(rep[k]) for k in keys}
    summary["cauchy_schwarz_ok"] = bool(
        rep["H_beta_alpha"] <= rep["beta_4_times_alpha_4"] * (1 + 1e-10) + 1e-12)
    return rows, summary, ["exact"]


CATALOG = {
    "nehari1d": {
        "fn": _exp_nehari1d,
        "description": "Hankel operator norm vs dyadic BMO of the analytic symbol part, over random truncated symbols",
    },
    "nehari2d": {
        "fn": _exp_nehari2d,
        "description": "little Hankel norm on the bidisc vs exact product BMO of the analytic part at small depth",
    },
    "para-bound": {
        "fn": _exp_para_bound,
        "description": "operator norm of the Haar paraproduct against the dyadic BMO norm of its symbol, across grid depths",
    },
    "commutator-decomp": {
        "fn": _exp_commutator_decomp,
        "description": "exact reconstruction of [M_b, G_left] from its labeled paraproduct pieces",
    },
    "petermichl": {
        "fn": _exp_petermichl,
        "description": "translation-dilation average of the dyadic shift fitted against the Hilbert transform",
    },
    "aak-extend": {
        "fn": _exp_aak_extend,
        "description": "norm-preserving one-step Hankel extension and bounded-symbol recovery ratios",
    },
    "carleson": {
        "fn": _exp_carleson,
        "description": "product/rectangular BMO separation along the corner staircase family",
    },
    "journe": {
        "fn": _exp_journe,
        "description": "embeddedness-damped projections: damped product BMO stays comparable to rectangular BMO",
    },
    "lower-bound": {
        "fn": _exp_lower_bound,
        "description": "alpha/beta/gamma decomposition of a symbol and the Hankel lower-bound norm chain",
    },
}


def list_experiments() -> dict:
    return {name: entry["description"] for name, entry in sorted(CATALOG.items())}


def validate_config(cfg: dict) -> dict:
    if "experiment" not in cfg:
        raise ConfigError("config needs an 'experiment' field")
    name = cfg["experiment"]
    if name not in CATALOG:
        raise ConfigError(
            f"unknown experiment {name!r}; catalog: {sorted(CATALOG)}")
    out = dict(cfg)
    out.setdefault("seed", 0)
    if not _is_int(out["seed"]) or out["seed"] < 0:
        raise ConfigError("seed must be a nonnegative integer")
    for key, (low, high) in _INT_FIELDS.get(name, {}).items():
        listed = key.endswith("_list")
        values = out.get(key, [low]) if listed else [out.get(key, low)]
        if not (isinstance(values, list) and values and all(
                _is_int(v) and v >= low and (high is None or v <= high) for v in values)):
            kind = "a non-empty list of integers" if listed else "an integer"
            bound = f">= {low}" if high is None else f"in {low}..{high}"
            raise ConfigError(f"{key} must be {kind} {bound}, got {out[key]!r}")
    for key, (low, closed, high) in _REAL_FIELDS.get(name, {}).items():
        v = out.get(key)
        if key in out and not (_is_real(v) and (v >= low if closed else v > low) and v <= high):
            raise ConfigError(f"{key} must be a real number {'>=' if closed else '>'} {low}"
                              f"{f' and <= {high}' if high < math.inf else ''}, got {v!r}")
    if name == "petermichl" and out.get("y_measure", "uniform") not in ("uniform", "log"):
        raise ConfigError(f"y_measure must be 'uniform' or 'log', got {out['y_measure']!r}")
    n = out.get("n")
    m = out.get("M")
    # nehari2d's n is the product-BMO depth, not the grid depth
    if name != "nehari2d" and n is not None and m is not None:
        if not (_is_int(n) and _is_int(m) and n >= 0 and m >= 1):
            raise ConfigError(f"n and M must be integers, n >= 0, M >= 1, got n={n!r}, M={m!r}")
        if n < (4 * m - 1).bit_length():  # 2^n < 4M, without building 2^n
            raise ConfigError(f"need 2^n >= 4*M, got n={n}, M={m}")
    if name == "nehari2d":
        finest = hankel.symbol_grid_depth(out.get("M", 4)) - 1
        if out.get("n", 2) > finest:
            raise ConfigError(f"n must be <= {finest}, the finest Haar scale of the grid of M")
    return out


# (lowest, highest or None) of each integer field; a key ending in _list
# holds a list.  Lower bounds are what the code needs: a constant symbol
# (M = 1) has zero BMO but not zero Hankel norm, petermichl also runs
# steps // 2, journe's staircase has sides 2^-4 on its grid n + 3, and
# lower-bound's collection needs Meyer scale 2.  Caps bound work growing as
# N^2 or faster: an M x M SVD (nehari1d M <= 512), an M^2 x M^2 SVD and
# M^4-point products per trial (nehari2d M <= 32: 2 trials take 1.9 s and
# 80 MiB; M = 64 is a 4096^2 SVD per trial), a 2^n x 2^n SVD
# (para-bound n <= 10), eight 2^n x 2^n pieces (commutator-decomp n <= 9),
# steps^2 nodes of about s 2^n cells per window scale (petermichl
# steps <= 128, n <= 12: 2.4 ms a node at n = 12 on one core), exact
# product BMO on 4^(n+3) cells (journe n <= 5, carleson n <= 6) or to
# depth n (nehari2d n <= 5, and below the finest scale of M's grid).
_INT_FIELDS = {
    "aak-extend": {"trials": (1, None), "K": (0, None), "recovery_trials": (0, None),
                   "recovery_degree": (1, None), "M_list": (1, None)},
    "nehari1d": {"trials": (1, None), "M": (2, 512), "M_list": (2, 512), "trend_trials": (1, None)},
    "nehari2d": {"trials": (1, None), "M": (2, 32), "n": (1, 5)},
    "para-bound": {"trials": (1, None), "n_list": (1, 10)},
    "commutator-decomp": {"trials": (1, None), "n": (1, 9)},
    "petermichl": {"n": (3, 12), "steps": (2, 128)},
    "carleson": {"n_list": (0, 6)},
    "journe": {"n": (2, 5)},
    "lower-bound": {"grid_depth": (6, None)},
}


# (lowest, whether the lowest itself is allowed, highest) of each real field.
# A petermichl node costs ~ n + log2(pad ~ Y) scales: Y <= 1024 is <= 1.2x Y = 8.
_REAL_FIELDS = {
    "petermichl": {"Y": (0.0, False, 1024.0), "bump_width": (0.0, False, math.inf)},
    "journe": {"eps": (0.0, True, math.inf)},
    "lower-bound": {"eta_J": (0.0, True, math.inf), "eta_minus1": (0.0, True, math.inf)},
}


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_real(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool) and -math.inf < v < math.inf


def _canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=True)


def run(cfg: dict, out_dir, threads: int = 1) -> dict:
    """Execute the named experiment; writes manifest.json, rows.csv and
    run_info.json into out_dir and returns the manifest."""
    cfg = validate_config(cfg)
    name = cfg["experiment"]
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    t0 = time.time()
    rows, summary, flags = CATALOG[name]["fn"](cfg, threads)
    manifest = {
        "experiment": name,
        "config": {k: v for k, v in sorted(cfg.items())},
        "code_version": __version__,
        "rows_file": "rows.csv",
        "row_count": len(rows),
        "summary": summary,
        "exactness_flags": flags,
    }
    fields = []
    for r in rows:
        for k in r:
            if k not in fields:
                fields.append(k)
    with open(out_dir / "rows.csv", "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields, restval="")
        writer.writeheader()
        for r in rows:
            writer.writerow({k: _fmt(v) for k, v in r.items()})
    with open(out_dir / "manifest.json", "w") as fh:
        fh.write(_canonical_json(manifest))
        fh.write("\n")
    with open(out_dir / "run_info.json", "w") as fh:
        fh.write(_canonical_json({
            "started_unix": t0,
            "elapsed_seconds": time.time() - t0,
            "threads": threads,
        }))
        fh.write("\n")
    return manifest


def _fmt(v):
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    if isinstance(v, np.integer):
        return int(v)
    return v
