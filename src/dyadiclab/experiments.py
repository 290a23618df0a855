"""Batch experiment driver: deterministic configs, per-trial RNG streams,
CSV + JSON result files.

Configs: each `CATALOG` entry lists its experiment's fields, each with its
default, type and range; `validate_config` rejects unknown fields and values
out of range, and fills in the defaults.

Determinism contract: every trial draws from its own counter-based stream
Philox(key=(seed, trial_index)), trials may run on any number of threads,
and aggregation sorts by trial index, so reruns of the same config produce
byte-identical manifest and CSV files.  Wall-clock data goes to a separate
run_info.json that is excluded from the contract.

The `threads` argument, 1..64, sizes the trial pool of `_map_trials`, which
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
from typing import Callable, NamedTuple

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
    if threads == 1:
        return [fn(t) for t in range(n_trials)]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, range(n_trials)))


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
    seed, trials, degree = cfg["seed"], cfg["trials"], cfg["M"]
    m_list, trend_trials = cfg["M_list"], cfg["trend_trials"]

    rows = _nehari_rows(hankel.nehari_ratios(_symbol_stack(seed, trials, degree)), degree)
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
        vals = hankel.nehari_ratios(_symbol_stack(seed + 1000 * m, trend_trials, m))["ratio"]
        mean_log = float(np.mean(np.log(vals)))
        trend_rows.append({"trial": -1, "M": m, "hankel_norm": np.nan,
                           "bmo_value": np.nan, "ratio": float(np.exp(mean_log))})
        summary[f"mean_log_ratio_M{m}"] = mean_log
    xs = np.log2(np.array(m_list, dtype=float))
    ys = np.array([summary[f"mean_log_ratio_M{m}"] for m in m_list])
    summary["log_ratio_slope_per_log2M"] = _slope(xs, ys)
    return rows + trend_rows, summary, ["exact"]


def _exp_nehari2d(cfg, threads):
    seed, trials, degree, depth = cfg["seed"], cfg["trials"], cfg["M"], cfg["n"]

    rep = hankel.nehari_ratios(_symbol_stack(seed, trials, degree, dim=2), product_depth=depth)
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
    seed, trials, n_list = cfg["seed"], cfg["trials"], cfg["n_list"]

    rows = []
    for n in n_list:
        grid = Grid(n, 1)

        def one(t, n=n, grid=grid):
            rng = trial_rng(seed + 37 * n, t)
            b = Signal(grid, rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape))
            b = b - Signal(grid, np.full(grid.shape, b.mean()))
            ratio = paraproducts.para_haar_norm(b) / norms.bmo_dyadic(b).value
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
    seed, trials, n = cfg["seed"], cfg["trials"], cfg["n"]
    grid = Grid(n, 1)

    def one(t):
        rng = trial_rng(seed, t)
        b = Signal(grid, rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape))
        residual = paraproducts.decompose_commutator_Gleft(b, check_tol=np.inf).residual
        return {"trial": t, "n": n, "residual": residual}

    rows = _map_trials(one, trials, threads)
    summary = {"max_residual": float(max(r["residual"] for r in rows))}
    return rows, summary, ["exact"]


def _petermichl_bump(n: int, width: float) -> Signal:
    """The mean-zero bump z exp(-z^2), z = (x - 1/2) / width, on Grid(n, 1);
    nan where a narrow width overflows z."""
    grid = Grid(n, 1)
    with np.errstate(over="ignore", invalid="ignore"):
        z = (grid.points() - 0.5) / width
        vals = z * np.exp(-z * z)
    return Signal(grid, vals - vals.mean())


def _exp_petermichl(cfg, threads):
    n, Y, steps, y_measure = cfg["n"], cfg["Y"], cfg["steps"], cfg["y_measure"]
    f = _petermichl_bump(n, cfg["bump_width"])
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
    seed, trials, m_list, k_steps = cfg["seed"], cfg["trials"], cfg["M_list"], cfg["K"]

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
    for t in range(cfg["recovery_trials"]):
        rng = trial_rng(seed + 999, t)
        H = hankel.hankel_operator_1d(hankel.random_symbol(cfg["recovery_degree"], rng))
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
    seed, n_list = cfg["seed"], cfg["n_list"]
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


def _journe_staircase_family():
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
    seed, n, eps = cfg["seed"], cfg["n"], cfg["eps"]
    grid = Grid(n + 3, 2)
    U = np.ones(grid.shape, dtype=bool)
    V = journe.enlarged_set(U, grid)
    rows = []
    rng = trial_rng(seed, 0)
    for name, members in _journe_staircase_family():
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
    seed, depth = cfg["seed"], cfg["grid_depth"]
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
    rep = journe.lower_bound_experiment(b, coll, fam)
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


class Field(NamedTuple):
    default: object
    ok: Callable[[object], bool]
    kind: str  # the values ok accepts, for error messages and `dyadiclab list`


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _int(default, low: int, high: int | None = None, listed: bool = False) -> Field:
    """An integer in low..high (no cap when high is None); listed: a non-empty list of them."""
    bound = f">= {low}" if high is None else f"in {low}..{high}"

    def one(v):
        return _is_int(v) and v >= low and (high is None or v <= high)
    if listed:
        return Field(default, lambda v: isinstance(v, list) and bool(v) and all(map(one, v)),
                     f"a non-empty list of integers {bound}")
    return Field(default, one, f"an integer {bound}")


def _real(default, low: float, high: float = math.inf, open_low: bool = False) -> Field:
    """A finite real number >= low (> low when open_low) and <= high."""
    def ok(v):
        return (isinstance(v, (int, float)) and not isinstance(v, bool) and -math.inf < v < math.inf
                and (v > low if open_low else v >= low) and v <= high)
    return Field(default, ok, f"a real number {'>' if open_low else '>='} {low}"
                              f"{f' and <= {high}' if high < math.inf else ''}")


# Each experiment's fields besides seed, with their defaults and ranges.
# Lower bounds are what the code needs: a constant symbol (M = 1) has zero
# BMO but not zero Hankel norm, petermichl also runs steps // 2, journe's
# staircase has sides 2^-4 on its grid n + 3, and lower-bound's collection
# needs Meyer scale 2.  Trial counts cost linear time and stay uncapped.
# Caps bound work growing as N^2 or faster (one core, one BLAS thread): an
# M x M SVD (nehari1d M <= 512), an M^2 x M^2 Hankel matrix and its SVD per
# trial (nehari2d M <= 32: 2 trials take 2.1 s and 75 MiB; M = 64 is a 4096^2
# SVD per trial), a 2^(n-1) x 2^(n-1) Gram (para-bound n <= 10: 0.02 s a
# trial, and the 2^n cells' dyadic BMO), eight thin products added into one
# 2^n x 2^n matrix (commutator-decomp n <= 9: 0.09-0.12 s, 18 MiB a trial at n = 9),
# steps^2 nodes of a few passes over about s 2^n cells (petermichl steps <= 128,
# n <= 12: 0.5 ms a node at n = 12, 12 s for the 128^2 + 64^2 nodes at the caps;
# a coarser scale of a longer window adds a few blocks a node, so Y = 1024 costs
# what Y = 8 does),
# exact product BMO on 4^(n+3) cells (journe n <= 5: 0.14 s, carleson n <= 6:
# 0.04 s) or to depth n (nehari2d n <= 6, and below the finest scale of M's
# grid: one trial at M = 32, n = 6 takes 1.3 s and 71 MiB, 0.1 s of it product
# BMO), the Meyer decomposition on a 4^depth grid, x4 a step and most of it the
# maximal function of V on the 3x-padded window (lower-bound grid_depth <= 9:
# 0.01 / 0.02 / 0.09 / 0.42 s at 6 / 7 / 8 / 9), and aak-extend's solves and
# values-only SVDs (one trial at M = 512: 1.9 s and 113 MiB; one recovery chain
# at degree 512: 4.8-5.1 s and 118 MiB at K = 4, but 157 s at K = 128, both caps
# together; K = 128 at the other defaults: 0.9 s).
CATALOG = {
    "nehari1d": {
        "fn": _exp_nehari1d,
        "description": "Hankel operator norm vs dyadic BMO of the analytic symbol part, over random truncated symbols",
        "fields": {"trials": _int(100, 1), "M": _int(32, 2, 512),
                   "M_list": _int([8, 16, 32], 2, 512, listed=True), "trend_trials": _int(40, 1)},
    },
    "nehari2d": {
        "fn": _exp_nehari2d,
        "description": "little Hankel norm on the bidisc vs exact product BMO of the analytic part at small depth",
        "fields": {"trials": _int(30, 1), "M": _int(4, 2, 32), "n": _int(2, 1, 6)},
    },
    "para-bound": {
        "fn": _exp_para_bound,
        "description": "operator norm of the Haar paraproduct against the dyadic BMO norm of its symbol, across grid depths",
        "fields": {"trials": _int(5, 1), "n_list": _int([4, 5, 6, 7, 8], 1, 10, listed=True)},
    },
    "commutator-decomp": {
        "fn": _exp_commutator_decomp,
        "description": "exact reconstruction of [M_b, G_left] from its labeled paraproduct pieces",
        "fields": {"trials": _int(50, 1), "n": _int(6, 1, 9)},
    },
    "petermichl": {
        "fn": _exp_petermichl,
        "description": "translation-dilation average of the dyadic shift fitted against the Hilbert transform",
        "fields": {"n": _int(10, 3, 12), "Y": _real(8.0, 0.0, 1024.0, open_low=True),
                   "steps": _int(64, 2, 128), "bump_width": _real(0.08, 0.0, 1.0, open_low=True),
                   "y_measure": Field("uniform", lambda v: v in ("uniform", "log"), "'uniform' or 'log'")},
    },
    "aak-extend": {
        "fn": _exp_aak_extend,
        "description": "norm-preserving one-step Hankel extension and bounded-symbol recovery ratios",
        "fields": {"trials": _int(5, 1), "M_list": _int([4, 16, 64], 1, 512, listed=True),
                   "K": _int(4, 0, 128), "recovery_trials": _int(3, 0),
                   "recovery_degree": _int(6, 1, 512)},
    },
    "carleson": {
        "fn": _exp_carleson,
        "description": "product/rectangular BMO separation along the corner staircase family",
        "fields": {"n_list": _int([0, 1, 2, 3, 4], 0, 6, listed=True)},
    },
    "journe": {
        "fn": _exp_journe,
        "description": "embeddedness-damped projections: damped product BMO stays comparable to rectangular BMO",
        "fields": {"n": _int(2, 2, 5), "eps": _real(0.5, 0.0)},
    },
    "lower-bound": {
        "fn": _exp_lower_bound,
        "description": "alpha/beta/gamma decomposition of a symbol and the Hankel lower-bound norm chain",
        "fields": {"grid_depth": _int(6, 6, 9)},
    },
}


def _fields(name: str) -> dict:
    """The named experiment's fields: seed, which every experiment has (below 2^63,
    so that each stream key seed + offset fits in 64 bits), then its own."""
    return {"seed": _int(0, 0, 2**63 - 1), **CATALOG[name]["fields"]}


def list_experiments() -> dict:
    """Each experiment's description, then its fields with their defaults and ranges."""
    return {name: entry["description"] + "; fields: " + ", ".join(
                f"{key}={json.dumps(f.default)} ({f.kind})" for key, f in _fields(name).items())
            for name, entry in sorted(CATALOG.items())}


def validate_config(cfg: dict) -> dict:
    """The config with its experiment's defaults filled in.  Raises ConfigError
    on a field the experiment does not have, a value outside its field's type
    and range, a nehari2d depth n finer than the grid of its M resolves, a
    petermichl bump too narrow to be sampled on the grid of its n, and a
    petermichl log measure whose Y is not above its lower end 2^-n."""
    if not isinstance(cfg, dict) or "experiment" not in cfg:
        raise ConfigError("config needs to be a JSON object with an 'experiment' field")
    name = cfg["experiment"]
    if not isinstance(name, str) or name not in CATALOG:
        raise ConfigError(f"unknown experiment {name!r}; catalog: {sorted(CATALOG)}")
    fields = _fields(name)
    unknown = [key for key in cfg if key != "experiment" and key not in fields]
    if unknown:
        raise ConfigError(f"unknown field(s) {unknown} for {name}; its fields: {list(fields)}")
    out = {**{key: f.default for key, f in fields.items()}, **cfg}
    for key, f in fields.items():
        if not f.ok(out[key]):
            raise ConfigError(f"{key} must be {f.kind}, got {out[key]!r}")
    # nehari2d's n is the product-BMO depth, not the grid depth
    if name == "nehari2d":
        finest = hankel.symbol_grid_depth(out["M"]) - 1
        if out["n"] > finest:
            raise ConfigError(f"n must be <= {finest}, the finest Haar scale of the grid of M")
    if name == "petermichl":
        if out["y_measure"] == "log" and not out["Y"] > 2.0 ** -out["n"]:
            raise ConfigError("Y must be > 2^-n for the log measure, which runs dy/y from 2^-n up to Y")
        # the fit is a multiple of the bump's Hilbert transform, dividing by its
        # squared norm; a narrow bump vanishes (or is nan) at every grid point
        bump = _petermichl_bump(out["n"], out["bump_width"])
        reference = paraproducts.hilbert_reference(bump).values
        if not np.vdot(reference, reference).real > 0:
            raise ConfigError("bump_width is too narrow: the bump vanishes on the grid of n")
    return out


def _canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=True)


def run(cfg: dict, out_dir, threads: int = 1) -> dict:
    """Execute the named experiment; writes manifest.json, rows.csv and
    run_info.json into out_dir and returns the manifest."""
    full = validate_config(cfg)
    # the pool starts up to one OS thread per trial; 64 is far above the cores a run can use
    if not (_is_int(threads) and 1 <= threads <= 64):
        raise ConfigError(f"threads must be an integer in 1..64, got {threads!r}")
    name = full["experiment"]
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    t0 = time.time()
    rows, summary, flags = CATALOG[name]["fn"](full, threads)
    manifest = {
        "experiment": name,
        # the fields the caller gave, and the seed; the defaults are not echoed
        "config": {k: full[k] for k in sorted({*cfg, "seed"})},
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
