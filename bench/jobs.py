"""Workloads of the dyadiclab benchmark: the jobs each one runs and the
checks on their outputs.

A job is one `experiments.run` call (the path every `dyadiclab run` takes) or
one direct call into the public API.  `Job.call` is the timed part; its
output is checked afterwards, untimed and untraced, by `Job.check`, which
returns the problems it found (an empty list means the output is correct).
`Job.exact` picks out the values the library labels exact, which the
benchmark compares with `reference.json` on its reference pass (the small
"tiny" size on inputs from seed 0).  Why each workload was chosen is recorded
in BENCHMARK.json.

Every input is drawn from `numpy.random.default_rng([seed, pass_index])`, so
the same seed gives the same inputs.  Tolerances are the pinned ones of
`tests/test_acceptance.py`.
"""

from __future__ import annotations

import csv
import json
import math
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from dyadiclab import aak, experiments, hankel, norms, paraproducts, transforms
from dyadiclab.dyadic import Grid, Signal, random_signal

IDENTITY_TOL = 1e-12   # commutator residual, block identities, closed forms
EXTENSION_TOL = 1e-8   # Parrott completion gap, extension preservation defect

# the sizes of each workload; "tiny" is for the smoke test
SIZES = {
    "full": {
        "extend": {"run_M": [16, 32, 64], "recovery_degree": 6, "K": 3,
                   "step_M": 32, "steps": 6, "recoveries": 2, "parrotts": 8},
        "assemble": {"para_n": 8, "para_trials": 3, "comm_n": 8, "peter_n": 8, "peter_steps": 16,
                     "block_n": 6, "block_cutoff": 8, "cmat_n": 6, "cmat_cutoff": 6, "meyer_n": 8},
        "survey": {"nehari1d": {"M": 32, "trials": 100, "M_list": [8, 16, 32], "trend_trials": 40},
                   "nehari2d": {"trials": 30}, "carleson": [0, 1, 2, 3, 4],
                   "journe": {"n": 2, "eps": 0.5}, "lower_bound": 6, "bmo_depth": 4},
    },
    "tiny": {
        "extend": {"run_M": [4, 8], "recovery_degree": 3, "K": 1,
                   "step_M": 8, "steps": 1, "recoveries": 1, "parrotts": 1},
        "assemble": {"para_n": 4, "para_trials": 1, "comm_n": 4, "peter_n": 6, "peter_steps": 8,
                     "block_n": 4, "block_cutoff": 2, "cmat_n": 4, "cmat_cutoff": 2, "meyer_n": 6},
        "survey": {"nehari1d": {"M": 8, "trials": 4, "M_list": [4, 8], "trend_trials": 3},
                   "nehari2d": {"trials": 2}, "carleson": [0, 1, 2],
                   "journe": {"n": 2, "eps": 0.5}, "lower_bound": 6, "bmo_depth": 2},
    },
}


@dataclass
class Job:
    name: str
    call: Callable[[], object]
    check: Callable[[object], list]
    exact: Callable[[object], dict] = field(default=lambda result: {})


def build(workload: str, seed: int, pass_index: int, size: str, out_root: Path,
          nproc: int = 1) -> list[Job]:
    """The job list of one pass, its inputs drawn from (seed, pass_index)."""
    rng = np.random.default_rng([seed, pass_index])
    sizes = SIZES[size][workload]
    out_dir = Path(out_root) / f"pass{pass_index}"
    if workload == "extend":
        return _extend_jobs(rng, sizes, out_dir)
    if workload == "assemble":
        return _assemble_jobs(rng, sizes, out_dir)
    if workload == "survey":
        return _survey_jobs(rng, sizes, out_dir, min(2, nproc))
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# experiment jobs


def _seed(rng) -> int:
    return int(rng.integers(0, 2 ** 31))


def _read_outputs(out: Path) -> tuple[dict, list]:
    manifest = json.loads((out / "manifest.json").read_text())
    with open(out / "rows.csv", newline="") as fh:
        rows = [{k: _number(v) for k, v in row.items()} for row in csv.DictReader(fh)]
    return manifest, rows


def _number(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def experiment_job(cfg: dict, out_dir: Path, threads: int,
                   check: Callable[[dict, list], list],
                   exact: Callable[[dict, list], dict] = lambda summary, rows: {}) -> Job:
    """One `experiments.run` call; the check reads back manifest.json and rows.csv."""
    out = out_dir / cfg["experiment"]

    def call():
        experiments.run(cfg, out, threads=threads)
        return out

    def check_outputs(out):
        try:
            manifest, rows = _read_outputs(out)
        finally:
            shutil.rmtree(out, ignore_errors=True)
        read_back[:] = [manifest, rows]
        problems = []
        if manifest["row_count"] != len(rows):
            problems.append(f"row_count {manifest['row_count']} but {len(rows)} rows")
        if not manifest["exactness_flags"]:
            problems.append("no exactness flags")
        return problems + check(manifest["summary"], rows)

    def exact_values(out):
        manifest, rows = read_back
        return exact(manifest["summary"], rows) if "exact" in manifest["exactness_flags"] else {}

    read_back = []  # manifest and rows, parsed by the check and reused by `exact`

    return Job(cfg["experiment"], call, check_outputs, exact_values)


def _finite_positive(rows: list, key: str) -> list:
    bad = [r[key] for r in rows if not (isinstance(r[key], float) and math.isfinite(r[key]) and r[key] > 0)]
    return [f"{key} not finite positive: {bad[:3]}"] if bad else []


# ---------------------------------------------------------------------------
# extend: Parrott completion and Hankel extension


def _extend_jobs(rng, sz, out_dir) -> list[Job]:
    def check_aak(summary, rows):
        steps = [r for r in rows if r["M"] > 0]
        recovery = [r for r in rows if r["M"] <= 0]
        problems = []
        worst = max(abs(r["extended_norm"] - r["base_norm"]) for r in steps)
        if worst > EXTENSION_TOL:
            problems.append(f"extension changed the sequence norm by {worst:.3e}")
        if max(r["preservation_defect"] for r in steps) != summary["max_preservation_defect"]:
            problems.append("summary max_preservation_defect does not match rows")
        # the recovery ratio ||beta||_inf / ||H|| is a bound: only its direction is checked
        low = [r["preservation_defect"] for r in recovery if r["preservation_defect"] < 1 - EXTENSION_TOL]
        if low or not recovery:
            problems.append(f"recovery ratios below 1: {low}")
        return problems

    cfg = {"experiment": "aak-extend", "seed": _seed(rng), "M_list": sz["run_M"], "trials": 1,
           "recovery_trials": 1, "recovery_degree": sz["recovery_degree"], "K": sz["K"]}
    jobs = [experiment_job(cfg, out_dir, 1, check_aak,
                           lambda summary, rows: {"base_norm": [r["base_norm"] for r in rows if r["M"] > 0]})]

    for i in range(sz["steps"]):
        m = sz["step_M"]
        seq = rng.standard_normal(2 * m - 1) + 1j * rng.standard_normal(2 * m - 1)
        H = hankel.hankel_matrix(seq, m)
        jobs.append(Job(f"extend_hankel_step[{i}]",
                        lambda H=H: aak.extend_hankel_step(H),
                        lambda ext, H=H: _check_extension(H, ext)))

    for i in range(sz["recoveries"]):
        H = hankel.hankel_operator_1d(hankel.random_symbol(sz["recovery_degree"], rng))
        jobs.append(Job(f"recover_bounded_symbol[{i}]",
                        lambda H=H: aak.recover_bounded_symbol(H, sz["K"]),
                        lambda rep, H=H: _check_recovery(H, rep, sz["K"]),
                        lambda rep: {"hankel_norm": rep["hankel_norm"]}))

    for i in range(sz["parrotts"]):
        blocks = [rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)) for _ in range(3)]
        p = aak.BlockProblem(*blocks)
        jobs.append(Job(f"parrott_min[{i}]", lambda p=p: aak.parrott_min(p),
                        lambda res, p=p: _check_parrott(p, res)))
    return jobs


def _check_extension(H, ext) -> list:
    problems = []
    defect = abs(H.sequence_norm() - ext.sequence_norm())
    if defect > EXTENSION_TOL:
        problems.append(f"extension preservation defect {defect:.3e}")
    if not np.array_equal(ext.sequence[1:len(H.sequence) + 1], H.sequence):
        problems.append("extension did not keep the given sequence")
    if ext.matrix.shape != (H.matrix.shape[0] + 1,) * 2:
        problems.append(f"extended matrix has shape {ext.matrix.shape}")
    return problems


def _check_recovery(H, rep, steps) -> list:
    problems = []
    if abs(rep["hankel_norm"] - H.sequence_norm()) > IDENTITY_TOL * max(1.0, rep["hankel_norm"]):
        problems.append("recovery reports a Hankel norm other than the sequence norm")
    if rep["ratio"] < 1 - EXTENSION_TOL:
        problems.append(f"recovered symbol ratio {rep['ratio']} below 1")
    if len(rep["sequence"]) != len(H.sequence) + steps or not np.array_equal(
            rep["sequence"][steps:], H.sequence):
        problems.append("recovery did not keep the given sequence")
    return problems


def _check_parrott(p, res) -> list:
    gap = res["achieved_norm"] - aak.parrott_closed_form(p)
    return [f"Parrott completion gap {gap:.3e}"] if abs(gap) > EXTENSION_TOL else []


# ---------------------------------------------------------------------------
# assemble: operator matrices built column by column


def _assemble_jobs(rng, sz, out_dir) -> list[Job]:
    def check_para(summary, rows):
        problems = _finite_positive(rows, "ratio")
        best = max(r["ratio"] for r in rows)
        if summary["max_ratio_by_n"] != {str(sz["para_n"]): best}:
            problems.append("summary max_ratio_by_n does not match rows")
        return problems

    def check_commutator(summary, rows):
        worst = max(r["residual"] for r in rows)
        if worst > IDENTITY_TOL or summary["max_residual"] != worst:
            return [f"commutator decomposition residual {worst:.3e}"]
        return []

    def check_petermichl(summary, rows):
        if (summary["error_decreases_with_steps"] is not True
                or not summary["relative_error"] < summary["relative_error_half_steps"]):
            return ["Petermichl error does not decrease with the quadrature steps"]
        return []

    jobs = [
        experiment_job({"experiment": "para-bound", "seed": _seed(rng), "n_list": [sz["para_n"]],
                        "trials": sz["para_trials"]}, out_dir, 1, check_para,
                       lambda summary, rows: {"ratio": [r["ratio"] for r in rows]}),
        experiment_job({"experiment": "commutator-decomp", "seed": _seed(rng), "n": sz["comm_n"],
                        "trials": 1}, out_dir, 1, check_commutator),
        experiment_job({"experiment": "petermichl", "seed": _seed(rng), "n": sz["peter_n"],
                        "steps": sz["peter_steps"]}, out_dir, 1, check_petermichl),
    ]

    g2 = Grid(sz["block_n"], 2)
    b_block = hankel.random_symbol(8, rng, dim=2).to_signal(g2)

    def check_block(defect):
        return [f"block identity defect {defect:.3e}"] if not defect <= IDENTITY_TOL else []

    jobs.append(Job("block_identity_check",
                    lambda: hankel.block_identity_check(b_block, mode_cutoff=sz["block_cutoff"]),
                    check_block))

    b_comm = random_signal(Grid(sz["cmat_n"], 2), rng)
    jobs.append(Job("commutator_matrix",
                    lambda: hankel.commutator_matrix(b_comm, (1, 2), mode_cutoff=sz["cmat_cutoff"]),
                    lambda mat: _check_commutator_matrix(b_comm, sz["cmat_cutoff"], mat)))

    g1, g2 = Grid(sz["meyer_n"], 1), Grid(sz["meyer_n"], 2)
    b_meyer, phi = random_signal(g2, rng), random_signal(g2, rng)

    def meyer():
        fam = transforms.build_meyer_family(g1)
        return paraproducts.meyer_para_multi(b_meyer, phi, fam)

    def check_meyer(out):
        if out.values.shape != g2.shape or not np.all(np.isfinite(out.values)):
            return ["Meyer paraproduct output not finite"]
        return []

    jobs.append(Job("meyer_para_multi", meyer, check_meyer, lambda out: {"norm2": out.norm2()}))
    return jobs


def _check_commutator_matrix(b: Signal, cutoff: int, mat) -> list:
    """Against the Fourier closed form of [[M_b, H_1], H_2]:
    entry (k, j) = bhat(k - j) (m(j1) - m(k1)) (m(j2) - m(k2)), m(k) = -i sgn(k)."""
    N = b.grid.n_points
    bhat = np.fft.fftn(b.values) / N ** 2
    modes = np.arange(-cutoff, cutoff + 1)
    k1, k2 = (a.ravel() for a in np.meshgrid(modes, modes, indexing="ij"))
    m = lambda k: -1j * np.sign(k)
    expected = (bhat[(k1[:, None] - k1[None, :]) % N, (k2[:, None] - k2[None, :]) % N]
                * (m(k1[None, :]) - m(k1[:, None])) * (m(k2[None, :]) - m(k2[:, None])))
    worst = float(np.max(np.abs(mat.entries - expected)))
    return [f"commutator matrix differs from its closed form by {worst:.3e}"] if worst > IDENTITY_TOL else []


# ---------------------------------------------------------------------------
# survey: BMO searches, Journe damping and Nehari ratios through the thread pool


def _survey_jobs(rng, sz, out_dir, threads) -> list[Job]:
    def check_nehari(summary, rows):
        trials = [r for r in rows if r["trial"] >= 0]
        problems = _finite_positive(trials, "hankel_norm") + _finite_positive(trials, "bmo_value")
        ratios = [r["ratio"] for r in trials]
        if any(abs(r["ratio"] - r["hankel_norm"] / r["bmo_value"]) > IDENTITY_TOL * r["ratio"]
               for r in trials):
            problems.append("ratio is not hankel_norm / bmo_value")
        if summary["ratio_min"] != min(ratios) or summary["ratio_max"] != max(ratios):
            problems.append("summary ratio range does not match rows")
        return problems

    def check_carleson(summary, rows):
        problems = []
        for r in rows:
            # the corner chain has ratio^2 = 2(n+1)/(n+2) exactly
            closed = math.sqrt(2 * (r["n"] + 1) / (r["n"] + 2))
            if abs(r["ratio_exact"] - closed) > IDENTITY_TOL:
                problems.append(f"n={r['n']:.0f}: exact ratio {r['ratio_exact']} != {closed}")
            # heuristic product BMO is a lower bound: only its direction is checked
            if r["bmo_product_heuristic"] > r["bmo_product_exact"] * (1 + IDENTITY_TOL):
                problems.append(f"n={r['n']:.0f}: heuristic product BMO exceeds exact")
            if r["bmo_rect"] > r["bmo_product_exact"] * (1 + IDENTITY_TOL):
                problems.append(f"n={r['n']:.0f}: rectangular BMO exceeds product BMO")
        return problems

    def check_journe(summary, rows):
        wanted = ("max_within_3x_median", "undamped_exceeds_family_max")
        problems = [f"journe: {k} is false" for k in wanted if summary[k] is not True]
        if not summary["damped_carleson_ratio"] < summary["undamped_carleson_ratio"]:
            problems.append("journe: damping did not lower the Carleson ratio")
        return problems

    def check_lower_bound(summary, rows):
        problems = [] if summary["cauchy_schwarz_ok"] is True else ["lower bound: Cauchy-Schwarz fails"]
        if not summary["additivity_defect"] <= IDENTITY_TOL:
            problems.append(f"lower bound: additivity defect {summary['additivity_defect']:.3e}")
        return problems

    summary_values = lambda *keys: (lambda summary, rows: {k: summary[k] for k in keys})
    jobs = [
        experiment_job({"experiment": "nehari1d", "seed": _seed(rng), **sz["nehari1d"]}, out_dir,
                       threads, check_nehari, summary_values("ratio_min", "ratio_max", "ratio_mean")),
        experiment_job({"experiment": "nehari2d", "seed": _seed(rng), **sz["nehari2d"]}, out_dir,
                       threads, check_nehari, summary_values("ratio_min", "ratio_max")),
        experiment_job({"experiment": "carleson", "seed": _seed(rng), "n_list": sz["carleson"]},
                       out_dir, threads, check_carleson,
                       lambda summary, rows: {"ratios_exact": summary["ratios_exact"]}),
        experiment_job({"experiment": "journe", "seed": _seed(rng), **sz["journe"]}, out_dir, threads,
                       check_journe,
                       summary_values("family_max_ratio", "family_median_ratio",
                                      "undamped_carleson_ratio", "damped_carleson_ratio")),
        experiment_job({"experiment": "lower-bound", "seed": _seed(rng), "grid_depth": sz["lower_bound"]},
                       out_dir, threads, check_lower_bound,
                       lambda summary, rows: {k: v for k, v in summary.items()
                                              if k not in ("cauchy_schwarz_ok", "additivity_defect")}),
    ]

    b = random_signal(Grid(sz["bmo_depth"], 2), rng)

    def bmo_chain():
        return (norms.bmo_minus1(b), norms.bmo_rect(b), norms.bmo_product(b, mode="heuristic"))

    def check_chain(reports):
        minus1, rect, product = reports
        problems = []
        labels = (minus1.exactness, rect.exactness, product.exactness)
        if labels != ("exact", "exact", "lower_bound"):
            problems.append(f"unexpected exactness labels {labels}")
        if not minus1.value <= rect.value * (1 + IDENTITY_TOL) <= product.value * (1 + IDENTITY_TOL) ** 2:
            problems.append(f"BMO chain broken: {minus1.value}, {rect.value}, {product.value}")
        oracle = _rect_bmo_oracle(b)
        if abs(rect.value - oracle) > IDENTITY_TOL * max(1.0, oracle):
            problems.append(f"rectangular BMO {rect.value} != brute force {oracle}")
        return problems

    jobs.append(Job("bmo_chain", bmo_chain, check_chain,
                    lambda reports: {"bmo_minus1": reports[0].value, "bmo_rect": reports[1].value}))
    return jobs


def _rect_bmo_oracle(b: Signal) -> float:
    """Rectangular BMO by brute force: Haar coefficients from explicit sampled
    Haar functions, then the sup over every dyadic rectangle U of
    |U|^-1 sum_{R inside U} |c_R|^2."""
    n = b.grid.depth
    N = b.grid.n_points
    intervals = [(p, j) for p in range(n) for j in range(1 << p)]
    haar = np.zeros((len(intervals), N))
    for row, (p, j) in enumerate(intervals):
        width = N >> p
        haar[row, j * width: j * width + width // 2] = -(2.0 ** (p / 2))
        haar[row, j * width + width // 2: (j + 1) * width] = 2.0 ** (p / 2)
    mass = np.abs(haar @ b.values @ haar.T / N ** 2) ** 2
    inside = np.array([[p >= q and (j >> (p - q)) == i for (p, j) in intervals]
                       for (q, i) in intervals], dtype=float)
    per_rect = inside @ mass @ inside.T
    scale = np.array([2.0 ** q for q, _ in intervals])
    return float(np.sqrt(np.max(per_rect * np.outer(scale, scale))))
