import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from dyadiclab import experiments as ex
from dyadiclab import cli, norms


EXPECTED_NAMES = {
    "nehari1d", "nehari2d", "para-bound", "commutator-decomp", "petermichl",
    "aak-extend", "carleson", "journe", "lower-bound",
}


def test_catalog():
    cat = ex.list_experiments()
    assert set(cat) == EXPECTED_NAMES
    assert len(cat) == 9
    assert all(isinstance(v, str) and v for v in cat.values())


def test_validate_config():
    with pytest.raises(ex.ConfigError, match="experiment"):
        ex.validate_config({})
    with pytest.raises(ex.ConfigError, match="catalog"):
        ex.validate_config({"experiment": "bogus"})
    # nehari1d has no n; the 2^n >= 4M rule that once caught this read no field of any experiment
    with pytest.raises(ex.ConfigError, match="unknown field"):
        ex.validate_config({"experiment": "nehari1d", "n": 3, "M": 8})
    for not_an_object in ([{"experiment": "nehari1d"}], "nehari1d", 5):
        with pytest.raises(ex.ConfigError, match="JSON object"):
            ex.validate_config(not_an_object)
    cfg = ex.validate_config({"experiment": "nehari1d"})
    assert cfg == {"experiment": "nehari1d", "seed": 0, "trials": 100, "M": 32,
                   "M_list": [8, 16, 32], "trend_trials": 40}
    for bad in ({"experiment": "petermichl", "bump_width": 0},
                {"experiment": "petermichl", "Y": True},
                {"experiment": "journe", "eps": -0.5},
                {"experiment": "journe", "eps": False},
                {"experiment": "lower-bound", "eta_J": -1},
                {"experiment": "lower-bound", "eta_minus1": "0.01"},
                {"experiment": "nehari1d", "n": 6, "M": 8.0},
                {"experiment": "nehari1d", "M": 8.0},
                {"experiment": "nehari1d", "n": True, "M": 8}):
        with pytest.raises(ex.ConfigError):
            ex.validate_config(bad)
    ex.validate_config({"experiment": "journe", "eps": 0})
    ex.validate_config({"experiment": "petermichl", "Y": 2, "y_measure": "log"})


@pytest.mark.parametrize("bad", [
    {"trials": 0, "M_list": [4]},
    {"M_list": ["8"]},
    {"M_list": []},
    {"K": -1},
    {"recovery_trials": -1},
    {"recovery_degree": 0},
], ids=["trials0", "M_list_str", "M_list_empty", "K_negative", "recovery_trials_negative",
        "recovery_degree0"])
def test_aak_extend_bad_config_exits_1_with_error_json(tmp_path, bad):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"experiment": "aak-extend", **bad}))
    rc = cli.main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "res")])
    assert rc == 1
    err = json.loads((tmp_path / "res" / "error.json").read_text())
    assert err["error"] == "config_invalid"
    assert not (tmp_path / "res" / "manifest.json").exists()


@pytest.mark.parametrize("bad", [
    {"experiment": "nehari2d", "trials": 0},
    {"experiment": "nehari2d", "M": 0},
    {"experiment": "nehari2d", "M": "8"},
    {"experiment": "nehari2d", "n": 0},
    {"experiment": "nehari2d", "n": 6},
    {"experiment": "nehari2d", "n": 2.5},
    {"experiment": "carleson", "n_list": []},
    {"experiment": "carleson", "n_list": [0, 7]},
    {"experiment": "carleson", "n_list": [-1]},
    {"experiment": "carleson", "n_list": 3},
    {"experiment": "lower-bound", "grid_depth": 5},
    {"experiment": "nehari2d", "M": 4, "n": 4},
    {"experiment": "nehari2d", "M": 1, "n": 1},
    {"experiment": "para-bound", "trials": 0},
    {"experiment": "petermichl", "steps": 1},
    {"experiment": "commutator-decomp", "trials": 0},
    {"experiment": "nehari1d", "trials": 0},
    {"experiment": "journe", "n": "2"},
    {"experiment": "para-bound", "n_list": [0]},
    {"experiment": "petermichl", "y_measure": "bogus", "n": 3, "steps": 2},
    {"experiment": "nehari1d", "n": "3", "M": 8},
    {"experiment": "journe", "eps": "x"},
    {"experiment": "petermichl", "Y": -1, "n": 3, "steps": 2},
    {"experiment": "petermichl", "Y": 1e9, "n": 3, "steps": 2},
    {"experiment": "nehari2d", "M": 33},
    {"experiment": "nehari1d", "trails": 5},
    {"experiment": "petermichl", "bogus_field": 1},
    {"experiment": "lower-bound", "grid_depth": 10},
    {"experiment": "aak-extend", "M_list": [4, 513]},
    {"experiment": "aak-extend", "recovery_degree": 513},
    {"experiment": "aak-extend", "K": 129},
    5,
    {"experiment": ["nehari1d"]},
    {"experiment": "commutator-decomp", "n": 3, "trials": 1, "seed": 2**64},
    {"experiment": "nehari2d", "M": 32, "n": 7},
    {"experiment": "petermichl", "n": 4, "steps": 2, "bump_width": 1e308},
    {"experiment": "petermichl", "n": 4, "steps": 2, "bump_width": 1e200},
    {"experiment": "petermichl", "n": 4, "steps": 2, "bump_width": 1e-300},
    {"experiment": "petermichl", "n": 6, "Y": 1e-4, "y_measure": "log", "steps": 4},
    {"experiment": "petermichl", "n": 6, "Y": 1.0 / 64, "y_measure": "log", "steps": 4},
], ids=["nehari2d_trials0", "nehari2d_M0", "nehari2d_M_str", "nehari2d_n0", "nehari2d_n6",
        "nehari2d_n_float", "carleson_n_list_empty", "carleson_n7", "carleson_n_negative",
        "carleson_n_list_int", "lower_bound_grid_depth5", "nehari2d_n_beyond_grid",
        "nehari2d_M1_constant", "para_bound_trials0", "petermichl_steps1",
        "commutator_decomp_trials0", "nehari1d_trials0", "journe_n_str", "para_bound_n0",
        "petermichl_y_measure_bogus", "nehari1d_n_str_in_grid_rule", "journe_eps_str",
        "petermichl_Y_negative", "petermichl_Y_unbounded", "nehari2d_M33",
        "nehari1d_unknown_field", "petermichl_unknown_field", "lower_bound_grid_depth10",
        "aak_extend_M513", "aak_extend_recovery_degree513", "aak_extend_K129",
        "config_not_an_object", "experiment_not_a_string", "seed_beyond_64_bits",
        "nehari2d_n7", "petermichl_bump_width_1e308", "petermichl_bump_width_1e200",
        "petermichl_bump_width_1e-300", "petermichl_log_Y_below_a_cell",
        "petermichl_log_Y_one_cell"])
def test_bad_config_exits_1_with_error_json(tmp_path, bad):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(bad))
    rc = cli.main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "res")])
    assert rc == 1
    err = json.loads((tmp_path / "res" / "error.json").read_text())
    assert err["error"] == "config_invalid"
    assert not (tmp_path / "res" / "manifest.json").exists()


@pytest.mark.parametrize("cfg", [
    {"experiment": "nehari2d", "n": 2, "M": 4, "trials": 2},
    {"experiment": "nehari2d", "n": 3, "trials": 2},
    {"experiment": "nehari2d", "n": 4, "M": 8, "trials": 2},
], ids=["default_written_out", "depth3", "depth4_on_the_grid_of_M8"])
def test_nehari2d_accepts_its_depth(tmp_path, cfg):
    # n is the product-BMO depth, below the finest Haar scale of the grid of M
    m = ex.run(cfg, tmp_path, threads=1)
    assert m["summary"]["bmo_depth"] == cfg["n"]
    assert m["summary"]["ratio_min"] > 0


@pytest.mark.parametrize("threads", ["0", "-3", "65"])
def test_bad_thread_count_exits_1_with_error_json(tmp_path, threads):
    # one trial: even a wrong check starts at most one worker
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"experiment": "commutator-decomp", "n": 3, "trials": 1}))
    rc = cli.main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "res"),
                   "--threads", threads])
    assert rc == 1
    err = json.loads((tmp_path / "res" / "error.json").read_text())
    assert err["error"] == "config_invalid" and "threads" in err["message"]
    assert not (tmp_path / "res" / "manifest.json").exists()
    for bad in (True, 2.0):
        with pytest.raises(ex.ConfigError, match="threads"):
            ex.run({"experiment": "commutator-decomp", "n": 3, "trials": 1}, tmp_path / "api",
                   threads=bad)


class _ReadKeys(dict):
    def __init__(self, *args):
        super().__init__(*args)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)


@pytest.mark.parametrize("name, small", [
    ("nehari1d", {"trials": 1, "M": 4, "M_list": [4], "trend_trials": 1}),
    ("nehari2d", {"trials": 1}),
    ("para-bound", {"trials": 1, "n_list": [3]}),
    ("commutator-decomp", {"trials": 1, "n": 3}),
    ("petermichl", {"n": 3, "steps": 2}),
    ("aak-extend", {"trials": 1, "M_list": [2], "K": 1, "recovery_trials": 1, "recovery_degree": 2}),
    ("carleson", {"n_list": [0]}),
    ("journe", {}),
    ("lower-bound", {}),
])
def test_each_experiment_reads_exactly_its_fields(name, small):
    # seed is every experiment's field; petermichl draws nothing at random
    cfg = _ReadKeys(ex.validate_config({"experiment": name, **small}))
    ex.CATALOG[name]["fn"](cfg, 1)
    assert set(ex.CATALOG[name]["fields"]) <= cfg.read <= {"seed", *ex.CATALOG[name]["fields"]}


def test_carleson_calls_coefficient_book_once_per_n(tmp_path, monkeypatch):
    # one dict book a signal, read by both sups through book=
    from dyadiclab import norms

    calls = []
    build = norms.coefficient_book

    def counting(b, *args, **kwargs):
        calls.append(b.grid.depth)
        return build(b, *args, **kwargs)

    monkeypatch.setattr(norms, "coefficient_book", counting)
    ex.run({"experiment": "carleson", "n_list": [0, 1, 2]}, tmp_path, threads=1)
    assert calls == [3, 4, 5]


def test_carleson_runs_one_min_cut_per_depth(tmp_path, monkeypatch):
    from dyadiclab import norms

    calls = []
    solve = norms._max_union_ratio

    def counting(masses, depth):
        calls.append(depth)
        return solve(masses, depth)

    monkeypatch.setattr(norms, "_max_union_ratio", counting)
    m = ex.run({"experiment": "carleson", "n_list": [0, 1, 2]}, tmp_path, threads=1)
    assert calls == [3, 4, 5]
    # the heuristic column is the same cut, reported as a labelled lower bound
    assert "heuristic_lower_bound" in m["exactness_flags"]
    rows = (tmp_path / "rows.csv").read_text().splitlines()
    header = rows[0].split(",")
    for line in rows[1:]:
        row = dict(zip(header, line.split(",")))
        assert row["bmo_product_heuristic"] == row["bmo_product_exact"]


def test_lower_bound_default_depth_runs(tmp_path):
    m = ex.run({"experiment": "lower-bound"}, tmp_path, threads=1)
    assert m["summary"]["cauchy_schwarz_ok"]
    # the manifest echoes the fields given, and the seed, not the filled-in defaults
    assert m["config"] == {"experiment": "lower-bound", "seed": 0}


def test_trial_rng_streams_are_stable():
    a = ex.trial_rng(5, 7).standard_normal(4)
    b = ex.trial_rng(5, 7).standard_normal(4)
    c = ex.trial_rng(5, 8).standard_normal(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_run_writes_deterministic_outputs(tmp_path):
    cfg = {"experiment": "nehari1d", "M": 8, "trials": 4, "M_list": [4, 8],
           "trend_trials": 3, "seed": 7}
    m1 = ex.run(cfg, tmp_path / "a", threads=1)
    m2 = ex.run(cfg, tmp_path / "b", threads=2)
    m8 = ex.run(cfg, tmp_path / "c", threads=8)
    files = ["manifest.json", "rows.csv"]
    for f in files:
        b1 = (tmp_path / "a" / f).read_bytes()
        b2 = (tmp_path / "b" / f).read_bytes()
        b8 = (tmp_path / "c" / f).read_bytes()
        assert b1 == b2 == b8
    assert m1["summary"] == m2["summary"] == m8["summary"]
    # summary statistics recomputable from the per-trial rows
    import csv

    with open(tmp_path / "a" / "rows.csv") as fh:
        rows = [r for r in csv.DictReader(fh)]
    trial_rows = [r for r in rows if int(r["trial"]) >= 0]
    ratios = np.array([float(r["ratio"]) for r in trial_rows])
    assert abs(ratios.max() / ratios.min() - m1["summary"]["max_over_min"]) < 1e-12
    # run_info carries the wall clock and is excluded from the contract
    info = json.loads((tmp_path / "a" / "run_info.json").read_text())
    assert "elapsed_seconds" in info


def test_pooled_trials_are_deterministic_under_threads(tmp_path):
    # para-bound runs its trials through the --threads pool (nehari1d stacks them)
    cfg = {"experiment": "para-bound", "n_list": [3, 4], "trials": 6, "seed": 3}
    outputs = []
    for threads in (1, 2, 8):
        ex.run(cfg, tmp_path / f"t{threads}", threads=threads)
        outputs.append([(tmp_path / f"t{threads}" / f).read_bytes()
                        for f in ("manifest.json", "rows.csv")])
    assert outputs[0] == outputs[1] == outputs[2]


def test_commutator_decomp_experiment(tmp_path):
    m = ex.run({"experiment": "commutator-decomp", "n": 5, "trials": 3, "seed": 1},
               tmp_path, threads=1)
    assert m["summary"]["max_residual"] <= 1e-12


def test_aak_extend_runs_one_recovery_chain_per_symbol(monkeypatch):
    # default config: 3 recovery symbols extended K = 4 times; one chain per
    # symbol takes its base sequence norm and one values-only SVD a step (the
    # achieved norm; the completion is a solve), 3 (1 + 4)
    calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd",
                        lambda *a, **k: calls.append(k.get("compute_uv", True)) or svd(*a, **k))
    cfg = ex.validate_config({"experiment": "aak-extend"})
    ex.CATALOG["aak-extend"]["fn"](cfg, 1)
    with_recovery = len(calls)
    assert all(compute_uv is False for compute_uv in calls)
    calls.clear()
    ex.CATALOG["aak-extend"]["fn"]({**cfg, "recovery_trials": 0}, 1)
    assert with_recovery - len(calls) == 15


# The side of the largest matrix whose operator norm a run takes, from its config:
# nehari1d's M x M Hankel matrices, nehari2d's M^2 x M^2 little Hankel matrices,
# aak-extend's extended windows of a 2M - 1 sequence and its recovery chain's
# last window, 2 degree - 1 + K
LARGEST_NORM_SIDE = {
    "nehari1d": lambda f: max(f["M"], *f["M_list"]),
    "nehari2d": lambda f: f["M"] ** 2,
    "aak-extend": lambda f: max(2 * max(f["M_list"]), 2 * f["recovery_degree"] - 1 + f["K"]),
}


@pytest.mark.parametrize("name, small", [
    ("nehari1d", {"M": 5, "M_list": [3], "trials": 1, "trend_trials": 1}),
    ("nehari1d", {"M": 3, "M_list": [2, 6], "trials": 1, "trend_trials": 1}),
    ("nehari2d", {"M": 3, "n": 1, "trials": 2}),
    ("aak-extend", {"M_list": [6], "trials": 1, "recovery_trials": 1, "recovery_degree": 2, "K": 1}),
    ("aak-extend", {"M_list": [2], "trials": 1, "recovery_trials": 1, "recovery_degree": 4, "K": 3}),
])
def test_largest_norm_side_of_a_run(monkeypatch, name, small):
    # the run passes a dense-SVD cap at its predicted side and raises one below it
    cfg = ex.validate_config({"experiment": name, **small})
    side = LARGEST_NORM_SIDE[name](cfg)
    monkeypatch.setattr(norms, "_DENSE_SVD_MAX", side)
    ex.CATALOG[name]["fn"](cfg, 1)
    monkeypatch.setattr(norms, "_DENSE_SVD_MAX", side - 1)
    with pytest.raises(ValueError, match="dense-SVD cap"):
        ex.CATALOG[name]["fn"](cfg, 1)


def _int_cap(field):
    """The largest integer an integer field accepts (in a one-item list for a
    listed field), by bisection; None when it has no cap below 2^40."""
    listed = isinstance(field.default, list)
    ok = (lambda v: field.ok([v])) if listed else field.ok
    lo, hi = max(field.default) if listed else field.default, 2 ** 40
    if ok(hi):
        return None
    while hi - lo > 1:  # ok(lo) and not ok(hi)
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if ok(mid) else (lo, mid)
    assert ok(lo) and not ok(lo + 1)
    return [lo] if listed else lo


def test_catalog_caps_stay_within_the_dense_svd_cap():
    # a field cap raised past the guard would end a run in a bare ValueError
    sides = {name: side({key: _int_cap(f) for key, f in ex.CATALOG[name]["fields"].items()})
             for name, side in LARGEST_NORM_SIDE.items()}
    assert sides == {"nehari1d": 512, "nehari2d": 1024, "aak-extend": 1151}
    assert max(sides.values()) <= norms._DENSE_SVD_MAX


def test_cli_list_and_run(tmp_path, capsys):
    assert cli.main(["list"]) == 0
    lines = capsys.readouterr().out.splitlines()
    # what comes before the first colon is the name alone
    assert {line.split(":")[0] for line in lines} == EXPECTED_NAMES
    for line in lines:
        name = line.split(":")[0]
        for field in ["seed", *ex.CATALOG[name]["fields"]]:
            assert f" {field}=" in line, (name, field)

    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"experiment": "commutator-decomp", "n": 4,
                                    "trials": 2, "seed": 3}))
    rc = cli.main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "res")])
    assert rc == 0
    assert (tmp_path / "res" / "manifest.json").exists()
    assert (tmp_path / "res" / "rows.csv").exists()

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"experiment": "unknown-name"}))
    rc = cli.main(["run", "--config", str(bad), "--out", str(tmp_path / "res2")])
    assert rc == 1
    err = json.loads((tmp_path / "res2" / "error.json").read_text())
    assert err["error"] == "config_invalid"
    assert "catalog" in err["message"]

    rc = cli.main(["run", "--config", str(tmp_path / "missing.json"),
                   "--out", str(tmp_path / "res3")])
    assert rc == 1


def test_out_naming_a_file_exits_1_without_traceback(tmp_path, capsys):
    # the output directory cannot be made there, nor error.json written into it
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"experiment": "commutator-decomp", "n": 3, "trials": 1}))
    taken = tmp_path / "taken"
    taken.write_text("not a directory\n")
    rc = cli.main(["run", "--config", str(cfg_path), "--out", str(taken)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
    assert taken.read_text() == "not a directory\n"


def test_cli_seed_override(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"experiment": "commutator-decomp", "n": 4,
                                    "trials": 1, "seed": 3}))
    rc = cli.main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "r1"),
                   "--seed", "99"])
    assert rc == 0
    man = json.loads((tmp_path / "r1" / "manifest.json").read_text())
    assert man["config"]["seed"] == 99
    # a config that is not a JSON object takes no seed and is an invalid config
    cfg_path.write_text(json.dumps([{"experiment": "commutator-decomp"}]))
    rc = cli.main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "r2"),
                   "--seed", "99"])
    assert rc == 1
    assert json.loads((tmp_path / "r2" / "error.json").read_text())["error"] == "config_invalid"


def test_env_var_output_dir(tmp_path, monkeypatch):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"experiment": "commutator-decomp", "n": 4,
                                    "trials": 1, "seed": 0}))
    monkeypatch.setenv("DYADICLAB_OUT", str(tmp_path / "envout"))
    monkeypatch.chdir(tmp_path)
    assert cli.main(["run", "--config", str(cfg_path)]) == 0
    assert (tmp_path / "envout" / "manifest.json").exists()


def test_para_bound_csv_shape(tmp_path):
    m = ex.run({"experiment": "para-bound", "n_list": [4, 5], "trials": 2, "seed": 0},
               tmp_path, threads=1)
    import csv

    with open(tmp_path / "rows.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4  # one row per (n, trial)
    assert {(r["n"], r["trial"]) for r in rows} == {("4", "0"), ("4", "1"), ("5", "0"), ("5", "1")}
    assert "log_max_ratio_slope_vs_n" in m["summary"]


@pytest.mark.parametrize("cfg, key", [
    ({"experiment": "para-bound", "n_list": [3], "trials": 1}, "log_max_ratio_slope_vs_n"),
    ({"experiment": "nehari1d", "trials": 1, "M": 8, "M_list": [8], "trend_trials": 2},
     "log_ratio_slope_per_log2M"),
], ids=["para_bound_one_n", "nehari1d_one_M"])
def test_slope_of_one_point_is_nan(tmp_path, cfg, key):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        m = ex.run(cfg, tmp_path, threads=1)
    assert np.isnan(m["summary"][key])
