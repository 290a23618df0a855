"""Command line driver: `dyadiclab run --config cfg.json --out results/`
and `dyadiclab list`."""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .experiments import ConfigError, list_experiments, run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="dyadiclab",
        description="batch experiments for the dyadic Hankel/BMO laboratory",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment from a JSON config")
    p_run.add_argument("--config", required=True, help="path to the JSON config")
    p_run.add_argument("--out", default=None,
                       help="output directory (default: $DYADICLAB_OUT or ./results)")
    p_run.add_argument("--seed", type=int, default=None, help="override the config seed")
    p_run.add_argument("--threads", type=int, default=1,
                       help="worker threads, 1..64, for the trials of para-bound, commutator-decomp "
                            "and aak-extend (nehari1d and nehari2d stack their trials instead)")

    sub.add_parser("list", help="print the experiment catalog with each experiment's fields")

    args = parser.parse_args(argv)

    if args.command == "list":
        for name, desc in list_experiments().items():
            print(f"{name}: {desc}")
        return 0

    out_dir = args.out or os.environ.get("DYADICLAB_OUT", "results")
    try:
        with open(args.config) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        _write_error(out_dir, "config_read", str(exc))
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 1
    if args.seed is not None and isinstance(cfg, dict):  # validate_config rejects a non-object
        cfg["seed"] = args.seed
    try:
        manifest = run(cfg, out_dir, threads=args.threads)
    except ConfigError as exc:
        _write_error(out_dir, "config_invalid", str(exc))
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:  # the output directory cannot be made or written (--out names a file)
        _write_error(out_dir, "output", str(exc))
        print(f"error: cannot write results: {exc}", file=sys.stderr)
        return 1
    except AssertionError as exc:
        _write_error(out_dir, "experiment_assertion", str(exc))
        print(f"experiment assertion failed: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(manifest["summary"], sort_keys=True, indent=2))
    return 0


def _write_error(out_dir, kind: str, message: str) -> None:
    try:
        path = Path(out_dir)
        path.mkdir(parents=True, exist_ok=True)
        with open(path / "error.json", "w") as fh:
            json.dump({"error": kind, "message": message}, fh, sort_keys=True, indent=2)
            fh.write("\n")
    except OSError:
        pass


if __name__ == "__main__":
    sys.exit(main())
