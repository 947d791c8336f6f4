"""Command-line front end.

Subcommands::

    riskratio estimate   --input data.csv --out DIR [--estimators neyman,aipw ...]
    riskratio simulate   --dgp lunceford --n 5000 --seed 7 --out DIR
    riskratio experiment --dgp lunceford --n-list 1000 --reps 300 --out DIR ...
    riskratio true-rr    --dgp linear_rct [--draws 1000000]

Every option can also come from a ``--config`` file of ``key=value``
lines (``#`` comments allowed); explicit command-line flags win.  Keys
are the long option names with underscores, e.g. ``n_list=500,1000``.
Each run writes the fully resolved configuration (defaults expanded) to
``<out>/config.resolved``, which is itself a valid config file.

Exit codes: 0 success, 2 validation error, 3 runtime/fit error, 4 I/O error.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import asdict

from .data import load_csv
from .dgp import KINDS, DGPSpec, export_sample, generate, true_rr
from .errors import EstimationError, ValidationError
from .montecarlo import (
    _METHODS,
    EstimatorConfig,
    ExperimentPlan,
    run_experiment,
    run_single,
    write_report_csv,
    write_report_json,
)
from .rng import derive_seed


def _to_float_or_none(s):
    return None if s in ("", "none") else float(s)


def _to_int_list(s):
    return tuple(int(v) for v in str(s).split(",") if v != "")


def _to_str_list(s):
    return tuple(v for v in str(s).split(",") if v != "")


# per-subcommand option tables: key -> (default, converter, help)
_COMMON = {
    "config": (None, str, "key=value config file; explicit flags override it"),
}

_OPTIONS = {
    "estimate": {
        **_COMMON,
        "input": (None, str, "input CSV with header y,t,x1..xp (required)"),
        "out": (None, str, "output directory (required)"),
        "estimators": (
            ("aipw",),
            _to_str_list,
            f"comma list of method[:nuisance[:k]] specs, methods from {_METHODS}",
        ),
        "nuisance": ("parametric", str, "default nuisance learners: parametric|forest"),
        "k": (5, int, "cross-fitting folds for os/aipw"),
        "alpha": (0.05, float, "interval miscoverage level"),
        "ci_style": ("wald", str, "wald|log_delta|katz"),
        "eta": (0.01, float, "propensity clipping level"),
        "e": (None, _to_float_or_none, "known assignment probability (ht only)"),
        "n_trees": (100, int, "trees per forest nuisance"),
        "seed": (0, int, "seed for folds and forest nuisances"),
    },
    "simulate": {
        **_COMMON,
        "dgp": (None, str, f"DGP kind, one of {KINDS} (required)"),
        "n": (1000, int, "sample size"),
        "seed": (0, int, "generator seed"),
        "sigma": (1.0, float, "outcome noise standard deviation"),
        "out": (None, str, "output directory (required)"),
    },
    "experiment": {
        **_COMMON,
        "dgp": (None, str, f"DGP kind, one of {KINDS} (required)"),
        "n_list": ((1000,), _to_int_list, "comma list of sample sizes"),
        "reps": (300, int, "replications per sample size"),
        "sigma": (1.0, float, "outcome noise standard deviation"),
        "master_seed": (0, int, "master seed; replication seeds derive from it"),
        "estimators": (
            ("parametric_aipw",),
            _to_str_list,
            "comma list of method[:nuisance[:k]] or nuisance_method specs",
        ),
        "alpha": (0.05, float, "interval miscoverage level"),
        "ci_style": ("wald", str, "wald|log_delta"),
        "eta": (0.01, float, "propensity clipping level"),
        "e": (None, _to_float_or_none, "known assignment probability (ht only)"),
        "n_trees": (100, int, "trees per forest nuisance"),
        "truth_draws": (10**6, int, "Monte-Carlo draws for the true RR"),
        "workers": (1, int, "concurrent replication workers"),
        "out": (None, str, "output directory (required)"),
    },
    "true-rr": {
        **_COMMON,
        "dgp": (None, str, f"DGP kind, one of {KINDS} (required)"),
        "draws": (10**6, int, "Monte-Carlo draws (ignored for closed forms)"),
        "seed": (0, int, "oracle seed"),
    },
}

_REQUIRED = {
    "estimate": ("input", "out"),
    "simulate": ("dgp", "out"),
    "experiment": ("dgp", "out"),
    "true-rr": ("dgp",),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="riskratio",
        description="Risk-ratio estimation, synthetic data, and Monte-Carlo studies",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, table in _OPTIONS.items():
        p = sub.add_parser(command, help=f"{command} command")
        for key, (_default, _conv, help_text) in table.items():
            p.add_argument(f"--{key.replace('_', '-')}", dest=key, default=None, help=help_text)
    return parser


def _read_config_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValidationError(f"{path}: line {lineno}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            values[key.strip()] = value.strip()
    return values


def _resolve(args: argparse.Namespace) -> dict:
    """Merge CLI flags over config-file values over defaults; convert types."""
    table = _OPTIONS[args.command]
    file_values: dict[str, str] = {}
    if getattr(args, "config", None):
        file_values = _read_config_file(args.config)
        unknown = set(file_values) - set(table) - {"command"}
        if unknown:
            raise ValidationError(f"unknown config keys: {sorted(unknown)}")
    resolved: dict = {"command": args.command}
    for key, (default, conv, _help) in table.items():
        raw = getattr(args, key, None)
        if raw is None:
            raw = file_values.get(key)
        if raw is None:
            resolved[key] = default
            continue
        try:
            resolved[key] = conv(raw)
        except ValueError:
            raise ValidationError(f"invalid value {raw!r} for --{key.replace('_', '-')}") from None
    for key in _REQUIRED[args.command]:
        if resolved[key] is None:
            raise ValidationError(f"--{key.replace('_', '-')} is required")
    return resolved


def _format_value(value) -> str:
    if value is None:
        return ""
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _resolved_lines(cfg: dict) -> list[str]:
    return [f"{k}={_format_value(v)}" for k, v in sorted(cfg.items()) if k != "config"]


def _write_resolved(cfg: dict) -> None:
    os.makedirs(cfg["out"], exist_ok=True)
    path = os.path.join(cfg["out"], "config.resolved")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(_resolved_lines(cfg)) + "\n")


def _parse_estimator_spec(spec: str, cfg: dict) -> EstimatorConfig:
    """Accept ``method``, ``method:nuisance``, ``method:nuisance:k``,
    or the report-style label ``nuisance_method``."""
    parts = spec.split(":")
    if len(parts) > 3:
        raise ValidationError(f"estimator {spec!r} has more than three ':'-separated parts")
    method = parts[0]
    nuisance = cfg.get("nuisance", "parametric")
    k = cfg.get("k", 5)
    if method not in _METHODS and "_" in method and len(parts) == 1:
        nuisance, _, method = method.partition("_")
    if len(parts) >= 2:
        nuisance = parts[1]
    if len(parts) >= 3:
        try:
            k = int(parts[2])
        except ValueError:
            raise ValidationError(f"estimator {spec!r}: k must be an integer") from None
    if method not in _METHODS:
        raise ValidationError(f"unknown estimator {spec!r}")
    return EstimatorConfig(
        method=method,
        nuisance=nuisance,
        k=k,
        ci_style=cfg["ci_style"],
        alpha=cfg["alpha"],
        e=cfg.get("e"),
        eta=cfg["eta"],
        n_trees=cfg["n_trees"],
    )


def cmd_estimate(cfg: dict) -> int:
    dataset = load_csv(cfg["input"])
    if cfg["ci_style"] == "katz" and not dataset.binary_outcome:
        raise ValidationError("--ci-style katz requires a binary outcome column")
    if cfg["nuisance"] not in ("parametric", "forest"):
        raise ValidationError("--nuisance must be parametric or forest")
    configs = [_parse_estimator_spec(spec, cfg) for spec in cfg["estimators"]]
    rows = []
    for idx, est_cfg in enumerate(configs):
        try:
            est = run_single(dataset, est_cfg, derive_seed(cfg["seed"], idx))
        except EstimationError as exc:
            raise EstimationError(f"{est_cfg.name}: {exc}") from exc
        rows.append(
            {
                "estimator": est_cfg.name,
                "point": est.point.value,
                "degenerate": est.point.degenerate,
                "v_hat": est.v_hat,
                "se": est.se,
                "ci_lower": est.ci_lower,
                "ci_upper": est.ci_upper,
                "flags": ";".join(est.flags + est.point.notes),
            }
        )
    _write_resolved(cfg)
    header = ["estimator", "point", "degenerate", "v_hat", "se", "ci_lower", "ci_upper", "flags"]
    with open(os.path.join(cfg["out"], "report.csv"), "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=header)
        writer.writeheader()
        for row in rows:
            writer.writerow({k: ("" if v is None else v) for k, v in row.items()})
    with open(os.path.join(cfg["out"], "report.json"), "w", encoding="utf-8") as fh:
        json.dump({"config": _resolved_lines(cfg), "estimates": rows}, fh, indent=2)
    return 0


def cmd_simulate(cfg: dict) -> int:
    spec = DGPSpec(kind=cfg["dgp"], n=cfg["n"], seed=cfg["seed"], noise_sd=cfg["sigma"])
    sample = generate(spec)
    _write_resolved(cfg)
    export_sample(sample, cfg["out"])
    return 0


def cmd_experiment(cfg: dict) -> int:
    plan = ExperimentPlan(
        dgp_kind=cfg["dgp"],
        sample_sizes=cfg["n_list"],
        reps=cfg["reps"],
        estimators=tuple(_parse_estimator_spec(s, cfg) for s in cfg["estimators"]),
        noise_sd=cfg["sigma"],
        master_seed=cfg["master_seed"],
        truth_draws=cfg["truth_draws"],
        workers=cfg["workers"],
    )
    plan.validate()
    plan.check_parametric_rows()
    report = run_experiment(plan)
    _write_resolved(cfg)
    write_report_csv(report, os.path.join(cfg["out"], "report.csv"))
    write_report_json(report, os.path.join(cfg["out"], "report.json"))
    return 0


def cmd_true_rr(cfg: dict) -> int:
    result = true_rr(cfg["dgp"], mc_draws=cfg["draws"], seed=cfg["seed"])
    for line in _resolved_lines(cfg):
        print(f"config.{line}")
    for key, value in asdict(result).items():
        name = "true_rr" if key == "value" else key
        print(f"{name}={_format_value(value)}")
    return 0


_HANDLERS = {
    "estimate": cmd_estimate,
    "simulate": cmd_simulate,
    "experiment": cmd_experiment,
    "true-rr": cmd_true_rr,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _resolve(args)
        return _HANDLERS[args.command](cfg)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except EstimationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
