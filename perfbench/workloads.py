"""Workloads of the riskratio benchmark: inputs made from a seed, output checks.

Every workload is one ``riskratio`` subcommand whose whole input is a
``key=value`` config file (plus, for ``estimate``, a CSV) written by
:meth:`Workload.materialise`; the seed reaches the program only through
those files.  The reasons for each workload are in ``README.md``.
"""

from __future__ import annotations

import csv
import hashlib
import math
import os
from dataclasses import dataclass, field


# fixed seed of the small golden cases whose key estimates are pinned
# in reference.json
GOLDEN_SEED = 20241016


@dataclass(frozen=True)
class Inputs:
    argv: list[str]
    items: int  # rows for estimate, replications for experiment
    evaluations: int  # estimator evaluations per call
    closed_form: dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # estimate | experiment
    options: dict  # config-file keys; for estimate, "rows" of the generated CSV
    golden: dict = field(default_factory=dict)  # overrides for the golden case
    # also run the seeded plan once with this many workers; the report must
    # not change
    parallel_workers: int | None = None

    def materialise(self, seed: int, directory: str, overrides=None, tag: str = "") -> Inputs:
        """Write this workload's input files for ``seed`` into ``directory``."""
        os.makedirs(directory, exist_ok=True)
        options = {**self.options, **(overrides or {})}
        tag = f"{self.name}-{tag}" if tag else self.name
        conf = os.path.join(directory, f"{tag}.conf")
        estimators = options["estimators"].split(",")
        closed_form = {}
        if self.command == "estimate":
            rows = options.pop("rows")
            csv_path = os.path.join(directory, f"{tag}.csv")
            closed_form = _write_dataset(csv_path, rows, seed, options["e"])
            options.update(input=csv_path, seed=seed)
            items, evaluations = rows, len(estimators)
        else:
            options.update(master_seed=seed)
            items = options["reps"]
            evaluations = items * len(estimators)
        with open(conf, "w", encoding="utf-8") as fh:
            fh.writelines(f"{k}={v}\n" for k, v in options.items())
        return Inputs(
            argv=[self.command, "--config", conf],
            items=items,
            evaluations=evaluations,
            closed_form=closed_form,
        )


def _write_dataset(path: str, rows: int, seed: int, e: float) -> dict[str, float]:
    """Write a lunceford sample as CSV; return the closed-form neyman and ht points."""
    import numpy as np
    from riskratio.data import write_csv
    from riskratio.dgp import DGPSpec, generate

    d = generate(DGPSpec(kind="lunceford", n=rows, seed=seed)).dataset
    write_csv(d, path)
    treated = d.t == 1
    t = d.t.astype(float)
    return {
        "neyman.point": float(d.y[treated].mean()) / float(d.y[~treated].mean()),
        "ht.point": float(np.mean(t * d.y) / e) / float(np.mean((1.0 - t) * d.y) / (1.0 - e)),
    }


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="estimate_csv",
            command="estimate",
            options={
                "estimators": "neyman,ht,ipw,g,os,aipw",
                "nuisance": "parametric",
                "k": 5,
                "e": 0.5,
                "rows": 100_000,
            },
            golden={"rows": 2000},
        ),
        Workload(
            name="mc_parametric",
            command="experiment",
            options={
                "dgp": "lunceford",
                "n_list": 1000,
                "reps": 100,
                "estimators": "neyman,ipw,g,os,aipw",
                "workers": 1,
            },
            golden={"reps": 4, "truth_draws": 100000},
        ),
        Workload(
            name="mc_forest",
            command="experiment",
            options={
                "dgp": "wager_nl_nonlogistic",
                "n_list": 500,
                "reps": 2,
                "estimators": "aipw:forest:2",
                "n_trees": 100,
                "workers": 1,
            },
            golden={"n_list": 200, "n_trees": 10, "truth_draws": 100000},
            parallel_workers=2,
        ),
    )
}


def report_bytes(out_dir: str) -> bytes:
    """The numeric report, ``report.csv`` then ``report.json``, as bytes."""
    parts = []
    for name in ("report.csv", "report.json"):
        with open(os.path.join(out_dir, name), "rb") as fh:
            parts.append(fh.read())
    return b"\n".join(parts)


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def _read_rows(out_dir: str) -> list[dict]:
    with open(os.path.join(out_dir, "report.csv"), newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _number(text: str) -> float:
    return float(text) if text != "" else math.nan


def key_estimates(command: str, out_dir: str) -> dict[str, float]:
    """Estimates a speed-up must not change, by name."""
    rows = _read_rows(out_dir)
    if command == "estimate":
        out = {}
        for r in rows:
            out[f"{r['estimator']}.point"] = _number(r["point"])
            out[f"{r['estimator']}.se"] = _number(r["se"])
        return out
    wanted = ("true_rr", "mean_estimate", "sd", "coverage", "mean_ci_length")
    return {
        r["metric"] if r["estimator"] == "__truth__" else f"{r['estimator']}.{r['n']}.{r['metric']}":
            _number(r["value"])
        for r in rows
        if r["metric"] in wanted
    }


def operations(command: str, out_dir: str, inputs: Inputs) -> tuple[int, int]:
    """(attempted, failed) estimator evaluations recorded in a report."""
    rows = _read_rows(out_dir)
    if command == "estimate":
        attempted = inputs.evaluations
        ok = sum(1 for r in rows if math.isfinite(_number(r["point"])))
        return attempted, attempted - ok
    reps = sum(int(r["value"]) for r in rows if r["metric"] == "reps")
    failed = sum(int(r["value"]) for r in rows if r["metric"] == "n_failed")
    return reps, failed


def mismatches(found: dict[str, float], expected: dict[str, float], rel: float, abs_: float):
    """Names whose values differ beyond ``rel``/``abs_`` or are missing."""
    bad = []
    for name, want in expected.items():
        got = found.get(name)
        if got is None:
            bad.append(f"{name} missing")
        elif not (
            (math.isnan(want) and math.isnan(got))
            or math.isclose(got, want, rel_tol=rel, abs_tol=abs_)
        ):
            bad.append(f"{name}={got!r} expected {want!r}")
    return bad
