"""riskratio benchmark: user-level CLI paths timed in-process.

Usage, from the root of a riskratio checkout::

    python3 perfbench/run.py --workload mc_forest --seed 3 --seconds 30 --trace 0

One run sets up the workload's inputs from ``--seed`` (several times, to
time set-up), runs a small fixed-seed golden case (warm-up and check
against ``reference.json``), then calls ``riskratio.cli.main`` on the
seeded inputs repeatedly for about ``--seconds`` seconds.  A workload with
``parallel_workers`` then runs its plan once on the worker pool, whose
report must equal the serial one.  With ``--trace 1`` the first half of
the time runs untraced and the second half with every layer's public
functions wrapped (see ``layertrace.py``), and the per-layer metrics are
reported instead of the end-to-end ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it records the seed, the environment and every failed check.
``python3 perfbench/run.py --write-reference`` re-pins the golden values.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from time import perf_counter

import layertrace
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "reference.json")
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
SETUP_REPEATS = 3
MIN_ITERATIONS = 3  # timed calls per run, whatever --seconds allows

END_TO_END_UNITS = {
    "wall_s": "s",
    "items_per_s": "1/s",
    "setup_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "ok_share": "share",
}


def _work_dir(workload) -> str:
    # relative and fixed per workload, so that the paths the estimate report
    # records, and with them its digest, repeat from run to run
    return os.path.join(".perfbench_work", workload.name)


def _cpu_seconds() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        use = resource.getrusage(who)
        total += use.ru_utime + use.ru_stime
    return total


def _import_cli(src: str):
    cli = importlib.import_module("riskratio.cli")
    if not os.path.abspath(cli.__file__).startswith(os.path.join(src, "")):
        raise RuntimeError(f"riskratio imported from {cli.__file__}, not from {src}")
    return cli


def _timed_import(src: str) -> float:
    """Seconds a fresh interpreter takes to import the riskratio CLI.

    A command-line user pays this on every command.  It runs in a child
    process because import time varies from one process to the next.
    """
    env = {**os.environ, "PYTHONPATH": src}
    t0 = perf_counter()
    # no timeout: with one, Popen.wait polls and rounds the time up to 50 ms steps
    subprocess.run([sys.executable, "-c", "import riskratio.cli"], env=env, check=True)
    return perf_counter() - t0


def _environment() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_cap": {v: os.environ.get(v) for v in THREAD_VARS},
    }


class Tally:
    """Operations attempted and failed: estimator evaluations plus checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def ops(self, attempted: int, failed: int) -> None:
        self.attempted += attempted
        self.failed += failed

    def check(self, name: str, passed: bool, detail: str = "") -> None:
        self.attempted += 1
        if not passed:
            self.failed += 1
            self.failures.append(f"{name}: {detail}")


class Runner:
    def __init__(self, cli, workload, inputs, work: str, tally: Tally):
        self.cli = cli
        self.workload = workload
        self.inputs = inputs
        self.work = work
        self.out = os.path.join(work, "out")
        self.tally = tally
        self.report: bytes | None = None

    def call(self, argv: list[str]) -> tuple[int | None, float, float]:
        """One CLI call: (exit code, wall seconds, CPU seconds)."""
        shutil.rmtree(self.out, ignore_errors=True)
        # collect the previous call's garbage outside the timed region
        gc.collect()
        cpu0 = _cpu_seconds()
        t0 = perf_counter()
        try:
            rc = self.cli.main(argv + ["--out", self.out])
        except Exception:  # a crash is a failed call, counted by the caller
            traceback.print_exc()
            rc = None
        wall = perf_counter() - t0
        return rc, wall, _cpu_seconds() - cpu0

    def timed(self, budget_s: float, min_calls: int, after_call=None):
        """Call the seeded workload until ``budget_s`` would be exceeded.

        Returns the wall and CPU seconds of each call.  ``after_call`` runs
        after each call, outside the timed region.
        """
        walls, cpus = [], []
        start = perf_counter()
        while len(walls) < min_calls or (
            perf_counter() - start + statistics.median(walls) <= budget_s
        ):
            rc, wall, cpu = self.call(self.inputs.argv)
            walls.append(wall)
            cpus.append(cpu)
            if after_call:
                after_call()
            self._check_call(rc)
        return walls, cpus

    def _check_call(self, rc: int | None) -> None:
        self.tally.check("exit code", rc == 0, f"riskratio exited with {rc}")
        if rc != 0:
            self.tally.ops(self.inputs.evaluations, self.inputs.evaluations)
            return
        self.tally.ops(*workloads.operations(self.workload.command, self.out, self.inputs))
        report = workloads.report_bytes(self.out)
        if self.report is not None:
            self.tally.check(
                "report repeats",
                report == self.report,
                f"digest {workloads.digest(report)} != {workloads.digest(self.report)}",
            )
            return
        self.report = report
        if self.inputs.closed_form:
            found = workloads.key_estimates(self.workload.command, self.out)
            bad = workloads.mismatches(found, self.inputs.closed_form, rel=1e-9, abs_=0.0)
            self.tally.check("closed-form neyman/ht", not bad, "; ".join(bad))

    def golden(self) -> tuple[dict[str, float], str] | None:
        """Run the fixed-seed golden case: its key estimates and report digest."""
        wl = self.workload
        inputs = wl.materialise(workloads.GOLDEN_SEED, self.work, wl.golden, "golden")
        rc, _, _ = self.call(inputs.argv)
        if rc != 0:
            return None
        return (
            workloads.key_estimates(wl.command, self.out),
            workloads.digest(workloads.report_bytes(self.out)),
        )


def _check_golden(runner: Runner, reference: dict) -> str:
    """Check the golden case against ``reference``; return its digest."""
    result = runner.golden()
    if result is None:
        runner.tally.check("golden case", False, "riskratio exited with an error")
        return ""
    found, digest = result
    tol = reference["tolerance"]
    expected = reference["golden"][runner.workload.name]
    bad = workloads.mismatches(found, expected, tol["rel"], tol["abs"])
    runner.tally.check("golden key estimates", not bad, "; ".join(bad))
    return digest


def _check_parallel(runner: Runner, seed: int) -> tuple[float, float]:
    """Run the seeded plan on the worker pool; its report must equal the serial one.

    Returns the pool call's wall and CPU seconds.
    """
    workers = runner.workload.parallel_workers
    inputs = runner.workload.materialise(seed, runner.work, {"workers": workers}, "pool")
    rc, wall, cpu = runner.call(inputs.argv)
    same = rc == 0 and workloads.report_bytes(runner.out) == runner.report
    runner.tally.check(f"report with workers={workers}", same, f"exit {rc} or reports differ")
    return wall, cpu


def _pool_metrics(pool: tuple[float, float] | None, serial_wall: float) -> dict:
    """Per-layer metrics of the worker-pool call (zeros when there is none)."""
    wall, cpu = pool or (0.0, 0.0)
    return {
        "montecarlo.pool_wall_s": {"value": wall, "unit": "s"},
        "montecarlo.pool_cpu_s": {"value": cpu, "unit": "s"},
        "montecarlo.pool_speedup": {"value": serial_wall / wall if wall else 0.0, "unit": "ratio"},
    }


def _traced(runner: Runner, budget_s: float, untraced_wall: float):
    """Run traced calls; per-layer metrics (medians over calls) and notes."""
    tracer = layertrace.Tracer()
    per_call: list[dict] = []
    observed: dict[str, int] = {}
    last_spans = []

    def measure():
        nonlocal last_spans
        last_spans = tracer.take()
        totals = layertrace.totals_by_key(last_spans)
        for key, tot in totals.items():
            observed[key] = observed.get(key, 0) + tot.calls
        per_call.append({n: fn(totals) for n, (_, fn, _) in layertrace.METRICS.items()})

    tracer.install()
    try:
        walls, _ = runner.timed(budget_s, 1, after_call=measure)
    finally:
        tracer.uninstall()
    metrics = {
        name: {"value": statistics.median(c[name] for c in per_call), "unit": unit}
        for name, (unit, _, _) in layertrace.METRICS.items()
    }
    traced_wall = statistics.median(walls)
    metrics["trace.wall_s"] = {"value": traced_wall, "unit": "s"}
    metrics["trace.overhead_s"] = {"value": traced_wall - untraced_wall, "unit": "s"}
    notes = {}
    for name, (_, _, keys) in layertrace.METRICS.items():
        missing = [tracer.absent[k] for k in keys if k in tracer.absent]
        if len(missing) == len(keys):
            notes[name] = "absent: " + "; ".join(missing)
        elif not any(observed.get(k) for k in keys):
            notes[name] = "not observed: no call in this process"
    calls = observed.get("montecarlo.run_single", 0) / len(walls)
    expected = runner.inputs.evaluations
    if runner.workload.command == "experiment" and calls < expected:
        notes["montecarlo.run_single_calls"] = (
            f"not observed: {calls:g} of {expected} calls per run in this process"
        )
    return metrics, notes, last_spans


def _write_spans(path: str, spans, header: dict) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    t0 = min((s.start for s in spans), default=0.0)
    rows = [
        [s.sid, s.parent, s.key, round(s.start - t0, 7), round(s.end - t0, 7), s.ok]
        for s in spans
    ]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({**header, "span_fields": ["id", "parent", "key", "start_s", "end_s", "ok"],
                   "spans": rows}, fh)


def run(args, root: str) -> dict:
    src = os.path.join(root, "src")
    with open(REFERENCE, encoding="utf-8") as fh:
        reference = json.load(fh)
    wl = workloads.WORKLOADS[args.workload]
    work = _work_dir(wl)
    tally = Tally()
    cli = _import_cli(src)
    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            import_s = _timed_import(src)
            t0 = perf_counter()
            inputs = wl.materialise(args.seed, work)
            setup_times.append(import_s + perf_counter() - t0)
        runner = Runner(cli, wl, inputs, work, tally)
        golden_digest = _check_golden(runner, reference)
        if args.trace:
            walls, cpus = runner.timed(args.seconds / 2, 1)
            metrics, notes, spans = _traced(runner, args.seconds / 2, statistics.median(walls))
        else:
            walls, cpus = runner.timed(args.seconds, MIN_ITERATIONS)
            notes, spans = {}, []
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        pool = _check_parallel(runner, args.seed) if wl.parallel_workers else None
    finally:
        shutil.rmtree(work, ignore_errors=True)
    wall = statistics.median(walls)
    if args.trace:
        pool_metrics = _pool_metrics(pool, wall)
        metrics.update(pool_metrics)
        if pool is None:
            notes.update(dict.fromkeys(pool_metrics, "not observed: this workload runs no pool"))
    else:
        values = {
            "wall_s": wall,
            "items_per_s": inputs.items / wall,
            "setup_s": statistics.median(setup_times),
            "cpu_s": statistics.median(cpus),
            "peak_rss_mb": peak_rss_mb,
            "ok_share": 1.0 - tally.failed / tally.attempted,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    summary = {
        "workload": wl.name,
        "seed": args.seed,
        "trace": args.trace,
        "environment": _environment(),
        "calls": len(walls),
        "wall_s_each": walls,
        "setup_s_each": setup_times,
        "report_digest": workloads.digest(runner.report) if runner.report else None,
        "golden_digest": golden_digest,
        "golden_digest_recorded": reference["golden_digest"].get(wl.name),
        "pool_wall_s": pool[0] if pool else None,
        "failed_share": tally.failed / tally.attempted,
        "failed_checks": tally.failures,
        "notes": notes,
    }
    if args.trace:
        _write_spans(
            os.path.join(root, ".perfbench_work", f"spans-{wl.name}.json"),
            spans,
            {k: summary[k] for k in ("workload", "seed", "environment", "notes")},
        )
    print("summary " + json.dumps(summary))
    return {
        "correct": not tally.failures,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }


def write_reference(root: str) -> None:
    """Re-pin the golden key estimates and digests in reference.json."""
    with open(REFERENCE, encoding="utf-8") as fh:
        reference = json.load(fh)
    cli = _import_cli(os.path.join(root, "src"))
    for wl in workloads.WORKLOADS.values():
        work = _work_dir(wl)
        try:
            result = Runner(cli, wl, None, work, Tally()).golden()
        finally:
            shutil.rmtree(work, ignore_errors=True)
        if result is None:
            raise RuntimeError(f"golden case of {wl.name} failed")
        reference["golden"][wl.name], reference["golden_digest"][wl.name] = result
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=2)
        fh.write("\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "riskratio", "__init__.py")):
        print("error: src/riskratio not found; run from the root of a checkout", file=sys.stderr)
        return 2
    # cap BLAS threads before numpy is first imported
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, os.path.join(root, "src"))
    if args.write_reference:
        write_reference(root)
        return 0
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    result = run(args, root)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
