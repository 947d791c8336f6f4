"""Per-layer spans for riskratio, recorded from outside the package.

:class:`Tracer` replaces each target function with a timing wrapper at
every attribute a caller looks it up by: the defining module, every
``riskratio`` module that imported it by name, and the class for methods.
Spans stay in memory as ``(id, parent, key, start, end, ok, info)`` until
the caller takes them.  A target missing from the package is recorded in
``Tracer.absent`` and never fails the run.

A span that starts on a thread with no open span of its own (a pool
worker) takes the innermost open span of the thread that installed the
tracer as its parent.  Work done in other processes leaves no span.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import threading
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter
from typing import Callable


def _result_rows(args, kwargs, result):
    return result.n


def _draw_count(args, kwargs, result):
    return args[1] if len(args) > 1 else kwargs["n"]


def _forest_size(args, kwargs, result):
    return (len(result.trees), sum(t.feature.size for t in result.trees))


@dataclass(frozen=True)
class Target:
    layer: str
    module: str
    qualname: str
    info: Callable | None = None

    @property
    def key(self) -> str:
        return f"{self.layer}.{self.qualname}"


def _targets(layer, module, names, info=None):
    return [Target(layer, f"riskratio.{module}", name, info) for name in names]


# Public functions of each layer, by the module that defines them.
TARGETS = (
    _targets("cli", "cli", ["main"])
    + _targets("data", "data", ["load_csv"], _result_rows)
    + _targets("dgp", "dgp", ["generate", "true_rr", "oracle_models"])
    + _targets("rng", "rng", ["CounterRng.uniforms"], _draw_count)
    + _targets(
        "rng",
        "rng",
        [
            "CounterRng.normals",
            "CounterRng.bernoulli",
            "CounterRng.integers",
            "CounterRng.permutation",
            "derive_seed",
        ],
    )
    + _targets(
        "nuisance",
        "nuisance",
        [
            "fit_logistic_mle",
            "fit_ols",
            "fit_forest_regressor",
            "fit_forest_classifier",
            "PropensityModel.predict",
            "OutcomeModel.predict",
        ],
    )
    + _targets("trees", "trees", ["fit_forest"], _forest_size)
    + _targets("trees", "trees", ["Forest.predict"])
    + _targets(
        "estimators",
        "estimators",
        [
            "make_folds",
            "crossfit_nuisances",
            "arm_functionals",
            "rr_neyman",
            "rr_ht",
            "rr_ipw",
            "rr_g",
            "rr_os",
            "rr_aipw",
        ],
    )
    + _targets(
        "inference",
        "inference",
        [
            "var_neyman",
            "var_ht",
            "var_ipw",
            "var_ipw_mle_adjusted",
            "var_g",
            "var_os",
            "attach_interval",
            "wald_ci",
            "log_delta_ci",
            "katz_ci",
        ],
    )
    + _targets(
        "montecarlo",
        "montecarlo",
        ["run_single", "run_experiment", "write_report_csv", "write_report_json"],
    )
)

LAYERS = tuple(dict.fromkeys(t.layer for t in TARGETS))


@dataclass(frozen=True)
class Span:
    sid: int
    parent: int | None
    key: str
    start: float
    end: float
    ok: bool
    info: object


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.absent: dict[str, str] = {}
        self._ids = itertools.count()
        self._local = threading.local()
        self._owner_stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, target: Target):
        key, info = target.key, target.info

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            elif stack is not self._owner_stack and self._owner_stack:
                parent = self._owner_stack[-1]
            else:
                parent = None
            sid = next(self._ids)
            stack.append(sid)
            ok, result = False, None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = perf_counter()
                stack.pop()
                extra = info(args, kwargs, result) if ok and info else None
                self.spans.append(Span(sid, parent, key, start, end, ok, extra))

        return traced

    def install(self) -> None:
        """Wrap every target at every binding; call from the owner thread."""
        self._local.stack = self._owner_stack
        modules = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == "riskratio" or name.startswith("riskratio."))
        ]
        for target in TARGETS:
            try:
                owner = importlib.import_module(target.module)
                *path, attr = target.qualname.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.absent[target.key] = f"{target.module}.{target.qualname} not found"
                continue
            wrapper = self._wrap(original, target)
            bindings = [(owner, attr)] if path else [
                (m, name) for m in modules for name, v in vars(m).items() if v is original
            ]
            for holder, name in bindings:
                self._restore.append((holder, name, original))
                setattr(holder, name, wrapper)

    def uninstall(self) -> None:
        for holder, name, original in reversed(self._restore):
            setattr(holder, name, original)
        self._restore.clear()

    def take(self) -> list[Span]:
        spans, self.spans = self.spans, []
        return spans


def _covered(intervals, start: float, end: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[start, end]``."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, start), min(hi, end)
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


@dataclass
class KeyTotals:
    calls: int = 0
    ok: int = 0
    inclusive_s: float = 0.0
    self_s: float = 0.0
    info: object = None


def totals_by_key(spans: list[Span]) -> dict[str, KeyTotals]:
    """Calls, inclusive time, self time and summed info per target key."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out: dict[str, KeyTotals] = defaultdict(KeyTotals)
    for s in spans:
        tot = out[s.key]
        duration = s.end - s.start
        tot.calls += 1
        tot.ok += s.ok
        tot.inclusive_s += duration
        tot.self_s += duration - _covered(children.get(s.sid, ()), s.start, s.end)
        if isinstance(s.info, tuple):
            tot.info = tuple(a + b for a, b in zip(tot.info or (0,) * len(s.info), s.info))
        elif s.info is not None:
            tot.info = (tot.info or 0) + s.info
    return dict(out)


def _keys(layer: str, *names: str) -> tuple[str, ...]:
    return tuple(f"{layer}.{n}" for n in names)


def _layer_keys(layer: str) -> tuple[str, ...]:
    return tuple(t.key for t in TARGETS if t.layer == layer)


def _field(field: str, keys):
    return lambda t: sum(getattr(t[k], field) for k in keys if k in t)


def _info(keys, index: int | None = None):
    def get(t):
        total = 0
        for k in keys:
            info = t[k].info if k in t else None
            if info is not None:
                total += info if index is None else info[index]
        return total

    return get


def _ratio(num, den):
    return lambda t: num(t) / den(t) if den(t) else 0.0


_CLI = _keys("cli", "main")
_LOAD = _keys("data", "load_csv")
_GENERATE = _keys("dgp", "generate")
_TRUE_RR = _keys("dgp", "true_rr")
_UNIFORMS = _keys("rng", "CounterRng.uniforms")
_LOGISTIC = _keys("nuisance", "fit_logistic_mle")
_OLS = _keys("nuisance", "fit_ols")
_NUISANCE_FITS = _LOGISTIC + _OLS + _keys(
    "nuisance", "fit_forest_regressor", "fit_forest_classifier"
)
_PREDICT = _keys("nuisance", "PropensityModel.predict", "OutcomeModel.predict")
_FOREST_FIT = _keys("trees", "fit_forest")
_FOREST_PREDICT = _keys("trees", "Forest.predict")
_CROSSFIT = _keys("estimators", "crossfit_nuisances")
_POINT = _keys(
    "estimators", "arm_functionals", "rr_neyman", "rr_ht", "rr_ipw", "rr_g", "rr_os", "rr_aipw"
)
_VARIANCE = _keys(
    "inference", "var_neyman", "var_ht", "var_ipw", "var_ipw_mle_adjusted", "var_g", "var_os"
)
_INTERVAL = _keys("inference", "attach_interval", "wald_ci", "log_delta_ci", "katz_ci")
_RUN_SINGLE = _keys("montecarlo", "run_single")

# name -> (unit, value from per-key totals, target keys it reads).  Every
# ``_s`` metric is self time (time in the named functions minus time in
# nested traced calls of any layer) except ``montecarlo.run_single_s``,
# which is inclusive so that a pool's effect on one estimator call shows.
METRICS = {
    "cli.self_s": ("s", _field("self_s", _CLI), _CLI),
    "data.load_csv_s": ("s", _field("self_s", _LOAD), _LOAD),
    "data.rows_parsed": ("count", _info(_LOAD), _LOAD),
    "dgp.generate_s": ("s", _field("self_s", _GENERATE), _GENERATE),
    "dgp.generate_calls": ("count", _field("calls", _GENERATE), _GENERATE),
    "dgp.true_rr_s": ("s", _field("self_s", _TRUE_RR), _TRUE_RR),
    "rng.uniforms_s": ("s", _field("self_s", _UNIFORMS), _UNIFORMS),
    "rng.draws": ("count", _info(_UNIFORMS), _UNIFORMS),
    "nuisance.logistic_fit_s": ("s", _field("self_s", _LOGISTIC), _LOGISTIC),
    "nuisance.logistic_fit_calls": ("count", _field("calls", _LOGISTIC), _LOGISTIC),
    "nuisance.ols_fit_s": ("s", _field("self_s", _OLS), _OLS),
    "nuisance.ols_fit_calls": ("count", _field("calls", _OLS), _OLS),
    "nuisance.predict_s": ("s", _field("self_s", _PREDICT), _PREDICT),
    "nuisance.predict_calls": ("count", _field("calls", _PREDICT), _PREDICT),
    "nuisance.predicts_per_fit": (
        "ratio",
        _ratio(_field("calls", _PREDICT), _field("calls", _NUISANCE_FITS)),
        _PREDICT + _NUISANCE_FITS,
    ),
    "trees.fit_s": ("s", _field("self_s", _FOREST_FIT), _FOREST_FIT),
    "trees.fit_calls": ("count", _field("calls", _FOREST_FIT), _FOREST_FIT),
    "trees.trees_grown": ("count", _info(_FOREST_FIT, 0), _FOREST_FIT),
    "trees.nodes": ("count", _info(_FOREST_FIT, 1), _FOREST_FIT),
    # nodes over inclusive fit time, so RNG work moved into the fit counts
    "trees.nodes_per_s": (
        "1/s",
        _ratio(_info(_FOREST_FIT, 1), _field("inclusive_s", _FOREST_FIT)),
        _FOREST_FIT,
    ),
    "trees.predict_s": ("s", _field("self_s", _FOREST_PREDICT), _FOREST_PREDICT),
    "estimators.crossfit_self_s": ("s", _field("self_s", _CROSSFIT), _CROSSFIT),
    "estimators.crossfit_calls": ("count", _field("calls", _CROSSFIT), _CROSSFIT),
    "estimators.point_s": ("s", _field("self_s", _POINT), _POINT),
    "inference.variance_s": ("s", _field("self_s", _VARIANCE), _VARIANCE),
    "inference.variance_calls": ("count", _field("calls", _VARIANCE), _VARIANCE),
    "inference.interval_s": ("s", _field("self_s", _INTERVAL), _INTERVAL),
    "montecarlo.run_single_s": ("s", _field("inclusive_s", _RUN_SINGLE), _RUN_SINGLE),
    "montecarlo.run_single_calls": ("count", _field("calls", _RUN_SINGLE), _RUN_SINGLE),
    "montecarlo.ok_ratio": (
        "ratio", _ratio(_field("ok", _RUN_SINGLE), _field("calls", _RUN_SINGLE)), _RUN_SINGLE
    ),
}
for _layer in LAYERS:
    if _layer != "data":
        METRICS[f"{_layer}.self_s"] = ("s", _field("self_s", _layer_keys(_layer)), _layer_keys(_layer))
