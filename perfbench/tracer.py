"""Span tracer for the traced run, installed from the benchmark's own code.

Coarse calls into each layer (the public functions the CLI and the study
runner call) are recorded as spans with name, start, end, parent and
replication id.  Hot model calls (``log_density``, ``grad_log_density``,
``in_support``) are aggregated as a count plus total time, never one span
each.  Spans stay in memory and are written out by the caller when the run
ends.

Wrappers replace every alias of a function in the loaded ``zvmcmc`` modules
(``from .zv import fit_coefficients`` binds a second name), so the runner's
own lookups hit them.  ``uninstall`` restores every original.
"""
from __future__ import annotations

import contextlib
import statistics
import sys
import time

# (defining module, function, kind); kind decides the replication id:
#   runner  resets it (run_study / run_diagnose)
#   sampler sets it from the chain seed (base_seed + 2r or + 2r + 1)
#   rep     inherits the current one (work on the chain just sampled)
#   global  has none (data generation, bootstrap, export)
COARSE = (
    ("zvmcmc.experiments", "run_study", "runner"),
    ("zvmcmc.experiments", "run_diagnose", "runner"),
    ("zvmcmc.experiments", "build_model", "global"),
    ("zvmcmc.experiments", "write_study_csv", "global"),
    ("zvmcmc.samplers", "sample_chain", "sampler"),
    ("zvmcmc.zv", "standardization_from_chain", "rep"),
    ("zvmcmc.zv", "eval_control_variates", "rep"),
    ("zvmcmc.zv", "fit_coefficients", "rep"),
    ("zvmcmc.zv", "renormalize", "rep"),
    ("zvmcmc.diagnostics", "variance_ratio", "global"),
    ("zvmcmc.diagnostics", "cv_zero_mean_test", "rep"),
    ("zvmcmc.diagnostics", "linnik_estimate", "rep"),
    ("zvmcmc.diagnostics", "moment_diagnostic", "rep"),
    ("zvmcmc.diagnostics", "long_chain_reference", "rep"),
    ("zvmcmc.data_io", "synthetic_banknote", "global"),
    ("zvmcmc.data_io", "synthetic_demgbp_returns", "global"),
    ("zvmcmc.data_io", "export_study", "global"),
    ("zvmcmc.data_io", "export_chain", "global"),
)
HOT_METHODS = ("log_density", "grad_log_density", "in_support")
MODEL_CLASSES = ("GaussianTarget", "ExponentialTarget", "GammaTarget",
                 "ProbitTarget", "LogitTarget", "GarchTarget")
WRAPPED_MARK = "__perfbench_wrapped__"


def _layer(module_name: str) -> str:
    return module_name.rsplit(".", 1)[-1]


def _zvmcmc_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "zvmcmc" or name.startswith("zvmcmc."))]


def _patch_aliases(original, replacement, patches):
    """Bind replacement to every zvmcmc module attribute that is original."""
    for module in _zvmcmc_modules():
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                patches.append((module, attr, original))


@contextlib.contextmanager
def substitute(module_name: str, func: str, make_wrapper):
    """Bind make_wrapper(original) to every alias of a zvmcmc function, then restore."""
    import importlib

    original = getattr(importlib.import_module(module_name), func)
    import zvmcmc.cli  # noqa: F401  (binds the aliases the CLI looks up)

    patches = []
    _patch_aliases(original, make_wrapper(original), patches)
    try:
        yield
    finally:
        for target, attr, value in reversed(patches):
            setattr(target, attr, value)


def chain_config(args, kwargs):
    """The SamplerConfig of a sample_chain(model, config, method) call."""
    return kwargs.get("config", args[1] if len(args) > 1 else None)


class Tracer:
    """In-memory spans and hot-call counters for one traced CLI invocation."""

    def __init__(self, base_seed: int = 0):
        self.base_seed = base_seed
        self.spans: list[dict] = []
        self.hot: dict[str, list[int]] = {}
        self.fits: list[tuple[bool, int, float]] = []
        self.first_chain_call = None  # (args, kwargs, result) of the first sample_chain
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._depth = 0
        self._rep = None
        self._patches: list = []
        self._t0 = time.perf_counter_ns()

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        import importlib

        import zvmcmc.cli  # noqa: F401  (loads every layer the CLI uses)

        for module_name, func, kind in COARSE:
            module = importlib.import_module(module_name)
            original = getattr(module, func, None)
            if original is None:
                self.missing.append(f"{module_name}.{func}")
                continue
            wrapper = self._coarse(f"{_layer(module_name)}.{func}", _layer(module_name), kind, original)
            _patch_aliases(original, wrapper, self._patches)
        models = importlib.import_module("zvmcmc.models")
        for cls_name in MODEL_CLASSES:
            cls = getattr(models, cls_name, None)
            if cls is None:
                self.missing.append(f"zvmcmc.models.{cls_name}")
                continue
            for method in HOT_METHODS:
                owner = next((c for c in cls.__mro__ if method in vars(c)), None)
                if owner is None or getattr(vars(owner)[method], WRAPPED_MARK, False):
                    continue
                original = vars(owner)[method]
                setattr(owner, method, self._hot(f"models.{method}", original))
                self._patches.append((owner, method, original))

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._patches):
            setattr(target, attr, original)
        self._patches.clear()

    @contextlib.contextmanager
    def active(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- recording ----------------------------------------------------------

    def _open(self, name, layer, rep):
        span = {"id": len(self.spans), "name": name, "layer": layer,
                "start": time.perf_counter_ns() - self._t0, "end": None,
                "parent": self._stack[-1] if self._stack else None, "rep": rep,
                "hot_ns": 0, "hot_calls": 0}
        self.spans.append(span)
        self._stack.append(span["id"])
        return span

    def _close(self, span):
        span["end"] = time.perf_counter_ns() - self._t0
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str, layer: str):
        """A span around a call made from the benchmark's own code."""
        span = self._open(name, layer, None)
        try:
            yield span
        finally:
            self._close(span)

    def _coarse(self, name, layer, kind, original):
        tracer = self

        def wrapper(*args, **kwargs):
            if kind == "sampler":
                seed = getattr(chain_config(args, kwargs), "seed", None)
                offset = None if seed is None else seed - tracer.base_seed
                tracer._rep = offset // 2 if offset is not None and offset >= 0 else None
            elif kind == "runner":
                tracer._rep = None
            span = tracer._open(name, layer, tracer._rep if kind in ("sampler", "rep") else None)
            if kind == "sampler":
                config = chain_config(args, kwargs)
                span["draws"] = getattr(config, "length", 0)
                span["steps"] = getattr(config, "burn_in", 0) + span["draws"] * getattr(config, "thin", 1)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(span)
                if kind == "runner":
                    tracer._rep = None
            if name == "samplers.sample_chain" and tracer.first_chain_call is None:
                tracer.first_chain_call = (args, kwargs, result)
            elif name == "zv.fit_coefficients":
                tracer.fits.append((bool(getattr(result, "ridge_applied", False)),
                                    len(getattr(result, "dropped_columns", ())),
                                    float(getattr(result, "condition_estimate", float("nan")))))
            return result

        setattr(wrapper, WRAPPED_MARK, True)
        wrapper.__wrapped__ = original
        return wrapper

    def _hot(self, name, original):
        tracer = self
        counter = self.hot.setdefault(name, [0, 0])
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            t0 = clock()
            tracer._depth += 1
            try:
                return original(*args, **kwargs)
            finally:
                dt = clock() - t0
                tracer._depth -= 1
                counter[0] += 1
                counter[1] += dt
                if tracer._depth == 0 and tracer._stack:
                    span = tracer.spans[tracer._stack[-1]]
                    span["hot_ns"] += dt
                    span["hot_calls"] += 1

        setattr(wrapper, WRAPPED_MARK, True)
        wrapper.__wrapped__ = original
        return wrapper


def leftover_wrappers() -> list[str]:
    """Names of zvmcmc attributes still bound to a benchmark wrapper."""
    found = []
    for module in _zvmcmc_modules():
        for attr, value in vars(module).items():
            if getattr(value, WRAPPED_MARK, False):
                found.append(f"{module.__name__}.{attr}")
            if isinstance(value, type):
                for method, member in vars(value).items():
                    if getattr(member, WRAPPED_MARK, False):
                        found.append(f"{module.__name__}.{attr}.{method}")
    return found


def calibrate_hot_overhead_ns(calls: int = 20000, repeats: int = 5) -> float:
    """Time one hot wrapper adds outside its own measured interval, per call.

    Measured on a no-op with a span open, so the same bookkeeping branch runs
    as in a traced sampler.  Subtracted from the self time of enclosing spans.
    """
    def noop():
        return None

    tracer = Tracer()
    wrapped = tracer._hot("calibration", noop)
    samples = []
    with tracer.span("calibration", "bench"):
        for _ in range(repeats):
            t0 = time.perf_counter_ns()
            for _ in range(calls):
                noop()
            bare = time.perf_counter_ns() - t0
            before = tracer.hot["calibration"][1]
            t0 = time.perf_counter_ns()
            for _ in range(calls):
                wrapped()
            traced = time.perf_counter_ns() - t0
            inner = tracer.hot["calibration"][1] - before
            samples.append(max(0.0, (traced - inner - bare) / calls))
    return statistics.median(samples)


# ---------------------------------------------------------------------------
# analysis of a finished trace (plain data, no zvmcmc import)


def self_times(spans: list[dict], hot_overhead_ns: float = 0.0) -> dict[int, int]:
    """Span id -> self time in ns: duration minus the part its children cover.

    Children are direct child spans and hot model calls made while the span
    was innermost, together with the wrapper overhead those calls added.
    """
    child_ns = {s["id"]: 0 for s in spans}
    for s in spans:
        if s["parent"] is not None:
            child_ns[s["parent"]] += s["end"] - s["start"]
    return {s["id"]: max(0, int(s["end"] - s["start"] - child_ns[s["id"]] - s["hot_ns"]
                                - s["hot_calls"] * hot_overhead_ns))
            for s in spans}


def layer_self_seconds(spans, hot_overhead_ns: float = 0.0) -> dict[str, float]:
    """Self seconds per layer; the models layer is the outermost hot-call time."""
    own = self_times(spans, hot_overhead_ns)
    out: dict[str, float] = {}
    for s in spans:
        out[s["layer"]] = out.get(s["layer"], 0.0) + own[s["id"]] / 1e9
    out["models"] = sum(s["hot_ns"] for s in spans) / 1e9
    return out


def replication_seconds(spans, hot_overhead_ns: float = 0.0) -> dict[int, float]:
    """Replication id -> busy seconds from its first span's start to its last span's end."""
    bounds: dict[int, list] = {}
    for s in spans:
        r = s["rep"]
        if r is None:
            continue
        b = bounds.setdefault(r, [s["start"], s["end"], 0])
        b[0] = min(b[0], s["start"])
        b[1] = max(b[1], s["end"])
        b[2] += s["hot_calls"]
    return {r: max(0.0, (end - start - calls * hot_overhead_ns) / 1e9)
            for r, (start, end, calls) in bounds.items()}


def per_rep_totals_ms(spans, name: str) -> list[float]:
    """Per replication, the summed milliseconds of spans called name."""
    totals: dict[int, float] = {}
    for s in spans:
        if s["name"] == name and s["rep"] is not None:
            totals[s["rep"]] = totals.get(s["rep"], 0.0) + (s["end"] - s["start"]) / 1e6
    return [totals[r] for r in sorted(totals)]


def total_ms(spans, name: str) -> float:
    return sum(s["end"] - s["start"] for s in spans if s["name"] == name) / 1e6
