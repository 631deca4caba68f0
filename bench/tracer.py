"""Spans around exitlab's layers, recorded from outside the package.

``instrument(tracer)`` replaces every public function of each exitlab module
with a wrapper, under every name it is bound to in the package (so
``exitlab.cli.form_view`` and ``exitlab.forms.form_view`` both record), and
wraps ``scipy.linalg.eigh`` so each eigensolve is charged to the layer that
called it. Each call records a span: layer, name, start, end and parent.
Nothing in the package itself changes; leaving the ``with`` block restores
every binding.

``layer_metrics(spans)`` turns the spans of one run into the per-layer
numbers of the benchmark. A span's self time is its duration minus the time
its child spans cover, so the self times of all spans under the root add up
to the root's duration.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field

LAYERS = ("models", "forms", "poisson", "_linalg", "spectral", "variational", "montecarlo", "cli")

# Metric names must start with a letter, so the _linalg layer reports as "linalg".
METRIC_PREFIX = {layer: layer.lstrip("_") for layer in LAYERS}

# Private functions traced besides the public ones: cli's report writer.
EXTRA = {"cli": ("_emit",)}

ROOT = ("cli", "run")


@dataclass
class Span:
    id: int
    parent: int | None
    layer: str
    name: str
    start: float
    end: float = float("nan")
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder for one single-threaded run."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._open: list[Span] = []

    def begin(self, layer: str, name: str) -> Span:
        parent = self._open[-1].id if self._open else None
        span = Span(len(self.spans), parent, layer, name, self.clock())
        self.spans.append(span)
        self._open.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = self.clock()
        popped = self._open.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")

    def wrap(self, layer: str, name: str, fn, annotate=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.begin(layer, name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(span)
            if annotate is not None:
                span.attrs.update(annotate(args, kwargs, result))
            return result

        return traced

    def current_layer(self) -> str | None:
        return self._open[-1].layer if self._open else None


def _saddle_mode(args, kwargs, result):
    return {"mode": kwargs.get("mode", args[3] if len(args) > 3 else "closed_form")}


def _paths(args, kwargs, result):
    return {"paths": int(result.n_paths)}


ANNOTATE = {
    ("variational", "saddle_value"): _saddle_mode,
    ("montecarlo", "simulate_exit_times"): _paths,
}


def traced_functions(module, layer: str):
    """(name, function) for each public function defined in the module."""
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    for name in list(names) + list(EXTRA.get(layer, ())):
        obj = getattr(module, name, None)
        if inspect.isfunction(obj) and obj.__module__ == module.__name__:
            yield name, obj


def _layer_of_module(name: str) -> str | None:
    if name.startswith("exitlab."):
        layer = name.split(".", 1)[1]
        if layer in LAYERS:
            return layer
    return None


@contextmanager
def instrument(tracer: Tracer):
    """Trace every exitlab layer and scipy.linalg.eigh inside the block."""
    import scipy.linalg

    modules = [importlib.import_module("exitlab." + layer) for layer in LAYERS]
    owners = [m for n, m in sys.modules.items() if n == "exitlab" or n.startswith("exitlab.")]
    patches = []
    for layer, module in zip(LAYERS, modules):
        for name, fn in traced_functions(module, layer):
            wrapped = tracer.wrap(layer, name, fn, ANNOTATE.get((layer, name)))
            for owner in owners:
                for attr, value in list(vars(owner).items()):
                    if value is fn:
                        patches.append((owner, attr, value))
                        setattr(owner, attr, wrapped)

    eigh = scipy.linalg.eigh

    @functools.wraps(eigh)
    def traced_eigh(*args, **kwargs):
        caller = sys._getframe(1).f_globals.get("__name__", "")
        layer = _layer_of_module(caller) or tracer.current_layer() or "other"
        span = tracer.begin(layer, "eigh")
        try:
            return eigh(*args, **kwargs)
        finally:
            tracer.end(span)

    patches.append((scipy.linalg, "eigh", eigh))
    scipy.linalg.eigh = traced_eigh
    try:
        yield tracer
    finally:
        for owner, attr, value in reversed(patches):
            setattr(owner, attr, value)


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the time covered by its direct children."""
    covered = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            covered[s.parent] += s.duration
    return {s.id: s.duration - covered[s.id] for s in spans}


def _subtree(spans, root: Span) -> list[Span]:
    inside = {root.id}
    out = [root]
    for s in spans:  # ids grow with start time, so parents come first
        if s.parent in inside:
            inside.add(s.id)
            out.append(s)
    return out


def _outermost_time(spans, match) -> float:
    """Time covered by matching spans, not counting matches nested in matches."""
    by_id = {s.id: s for s in spans}
    total = 0.0
    for s in spans:
        if not match(s):
            continue
        p = s.parent
        while p in by_id and not match(by_id[p]):
            p = by_id[p].parent
        if p not in by_id:
            total += s.duration
    return total


COUNT_METRICS = (
    "forms.eigh_count",
    "linalg.lu_count",
    "poisson.solves",
    "spectral.eigh_count",
    "variational.eigh_count",
    "models.calls",
)


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer metrics of one traced run; the root is the last cli.run span."""
    roots = [s for s in spans if (s.layer, s.name) == ROOT]
    if not roots:
        raise ValueError("no cli.run span recorded")
    tree = _subtree(spans, roots[-1])
    own = self_times(tree)

    def named(layer, *names):
        return lambda s: s.layer == layer and s.name in names

    def time_of(match):
        return _outermost_time(tree, match)

    def count(match):
        return sum(1 for s in tree if match(s))

    out = {"trace.total_s": roots[-1].duration}
    for layer in LAYERS:
        out[f"{METRIC_PREFIX[layer]}.self_s"] = sum(own[s.id] for s in tree if s.layer == layer)
    for layer in ("forms", "spectral", "variational"):
        out[f"{layer}.eigh_count"] = count(named(layer, "eigh"))
        out[f"{layer}.eigh_s"] = time_of(named(layer, "eigh"))
    out["forms.validate_s"] = time_of(named("forms", "validate_assumption_a"))
    out["forms.form_view_s"] = time_of(named("forms", "form_view"))
    out["linalg.lu_count"] = count(named("_linalg", "solve_refined"))
    out["linalg.lu_s"] = time_of(named("_linalg", "solve_refined"))
    out["poisson.solves"] = count(named("poisson", "solve_poisson"))
    for mode in ("closed_form", "iterative"):
        key = "variational.closed_s" if mode == "closed_form" else "variational.iterative_s"
        out[key] = time_of(
            lambda s, mode=mode: named("variational", "saddle_value")(s) and s.attrs.get("mode") == mode
        )
    out["models.assemble_s"] = time_of(named("models", "build_chain", "discretize_jump_diffusion"))
    out["models.family_s"] = time_of(named("models", "scaled_family"))
    out["models.calls"] = count(lambda s: s.layer == "models")
    simulate = [s for s in tree if named("montecarlo", "simulate_exit_times")(s)]
    out["montecarlo.simulate_s"] = sum(s.duration for s in simulate)
    paths = sum(s.attrs.get("paths", 0) for s in simulate)
    out["montecarlo.paths_per_s"] = paths / out["montecarlo.simulate_s"] if simulate else 0.0
    out["montecarlo.estimate_s"] = time_of(named("montecarlo", "estimate_exit_functionals"))
    out["cli.emit_s"] = time_of(named("cli", "_emit"))
    return out
