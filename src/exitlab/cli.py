"""Config-driven command line: one JSON experiment in, reports out.

Usage:
    exitlab run --config exp.json [--out DIR] [--plots]
    exitlab validate --config exp.json

The config names a model builder, a domain, shifts, and a command list;
each command writes a JSON and/or CSV report embedding the config hash and
tool version. A command that does not apply to the chain writes a report
with the reason and is listed as skipped. ``validate`` builds what ``run``
would read, without solving. The process exits 0 when every check that ran
passed, 1 when one failed, 2 on a config or usage error and 3 on an internal
or solver error.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .defaults import COMPARISON_RTOL, MONOTONE_TOL
from .forms import validate_assumption_a
from .models import (
    BUILDERS,
    GridModelSpec,
    _check_grid_part,
    _check_shared_measure,
    _grid_part,
    antisym_perturb,
    build_chain,
    discretize_jump_diffusion,
    flow_from_cycles,
    grid_points,
)
from .montecarlo import McConfig, estimate_exit_functionals, simulate_exit_times
from .poisson import DomainMask, DomainSystem, _restrict_source
from .spectral import bounds_ledger
from .variational import _nonvanishing, closed_form_route, exp_moment_route, nested_route, saddle_form, symmetric_route


class ConfigError(ValueError):
    """Config rejected; the message carries a file-and-path anchor."""


@contextmanager
def _at(anchor: str):
    """Turn a TypeError or ValueError raised while a config part becomes its
    object into a ConfigError anchored at that part."""
    try:
        yield
    except (TypeError, ValueError) as err:
        raise ConfigError(f"{anchor}: {err}") from err


@dataclass(frozen=True)
class SweepConfig:
    """Flow strengths and the flow's cycle, or the two scale axes."""

    kind: str
    values: tuple = ()
    cycle: tuple | None = None  # every state in order when None
    kappa: tuple = ()
    epsilon: tuple = ()


@dataclass(frozen=True)
class ExperimentConfig:
    model: dict
    spec: GridModelSpec | None  # the parameters of a grid model
    omega: object
    betas: tuple
    commands: tuple
    output: str | None
    formats: tuple
    xi: tuple | None
    sweep: SweepConfig | None
    mc: McConfig | None
    mc_start_pi: bool = False  # start from mu / mu(E), read off the chain


def load_config(path: str):
    """Parse a config file into its typed parts; no chain is built.

    Returns (config, sha256-of-file-bytes). Parse and semantic errors raise
    ConfigError with a line- or path-anchored message.
    """
    raw = Path(path).read_bytes()
    digest = hashlib.sha256(raw).hexdigest()
    try:
        doc = json.loads(raw.decode("utf-8"))
    except UnicodeDecodeError as err:
        raise ConfigError(f"{path}: not UTF-8: {err}") from err
    except json.JSONDecodeError as err:
        raise ConfigError(f"{path}:{err.lineno}:{err.colno}: {err.msg}") from err
    try:
        return _parse(doc), digest
    except ConfigError as err:
        raise ConfigError(f"{path}: {err}") from err


def _parse(doc) -> ExperimentConfig:
    if not isinstance(doc, dict):
        raise ConfigError("$: config must be a JSON object")

    model = doc.get("model")
    if not isinstance(model, dict) or not isinstance(model.get("builder"), str):
        raise ConfigError("$.model: must be an object with a 'builder' name")
    if model["builder"] not in BUILDERS:
        known = ", ".join(sorted(BUILDERS))
        raise ConfigError(f"$.model.builder: unknown builder {model['builder']!r} (known: {known})")
    params = model.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError("$.model.params: must be an object")
    spec = None
    if model["builder"] == "grid_jump_diffusion":
        with _at("$.model.params"):
            spec = GridModelSpec(**params)

    omega = doc.get("omega", "all")
    indices = isinstance(omega, list) and all(type(i) is int for i in omega)  # ints, not bools
    if not (omega == "all" or indices or (isinstance(omega, dict) and "box" in omega)):
        raise ConfigError("$.omega: must be 'all', a list of state indices, or {'box': [[lo, hi], ...]}")
    if isinstance(omega, dict):
        if spec is None:
            raise ConfigError("$.omega: a box domain needs the grid_jump_diffusion builder")
        box = omega["box"]
        if not isinstance(box, list) or len(box) != spec.dimension:
            raise ConfigError(f"$.omega.box: must list one [lo, hi] pair per grid axis ({spec.dimension})")
        for edge in box:
            numeric = isinstance(edge, list) and all(type(v) in (int, float) for v in edge)
            if not (numeric and len(edge) == 2 and edge[0] < edge[1]):
                raise ConfigError(f"$.omega.box: each entry must be a numeric [lo, hi] with lo < hi, got {edge!r}")

    betas = doc.get("betas", [1.0])
    if not isinstance(betas, list) or not betas or any(not _finite_number(b) or b <= 0 for b in betas):
        raise ConfigError("$.betas: must be a nonempty list of finite positive numbers")
    betas = tuple(float(b) for b in betas)

    commands = doc.get("commands", [])
    if not isinstance(commands, list) or not commands:
        raise ConfigError("$.commands: must be a nonempty list")
    for c in commands:
        if not (isinstance(c, str) and c in _DISPATCH):
            raise ConfigError(f"$.commands: unknown command {c!r} (known: {', '.join(_DISPATCH)})")

    formats = doc.get("formats", ["json", "csv"])
    if not isinstance(formats, list) or not formats or any(f not in ("json", "csv") for f in formats):
        raise ConfigError("$.formats: must be a nonempty subset of ['json', 'csv']")

    sweep = None
    if "sweep" in commands:
        raw = doc.get("sweep")
        if not isinstance(raw, dict) or raw.get("kind") not in ("flow", "scale"):
            raise ConfigError("$.sweep: must be an object with kind 'flow' or 'scale'")

        def numbers(key):
            values = raw.get(key)
            if not (isinstance(values, list) and values and all(_finite_number(v) for v in values)):
                raise ConfigError(f"$.sweep.{key}: must be a nonempty list of finite numbers")
            return tuple(float(v) for v in values)

        if raw["kind"] == "flow":
            cycle = raw.get("cycle")
            if not (cycle is None or isinstance(cycle, list) and all(type(i) is int for i in cycle)):
                raise ConfigError("$.sweep.cycle: must be a list of state indices")
            sweep = SweepConfig("flow", values=numbers("values"), cycle=None if cycle is None else tuple(cycle))
        else:
            if spec is None:
                raise ConfigError("$.sweep: scale sweep needs the grid_jump_diffusion builder")
            sweep = SweepConfig("scale", kappa=numbers("kappa"), epsilon=numbers("epsilon"))
            for key in ("kappa", "epsilon"):
                if min(getattr(sweep, key)) < 0:
                    raise ConfigError(f"$.sweep.{key}: scales must be nonnegative")
            if 0.0 in sweep.kappa and 0.0 in sweep.epsilon:
                raise ConfigError("$.sweep: a zero kappa meets a zero epsilon: scales must not both be zero")

    mc, mc_start_pi = None, False
    if "mc" in commands:
        raw = doc.get("mc")
        if not isinstance(raw, dict) or "n_paths" not in raw or "seed" not in raw:
            raise ConfigError("$.mc: must be an object with 'n_paths' and 'seed'")
        with _at("$.mc"):  # start 0 until the start is checked at its own anchor; "pi" needs the chain
            mc = McConfig(raw["n_paths"], raw["seed"], 0, raw.get("max_time", 1e6))
        start = raw.get("start", 0)
        mc_start_pi = start == "pi"
        if not mc_start_pi:
            with _at("$.mc.start"):
                mc = replace(mc, start=start)

    xi = doc.get("xi")
    if xi is not None and not (isinstance(xi, list) and all(_finite_number(v) for v in xi)):
        raise ConfigError("$.xi: must be a list of finite numbers")

    output = doc.get("output")
    if not (output is None or isinstance(output, str)):
        raise ConfigError("$.output: must be a directory path")

    return ExperimentConfig(
        model=model, spec=spec, omega=omega, betas=betas, commands=tuple(commands), output=output,
        formats=tuple(sorted(set(formats))), xi=None if xi is None else tuple(float(v) for v in xi),
        sweep=sweep, mc=mc, mc_start_pi=mc_start_pi,
    )


def _finite_number(v) -> bool:
    """A JSON number that converts to a finite float: not a bool, NaN, an
    infinity or an int past the float range."""
    try:
        return type(v) in (int, float) and math.isfinite(v)
    except OverflowError:
        return False


@dataclass(frozen=True)
class Prepared:
    """What the commands of one run read, built before any report is written."""

    system: DomainSystem | None  # None when a scale sweep is the only command
    mask: DomainMask
    xi: np.ndarray  # the variational source on the domain
    family: tuple | None  # a sweep's (mu, mu_D, first, second): each point is c0*first + c1*second on D
    mc: McConfig | None
    mc_weights: np.ndarray | None  # the start distribution of mc


def prepare(cfg: ExperimentConfig) -> Prepared:
    """Build the chain, domain, source, sweep family and Monte Carlo
    settings of a config, with no solve and no eigensolve.

    A scale sweep's family is its two parts at unit scale, each assembled
    on the domain alone (``models._grid_part``) and checked as its whole
    chain would be, with no n x n array. When the sweep is the only command
    no chain is built at all: the domain needs only the grid points, and
    the family holds the two D x D blocks and the measure. A flow sweep's
    family is the run system's Q_D and the flow restricted to the domain;
    the chain perturbed once at the largest strength judges every strength,
    and is dropped. A TypeError or ValueError raised while a config part
    becomes its object is a ConfigError anchored at that part.
    """
    scale_only = set(cfg.commands) == {"sweep"} and cfg.sweep.kind == "scale"
    chain = pts = None
    with _at("$.model.params"):
        if not scale_only:
            chain = build_chain(cfg.model) if cfg.spec is None else discretize_jump_diffusion(cfg.spec)
        if scale_only or isinstance(cfg.omega, dict):
            pts = grid_points(cfg.spec)
    n = pts.shape[0] if chain is None else chain.n_states
    with _at("$.omega"):
        if cfg.omega == "all":
            mask = DomainMask.full(n)
        elif isinstance(cfg.omega, list):
            mask = DomainMask.from_states(cfg.omega, n)
        else:
            inside = np.ones(n, dtype=bool)
            for axis, (lo, hi) in enumerate(cfg.omega["box"]):
                inside &= (pts[:, axis] > lo) & (pts[:, axis] < hi)
            mask = DomainMask(inside)
    with _at("$.xi"):
        xi = np.ones(mask.size) if cfg.xi is None else _restrict_source(mask, cfg.xi, n)
        if "variational" in cfg.commands:
            _nonvanishing(xi)
    system = None if chain is None else DomainSystem(chain, mask)
    family = mc = weights = None
    if cfg.sweep is not None and cfg.sweep.kind == "flow":
        with _at("$.sweep.cycle"):
            flow = flow_from_cycles([range(n) if cfg.sweep.cycle is None else cfg.sweep.cycle], chain.measure)
        # the strongest flow judges the base chain and every strength; on a
        # reversible base only a strength can fail
        with _at("$.sweep.values" if chain.reversible else "$.sweep"):
            antisym_perturb(chain, flow, max(abs(k) for k in cfg.sweep.values))
        family = (chain.mu, system.mu_d, system.q_d, flow.gamma[np.ix_(mask.indices, mask.indices)])
    elif cfg.sweep is not None:
        # each part is assembled on D alone and checked as its whole chain
        # would be: no n x n array and no chain is made
        parts = []
        for scales in ({"kappa": 1.0, "epsilon": 0.0}, {"kappa": 0.0, "epsilon": 1.0}):
            with _at("$.model.params"):
                grid, generator, measure = _grid_part(replace(cfg.spec, **scales), mask.indices)
            with _at("$.sweep"):
                _check_grid_part(grid)
            parts.append((measure.weights, generator.matrix))
        (mu, diff_d), (jump_mu, jump_d) = parts
        with _at("$.sweep"):
            _check_shared_measure(mu, jump_mu)
        family = (mu, mu[mask.indices], diff_d, jump_d)
    if cfg.mc is not None:
        mc = replace(cfg.mc, start=chain.pi.tolist()) if cfg.mc_start_pi else cfg.mc
        with _at("$.mc.start"):
            weights = mc.start_weights(n)
    return Prepared(system, mask, xi, family, mc, weights)


def _stamp(doc: dict, digest: str) -> dict:
    doc["config_sha256"] = digest
    doc["tool_version"] = __version__
    doc["timestamp"] = datetime.now(timezone.utc).isoformat()
    return doc


_SCALARS = (str, int, float, type(None))


def _dumps(doc, indent: str = "") -> str:
    """``json.dumps(doc, indent=2, sort_keys=True)`` byte for byte, for a
    document nested ``indent`` deep.

    ``json.dumps`` with an indent runs the pure-Python encoder. Here a dict
    with str keys recurses in sorted key order, and a scalar or a flat list
    of scalars goes through the C encoder, whose item separator lays out the
    list's lines. Anything else falls back to ``json.dumps``, re-indented:
    a JSON string never holds a raw newline.
    """
    inner = indent + "  "
    if isinstance(doc, dict) and doc and all(isinstance(k, str) for k in doc):
        items = ",\n".join(f"{inner}{json.dumps(k)}: {_dumps(doc[k], inner)}" for k in sorted(doc))
        return f"{{\n{items}\n{indent}}}"
    if isinstance(doc, _SCALARS):
        return json.dumps(doc)
    if isinstance(doc, (list, tuple)) and doc and all(isinstance(x, _SCALARS) for x in doc):
        items = json.dumps(doc, separators=(",\n" + inner, ": "))[1:-1]
        return f"[\n{inner}{items}\n{indent}]"
    return json.dumps(doc, indent=2, sort_keys=True).replace("\n", "\n" + indent)


def _emit(out_dir: Path, name: str, doc: dict, formats, csv_text: str | None = None):
    if "json" in formats:
        (out_dir / f"{name}.json").write_text(_dumps(doc) + "\n")
    if "csv" in formats and csv_text is not None:
        (out_dir / f"{name}.csv").write_text(csv_text)


# Each command returns (passed, report document, CSV text or None).


def _cmd_validate(prep, cfg):
    report = validate_assumption_a(prep.system.chain, beta_probe=max(cfg.betas))
    ok = bool(report.primal_markov_ok and report.dual_markov_ok and np.isfinite(report.sector_constant))
    return ok, {"report": report.to_dict(), "passed": ok}, None


def _cmd_exit(prep, cfg):
    system = prep.system
    labels = system.chain.state_labels()
    blocks = {}
    csv_parts = []
    for beta in cfg.betas:
        fns = system.functionals(beta)
        blocks[repr(beta)] = fns.to_dict(labels=labels)
        csv_parts.append(f"# beta={beta!r}\n" + fns.to_csv(labels=labels))
    return True, {"exit_functionals": blocks}, "".join(csv_parts)


def _agree(a: float, b: float) -> bool:
    """Two routes agree within COMPARISON_RTOL of the larger magnitude, unfloored."""
    return abs(a - b) <= COMPARISON_RTOL * max(abs(a), abs(b))


def _cmd_variational(prep, cfg):
    system = prep.system
    ok = True
    blocks = {}
    for beta in cfg.betas:
        # one form on D serves the three routes; each factors its own matrix
        a, xi_d, c = saddle_form(system, beta, prep.xi)
        closed = closed_form_route(system, beta, a, xi_d, c)
        iterative = nested_route(system.mask, a, c)
        agree = _agree(closed.value, iterative.value)
        entry = {"closed_form": closed.to_dict(), "iterative": iterative.to_dict(), "modes_agree": agree}
        if system.reversible:  # its form on D is symmetric
            entry["symmetric_inf"] = sym = symmetric_route(a, c)
            entry["symmetric_agrees"] = agree_sym = _agree(sym, closed.value)
            agree = agree and agree_sym
        blocks[repr(beta)] = entry
        ok = ok and agree
    return ok, {"saddle": blocks, "passed": ok}, None


def _cmd_expmoment(prep, cfg):
    system = prep.system
    ok = True
    blocks = {}
    for beta in cfg.betas:
        inf_value = exp_moment_route(system, beta)
        agg = float(np.sum(system.chain.pi * system.exp_moment(beta)))
        via_exit = 0.0 if np.isinf(agg) else beta / (agg - 1.0)
        agree = _agree(inf_value, via_exit)
        blocks[repr(beta)] = {"inf_value": inf_value, "via_exit_route": via_exit, "agree": agree}
        ok = ok and agree
    return ok, {"lambda0": system.dirichlet.lambda0, "exp_moment": blocks, "passed": ok}, None


def _cmd_bounds(prep, cfg):
    ledger = bounds_ledger(prep.system, cfg.betas)
    ok = ledger.all_satisfied()
    return ok, {"ledger": ledger.to_dict(), "passed": ok}, ledger.to_csv()


def _slack(a: float, b: float) -> float:
    """Rounding allowed between two computed values: MONOTONE_TOL relative to
    the larger magnitude, unfloored, so rescaling time keeps every verdict."""
    return MONOTONE_TOL * max(abs(a), abs(b))


def _monotone(seq, increasing: bool) -> bool:
    """True when seq never moves against the given direction beyond the slack
    of each neighbouring pair."""
    if increasing:
        return not any(b < a - _slack(a, b) for a, b in zip(seq, seq[1:]))
    return not any(b > a + _slack(a, b) for a, b in zip(seq, seq[1:]))


def _sweep_csv(keys, rows, betas) -> str:
    """One line per sweep row: the row's keys, Laplace per beta, then the mean."""
    header = list(keys) + [f"laplace_beta_{beta!r}" for beta in betas] + ["mean"]
    lines = [header] + [
        [repr(r[k]) for k in keys] + [repr(r["laplace"][beta]) for beta in betas] + [repr(r["mean"])]
        for r in rows
    ]
    return "".join(",".join(cells) + "\n" for cells in lines)


def _cmd_sweep(prep, cfg):
    sweep = cfg.sweep
    mu, mu_d, first, second = prep.family

    def aggregates(c0, c1, reversible):
        """<laplace, 1>_mu per beta and <mean, 1>_mu at the point
        c0*first + c1*second, whose system is freed before the next point."""
        q_d = np.multiply(first, c0)
        q_d += np.multiply(second, c1)  # c0*first + c1*second, with one temporary
        system = DomainSystem.from_restricted(prep.mask, q_d, mu_d, reversible)
        lap = {beta: float(np.sum(mu * system.laplace(beta))) for beta in cfg.betas}
        return lap, float(np.sum(mu * system.mean()))

    rows = []
    ok = True
    if sweep.kind == "flow":
        for k in sweep.values:
            # Q_D +- k*Gamma_D, the restriction of antisym_perturb(chain, flow, +-k);
            # the flow keeps the measure and breaks reversibility unless k == 0
            lap, mean = aggregates(1.0, k, k == 0)
            lap_neg, mean_neg = aggregates(1.0, -k, k == 0)
            pairs = [(lap[beta], lap_neg[beta]) for beta in cfg.betas] + [(mean, mean_neg)]
            ok = ok and not any(abs(a - b) > _slack(a, b) for a, b in pairs)
            rows.append({"k": k, "laplace": lap, "mean": mean})
        keys = ["k"]
        # Laplace grows and the mean falls with the flow strength |k|
        sequences = [[rows[i] for i in np.argsort([abs(r["k"]) for r in rows])]]
    else:
        # kappa*A_D + epsilon*B_D, the same block as restricting
        # scaled_family(...).q; the configured chain is never read
        kappas, epsilons = sweep.kappa, sweep.epsilon
        table = {}
        for kap in kappas:
            for eps in epsilons:
                lap, mean = aggregates(kap, eps, True)
                table[(kap, eps)] = {"kappa": kap, "epsilon": eps, "laplace": lap, "mean": mean}
                rows.append(table[(kap, eps)])
        keys = ["kappa", "epsilon"]
        # Laplace grows and the mean falls along either scale axis
        sequences = [[table[(k, eps)] for k in sorted(kappas)] for eps in epsilons]
        sequences += [[table[(kap, e)] for e in sorted(epsilons)] for kap in kappas]
    for seq in sequences:
        for beta in cfg.betas:
            ok = ok and _monotone([r["laplace"][beta] for r in seq], increasing=True)
        ok = ok and _monotone([r["mean"] for r in seq], increasing=False)
    doc_rows = [{**r, "laplace": {repr(b): v for b, v in r["laplace"].items()}} for r in rows]
    doc = {"kind": sweep.kind, "rows": doc_rows, "monotone": ok, "passed": ok}
    return ok, doc, _sweep_csv(keys, rows, cfg.betas)


def _plot_sweep(out_dir: Path, doc: dict, betas) -> None:
    """sweep.svg: the mean and the Laplace aggregates along the sweep's rows."""
    rows = doc["rows"]
    try:
        xs = [r["k"] for r in rows] if doc["kind"] == "flow" else range(len(rows))
        series = {"mean": [r["mean"] for r in rows]}
        for beta in betas:
            series[f"laplace beta={beta:g}"] = [r["laplace"][repr(beta)] for r in rows]
        (out_dir / "sweep.svg").write_text(_line_chart_svg(xs, series, title=f"{doc['kind']} sweep"))
    except Exception:  # plotting must never affect the exit status
        pass


def _within_3_se(mc: float, se: float, exact: float) -> bool:
    # no absolute floor: at 1e12 times the rates a floor of 1e-12 dwarfs 3 SE
    return abs(mc - exact) <= 3 * se


def _cmd_mc(prep, cfg):
    system, weights = prep.system, prep.mc_weights
    # exact values first, so a closed domain raises before any path is simulated
    exact_mean = float(weights @ system.mean())
    exact_lap = {beta: float(weights @ system.laplace(beta)) for beta in cfg.betas}
    samples = simulate_exit_times(system.chain, system.mask, prep.mc)
    est = estimate_exit_functionals(samples, cfg.betas)
    ok = _within_3_se(*est.mean, exact_mean)
    checks = {"mean": {"mc": est.mean[0], "se": est.mean[1], "exact": exact_mean}}
    for beta in cfg.betas:
        mc_lap, se = est.laplace[beta]
        ok = ok and _within_3_se(mc_lap, se, exact_lap[beta])
        checks[f"laplace_beta_{beta!r}"] = {"mc": mc_lap, "se": se, "exact": exact_lap[beta]}
    return ok, {"estimate": est.to_dict(), "checks": checks, "passed": ok}, samples.to_csv()


def _line_chart_svg(xs, series: dict, title: str = "") -> str:
    """Minimal dependency-free SVG line chart of one or more series."""
    width, height, pad = 640, 400, 56
    xs = [float(x) for x in xs]
    all_y = [float(v) for ys in series.values() for v in ys]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(all_y), max(all_y)
    x_span = (x_hi - x_lo) or 1.0
    y_span = (y_hi - y_lo) or 1.0

    def sx(x):
        return pad + (x - x_lo) / x_span * (width - 2 * pad)

    def sy(y):
        return height - pad - (y - y_lo) / y_span * (height - 2 * pad)

    colors = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e"]
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width/2:.1f}" y="24" text-anchor="middle" font-size="15">{title}</text>',
        f'<line x1="{pad}" y1="{height-pad}" x2="{width-pad}" y2="{height-pad}" stroke="black"/>',
        f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{height-pad}" stroke="black"/>',
        f'<text x="{pad}" y="{height-pad+18}" font-size="11">{x_lo:g}</text>',
        f'<text x="{width-pad}" y="{height-pad+18}" text-anchor="end" font-size="11">{x_hi:g}</text>',
        f'<text x="{pad-6}" y="{height-pad}" text-anchor="end" font-size="11">{y_lo:g}</text>',
        f'<text x="{pad-6}" y="{pad+4}" text-anchor="end" font-size="11">{y_hi:g}</text>',
    ]
    for i, (name, ys) in enumerate(series.items()):
        color = colors[i % len(colors)]
        points = " ".join(f"{sx(x):.2f},{sy(float(y)):.2f}" for x, y in zip(xs, ys))
        parts.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{points}"/>')
        parts.append(
            f'<text x="{width-pad}" y="{pad + 16*i}" text-anchor="end" fill="{color}" font-size="12">{name}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts)


def _skip_reason(cmd: str, system) -> str | None:
    """Why a command does not apply to the chain, or None when it does: the
    exponential-moment formulas and the bound ledger are stated for
    reversible chains, with pi = mu / mu(E)."""
    if cmd in ("expmoment", "bounds") and not system.reversible:
        return "needs a reversible chain"
    return None


_DISPATCH = {
    "validate": _cmd_validate,
    "exit": _cmd_exit,
    "variational": _cmd_variational,
    "expmoment": _cmd_expmoment,
    "bounds": _cmd_bounds,
    "sweep": _cmd_sweep,
    "mc": _cmd_mc,
}


def run(cfg: ExperimentConfig, digest: str, out_dir: Path, plots: bool = False) -> int:
    """Execute the configured commands; 0 iff every requested check passed."""
    prep = prepare(cfg)
    out_dir.mkdir(parents=True, exist_ok=True)
    statuses, skipped = {}, {}
    for cmd in cfg.commands:
        if reason := _skip_reason(cmd, prep.system):
            skipped[cmd] = reason
            doc, csv_text = {"skipped": True, "reason": reason, "passed": None}, None
        else:
            statuses[cmd], doc, csv_text = _DISPATCH[cmd](prep, cfg)
        _emit(out_dir, cmd, _stamp(doc, digest), cfg.formats, csv_text)
        if cmd == "sweep" and plots:
            _plot_sweep(out_dir, doc, cfg.betas)
    overall = all(statuses.values())
    summary = {"commands": statuses, "passed": overall}
    if skipped:  # absent otherwise, so such a run's summary keeps its bytes
        summary["skipped"] = skipped
    summary = _stamp(summary, digest)
    (out_dir / "run_report.json").write_text(_dumps(summary) + "\n")
    return 0 if overall else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="exitlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="execute a config and write reports")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", default=None)
    p_run.add_argument("--plots", action="store_true")
    p_val = sub.add_parser("validate", help="check that a config builds, without solving")
    p_val.add_argument("--config", required=True)
    args = parser.parse_args(argv)

    if not Path(args.config).exists():
        print(f"error: file not found: {args.config}", file=sys.stderr)
        return 2
    try:
        cfg, digest = load_config(args.config)
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    if args.command == "run" and not (args.out or cfg.output):
        print("error: no output directory (set $.output or pass --out)", file=sys.stderr)
        return 2
    try:
        if args.command == "validate":
            prepare(cfg)
            print(f"ok: {args.config} (sha256 {digest[:12]})")
            return 0
        return run(cfg, digest, Path(args.out or cfg.output), plots=args.plots)
    except ConfigError as err:
        print(f"error: {args.config}: {err}", file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        return 3


if __name__ == "__main__":
    sys.exit(main())
