"""Config-driven command line: one JSON experiment in, reports out.

Usage:
    exitlab run --config exp.json [--out DIR] [--plots]
    exitlab validate --config exp.json

The config names a model builder, a domain, shifts, and a command list;
each command writes a JSON and/or CSV report embedding the config hash and
tool version. A command that does not apply to the chain writes a report
with the reason and is listed as skipped; the process exits 0 exactly when
every check that ran passed.
"""
from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import sys
import traceback
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
    _check_family_part,
    _check_shared_measure,
    antisym_perturb,
    build_chain,
    discretize_jump_diffusion,
    flow_from_cycles,
    grid_points,
)
from .montecarlo import McConfig, estimate_exit_functionals, simulate_exit_times
from .poisson import DomainMask, DomainSystem
from .spectral import bounds_ledger
from .variational import closed_form_route, exp_moment_route, nested_route, saddle_form, symmetric_route


class ConfigError(ValueError):
    """Config rejected; the message carries a file-and-path anchor."""


@dataclass(frozen=True)
class ExperimentConfig:
    model: dict
    omega: object
    betas: tuple
    commands: tuple
    output: str | None
    formats: tuple
    xi: tuple | None
    sweep: dict | None
    mc: dict | None


_KNOWN_COMMANDS = ("validate", "exit", "variational", "expmoment", "bounds", "sweep", "mc")


def load_config(path: str):
    """Parse and statically validate a config file.

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
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: $: config must be a JSON object")

    def fail(anchor, msg):
        raise ConfigError(f"{path}: {anchor}: {msg}")

    model = doc.get("model")
    if not isinstance(model, dict) or "builder" not in model:
        fail("$.model", "must be an object with a 'builder' name")
    if model["builder"] not in BUILDERS:
        fail("$.model.builder", f"unknown builder {model['builder']!r} "
             f"(known: {', '.join(sorted(BUILDERS))})")
    params = model.get("params", {})
    if not isinstance(params, dict):
        fail("$.model.params", "must be an object")
    if model["builder"] == "grid_jump_diffusion":
        try:
            GridModelSpec(**_grid_params(params))
        except (TypeError, ValueError) as err:
            fail("$.model.params", str(err))

    omega = doc.get("omega", "all")
    if not (
        omega == "all"
        or (isinstance(omega, list) and all(type(i) is int for i in omega))
        or (isinstance(omega, dict) and "box" in omega)
    ):
        fail("$.omega", "must be 'all', a list of state indices, or {'box': [[lo, hi], ...]}")
    if isinstance(omega, dict):
        if model["builder"] != "grid_jump_diffusion":
            fail("$.omega", "a box domain needs the grid_jump_diffusion builder")
        box, dimension = omega["box"], params["dimension"]
        if not isinstance(box, list) or len(box) != dimension:
            fail("$.omega.box", f"must list one [lo, hi] pair per grid axis ({dimension})")
        for edge in box:
            numeric = isinstance(edge, list) and all(type(v) in (int, float) for v in edge)
            if not (numeric and len(edge) == 2 and edge[0] < edge[1]):
                fail("$.omega.box", f"each entry must be a numeric [lo, hi] with lo < hi, got {edge!r}")

    betas = doc.get("betas", [1.0])
    if not isinstance(betas, list) or not betas or any(not _finite_number(b) or b <= 0 for b in betas):
        fail("$.betas", "must be a nonempty list of finite positive numbers")

    commands = doc.get("commands", [])
    if not isinstance(commands, list) or not commands:
        fail("$.commands", "must be a nonempty list")
    for c in commands:
        if c not in _KNOWN_COMMANDS:
            fail("$.commands", f"unknown command {c!r} (known: {', '.join(_KNOWN_COMMANDS)})")

    formats = doc.get("formats", ["json", "csv"])
    if not isinstance(formats, list) or not set(formats) <= {"json", "csv"} or not formats:
        fail("$.formats", "must be a nonempty subset of ['json', 'csv']")

    sweep = doc.get("sweep")
    if "sweep" in commands:
        if not isinstance(sweep, dict) or sweep.get("kind") not in ("flow", "scale"):
            fail("$.sweep", "must be an object with kind 'flow' or 'scale'")

        def numbers(key):
            values = sweep.get(key)
            if not (isinstance(values, list) and values and all(_finite_number(v) for v in values)):
                fail(f"$.sweep.{key}", "must be a nonempty list of finite numbers")
            return [float(v) for v in values]

        if sweep["kind"] == "flow":
            sweep = {**sweep, "values": numbers("values")}
        else:
            if model["builder"] != "grid_jump_diffusion":
                fail("$.sweep", "scale sweep needs the grid_jump_diffusion builder")
            sweep = {**sweep, "kappa": numbers("kappa"), "epsilon": numbers("epsilon")}
            for key in ("kappa", "epsilon"):
                if min(sweep[key]) < 0:
                    fail(f"$.sweep.{key}", "scales must be nonnegative")
            if 0.0 in sweep["kappa"] and 0.0 in sweep["epsilon"]:
                fail("$.sweep", "a zero kappa meets a zero epsilon: scales must not both be zero")

    if "mc" in commands:
        mc = doc.get("mc")
        if not isinstance(mc, dict) or "n_paths" not in mc or "seed" not in mc:
            fail("$.mc", "must be an object with 'n_paths' and 'seed'")
        start = mc.get("start", 0)
        if not (start == "pi" or isinstance(start, list) or type(start) is int):
            fail("$.mc.start", f"must be a state index, 'pi', or a distribution, got {start!r}")

    xi = doc.get("xi")
    if xi is not None and not (isinstance(xi, list) and all(_finite_number(v) for v in xi)):
        fail("$.xi", "must be a list of finite numbers")

    cfg = ExperimentConfig(
        model=model,
        omega=omega,
        betas=tuple(float(b) for b in betas),
        commands=tuple(commands),
        output=doc.get("output"),
        formats=tuple(sorted(set(formats))),
        xi=None if xi is None else tuple(float(v) for v in xi),
        sweep=sweep,
        mc=doc.get("mc"),
    )
    return cfg, digest


def _finite_number(v) -> bool:
    """A JSON number that converts to a finite float: not a bool, NaN, an
    infinity or an int past the float range."""
    try:
        return type(v) in (int, float) and math.isfinite(v)
    except OverflowError:
        return False


def _grid_params(params: dict) -> dict:
    out = dict(params)
    if "domain_box" in out:
        out["domain_box"] = tuple(tuple(edge) for edge in out["domain_box"])
    if "ellipticity" in out and out["ellipticity"] is not None:
        out["ellipticity"] = tuple(out["ellipticity"])
    return out


def _grid_spec(cfg: ExperimentConfig) -> GridModelSpec | None:
    if cfg.model["builder"] != "grid_jump_diffusion":
        return None
    return GridModelSpec(**_grid_params(cfg.model.get("params", {})))


def _domain_mask(cfg: ExperimentConfig, n_states: int, spec) -> DomainMask:
    omega = cfg.omega
    if omega == "all":
        return DomainMask.full(n_states)
    if isinstance(omega, list):
        return DomainMask.from_states(omega, n_states)
    pts = grid_points(spec)
    inside = np.ones(pts.shape[0], dtype=bool)
    for axis, (lo, hi) in enumerate(omega["box"]):
        inside &= (pts[:, axis] > lo) & (pts[:, axis] < hi)
    return DomainMask(inside)


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


def _cmd_validate(system, cfg, digest, out_dir):
    report = validate_assumption_a(system.chain, beta_probe=max(cfg.betas))
    ok = bool(
        report.primal_markov_ok
        and report.dual_markov_ok
        and np.isfinite(report.sector_constant)
    )
    doc = _stamp({"report": report.to_dict(), "passed": ok}, digest)
    _emit(out_dir, "validate", doc, cfg.formats)
    return ok


def _cmd_exit(system, cfg, digest, out_dir):
    chain = system.chain
    lam0 = system.dirichlet.lambda0 if chain.reversible else None
    blocks = {}
    csv_parts = []
    for beta in cfg.betas:
        fns = system.functionals(beta, xi=None, lambda0=lam0)
        blocks[repr(beta)] = fns.to_dict(labels=chain.state_labels())
        csv_parts.append(f"# beta={beta!r}\n" + fns.to_csv(labels=chain.state_labels()))
    doc = _stamp({"exit_functionals": blocks, "lambda0": lam0}, digest)
    _emit(out_dir, "exit", doc, cfg.formats, csv_text="".join(csv_parts))
    return True


def _agree(a: float, b: float) -> bool:
    """Two routes agree within COMPARISON_RTOL of the larger magnitude, unfloored."""
    return abs(a - b) <= COMPARISON_RTOL * max(abs(a), abs(b))


def _cmd_variational(system, cfg, digest, out_dir):
    ok = True
    blocks = {}
    xi = np.asarray(cfg.xi, dtype=float) if cfg.xi is not None else np.ones(system.mask.size)
    for beta in cfg.betas:
        # one form on D serves the three routes; each factors its own matrix
        a, xi_d, c = saddle_form(system, beta, xi)
        closed = closed_form_route(system, beta, a, xi_d, c)
        iterative = nested_route(system.mask, a, c)
        agree = _agree(closed.value, iterative.value)
        entry = {
            "closed_form": closed.to_dict(),
            "iterative": iterative.to_dict(),
            "modes_agree": agree,
        }
        if system.reversible:
            sym = symmetric_route(a, c)
            entry["symmetric_inf"] = sym
            agree_sym = _agree(sym, closed.value)
            entry["symmetric_agrees"] = agree_sym
            agree = agree and agree_sym
        blocks[repr(beta)] = entry
        ok = ok and agree
    doc = _stamp({"saddle": blocks, "passed": ok}, digest)
    _emit(out_dir, "variational", doc, cfg.formats)
    return ok


def _cmd_expmoment(system, cfg, digest, out_dir):
    lam0 = system.dirichlet.lambda0
    ok = True
    blocks = {}
    for beta in cfg.betas:
        inf_value = exp_moment_route(system, beta, lam0)
        moments = system.exp_moment(beta, lam0)
        agg = float(np.sum(system.chain.mu * moments))
        via_exit = 0.0 if np.isinf(agg) else beta / (agg - 1.0)
        agree = _agree(inf_value, via_exit)
        blocks[repr(beta)] = {
            "inf_value": inf_value,
            "via_exit_route": via_exit,
            "agree": agree,
        }
        ok = ok and agree
    doc = _stamp({"lambda0": lam0, "exp_moment": blocks, "passed": ok}, digest)
    _emit(out_dir, "expmoment", doc, cfg.formats)
    return ok


def _cmd_bounds(system, cfg, digest, out_dir):
    ledger = bounds_ledger(system, cfg.betas)
    ok = ledger.all_satisfied()
    doc = _stamp({"ledger": ledger.to_dict(), "passed": ok}, digest)
    _emit(out_dir, "bounds", doc, cfg.formats, csv_text=ledger.to_csv())
    return ok


def _aggregates(system, mu, betas):
    """<laplace, 1>_mu per beta and <mean, 1>_mu, for full-length weights mu."""
    lap = {beta: float(np.sum(mu * system.laplace(beta))) for beta in betas}
    mean = float(np.sum(mu * system.mean()))
    return lap, mean


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


def _cmd_sweep(get_system, spec, cfg, digest, out_dir, plots):
    sweep = cfg.sweep
    rows = []
    ok = True
    if sweep["kind"] == "flow":
        system = get_system()
        chain, mask = system.chain, system.mask
        cycle = sweep.get("cycle", list(range(chain.n_states)))
        flow = flow_from_cycles([cycle], chain.measure)
        for k in sweep["values"]:
            # the perturbed chains keep the measure of the base
            pos, neg = (DomainSystem(antisym_perturb(chain, flow, s), mask) for s in (k, -k))
            lap, mean = _aggregates(pos, chain.mu, cfg.betas)
            lap_neg, mean_neg = _aggregates(neg, chain.mu, cfg.betas)
            for beta in cfg.betas:
                if abs(lap[beta] - lap_neg[beta]) > _slack(lap[beta], lap_neg[beta]):
                    ok = False
            if abs(mean - mean_neg) > _slack(mean, mean_neg):
                ok = False
            rows.append({"k": k, "laplace": lap, "mean": mean})
        keys = ["k"]
        # Laplace grows and the mean falls with the flow strength |k|
        sequences = [[rows[i] for i in np.argsort([abs(r["k"]) for r in rows])]]
        x_axis = [r["k"] for r in rows]
    else:
        # each point's system is kappa*A_D + epsilon*B_D for the two parts
        # restricted once, the same block as restricting scaled_family(...).q;
        # the configured chain is never read, and the domain needs only the
        # grid. One part is assembled at a time: it is checked, its measure
        # and restricted block kept, and the whole chain dropped before the next
        mask = _domain_mask(cfg, grid_points(spec).shape[0], spec)
        block = np.ix_(mask.indices, mask.indices)
        parts = []
        for scales in ({"kappa": 1.0, "epsilon": 0.0}, {"kappa": 0.0, "epsilon": 1.0}):
            part = discretize_jump_diffusion(replace(spec, **scales))
            _check_family_part(part)
            parts.append((part.mu, part.q[block]))
            del part
        (mu, diff_d), (jump_mu, jump_d) = parts
        _check_shared_measure(mu, jump_mu)
        mu_d = mu[mask.indices]
        kappas, epsilons = sweep["kappa"], sweep["epsilon"]
        table = {}
        for kap in kappas:
            for eps in epsilons:
                system = DomainSystem.from_restricted(mask, kap * diff_d + eps * jump_d, mu_d)
                lap, mean = _aggregates(system, mu, cfg.betas)
                del system  # free this point's blocks before the next point forms its own
                table[(kap, eps)] = {"kappa": kap, "epsilon": eps, "laplace": lap, "mean": mean}
                rows.append(table[(kap, eps)])
        keys = ["kappa", "epsilon"]
        # Laplace grows and the mean falls along either scale axis
        sequences = [[table[(k, eps)] for k in sorted(kappas)] for eps in epsilons]
        sequences += [[table[(kap, e)] for e in sorted(epsilons)] for kap in kappas]
        x_axis = list(range(len(rows)))
    for seq in sequences:
        for beta in cfg.betas:
            ok = ok and _monotone([r["laplace"][beta] for r in seq], increasing=True)
        ok = ok and _monotone([r["mean"] for r in seq], increasing=False)
    csv_text = _sweep_csv(keys, rows, cfg.betas)

    doc = _stamp(
        {
            "kind": sweep["kind"],
            "rows": [
                {
                    **{k: v for k, v in r.items() if k != "laplace"},
                    "laplace": {repr(b): v for b, v in r["laplace"].items()},
                }
                for r in rows
            ],
            "monotone": ok,
            "passed": ok,
        },
        digest,
    )
    _emit(out_dir, "sweep", doc, cfg.formats, csv_text=csv_text)
    if plots:
        try:
            series = {"mean": [r["mean"] for r in rows]}
            for beta in cfg.betas:
                series[f"laplace beta={beta:g}"] = [r["laplace"][beta] for r in rows]
            svg = _line_chart_svg(x_axis, series, title=f"{sweep['kind']} sweep")
            (out_dir / "sweep.svg").write_text(svg)
        except Exception:  # plotting must never affect the exit status
            pass
    return ok


def _within_3_se(mc: float, se: float, exact: float) -> bool:
    # no absolute floor: at 1e12 times the rates a floor of 1e-12 dwarfs 3 SE
    return abs(mc - exact) <= 3 * se


def _cmd_mc(system, cfg, digest, out_dir):
    chain = system.chain
    mc = cfg.mc
    start = mc.get("start", 0)
    if start == "pi":
        start = (chain.mu / chain.mu.sum()).tolist()
    config = McConfig(
        n_paths=int(mc["n_paths"]),
        seed=int(mc["seed"]),
        start=start,
        betas=cfg.betas,
        max_time=float(mc.get("max_time", 1e6)),
    )
    samples = simulate_exit_times(chain, system.mask, config)
    est = estimate_exit_functionals(samples, cfg.betas)
    if isinstance(start, list):
        weights = np.asarray(start)
    else:
        weights = np.zeros(chain.n_states)
        weights[int(start)] = 1.0
    exact_mean = float(weights @ system.mean())
    ok = _within_3_se(*est.mean, exact_mean)
    checks = {"mean": {"mc": est.mean[0], "se": est.mean[1], "exact": exact_mean}}
    for beta in cfg.betas:
        exact_lap = float(weights @ system.laplace(beta))
        mc_lap, se = est.laplace[beta]
        ok = ok and _within_3_se(mc_lap, se, exact_lap)
        checks[f"laplace_beta_{beta!r}"] = {"mc": mc_lap, "se": se, "exact": exact_lap}
    doc = _stamp({"estimate": est.to_dict(), "checks": checks, "passed": ok}, digest)
    _emit(out_dir, "mc", doc, cfg.formats, csv_text=samples.to_csv())
    return ok


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


def _skip_reason(cmd: str, chain) -> str | None:
    """Why a command does not apply to the chain, or None when it does: the
    exponential-moment formulas and the bound ledger are stated for
    reversible chains with a probability measure."""
    if cmd not in ("expmoment", "bounds"):
        return None
    if not chain.reversible:
        return "needs a reversible chain"
    if not chain.measure.normalized:
        return "needs a normalized (probability) measure"
    return None


_DISPATCH = {
    "validate": _cmd_validate,
    "exit": _cmd_exit,
    "variational": _cmd_variational,
    "expmoment": _cmd_expmoment,
    "bounds": _cmd_bounds,
    "mc": _cmd_mc,
}


def run(cfg: ExperimentConfig, digest: str, out_dir: Path, plots: bool = False) -> int:
    """Execute the configured commands; 0 iff every requested check passed."""
    out_dir.mkdir(parents=True, exist_ok=True)
    spec = _grid_spec(cfg)

    @functools.cache
    def system() -> DomainSystem:
        """The configured chain on its domain, built when a command first reads it."""
        chain = build_chain(cfg.model) if spec is None else discretize_jump_diffusion(spec)
        return DomainSystem(chain, _domain_mask(cfg, chain.n_states, spec))

    statuses, skipped = {}, {}
    for cmd in cfg.commands:
        if cmd == "sweep":
            statuses[cmd] = _cmd_sweep(system, spec, cfg, digest, out_dir, plots)
        elif reason := _skip_reason(cmd, system().chain):
            skipped[cmd] = reason
            _emit(out_dir, cmd, _stamp({"skipped": True, "reason": reason, "passed": None}, digest), cfg.formats)
        else:
            statuses[cmd] = _DISPATCH[cmd](system(), cfg, digest, out_dir)
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
    p_val = sub.add_parser("validate", help="parse and statically check a config")
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

    if args.command == "validate":
        print(f"ok: {args.config} (sha256 {digest[:12]})")
        return 0

    out = args.out or cfg.output
    if out is None:
        print("error: no output directory (set $.output or pass --out)", file=sys.stderr)
        return 2
    try:
        return run(cfg, digest, Path(out), plots=args.plots)
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        return 3


if __name__ == "__main__":
    sys.exit(main())
