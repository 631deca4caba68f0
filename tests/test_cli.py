import csv
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exitlab.cli import _agree, _dumps, main
from exitlab.forms import Generator
from conftest import metastable_rates, traced_peak


def write_config(path, doc):
    path.write_text(json.dumps(doc, indent=2))
    return str(path)


def bounds_config(tmp_path, out_name="out"):
    return {
        "model": {"builder": "complete_graph", "params": {"n": 3, "rate": 1.0}},
        "omega": [0, 1],
        "betas": [0.5],
        "commands": ["validate", "exit", "variational", "expmoment", "bounds"],
        "output": str(tmp_path / out_name),
        "formats": ["json", "csv"],
    }


def test_run_three_state_bounds(tmp_path):
    cfg_path = write_config(tmp_path / "exp.json", bounds_config(tmp_path))
    assert main(["run", "--config", cfg_path]) == 0
    out = tmp_path / "out"
    with open(out / "bounds.csv") as fh:
        rows = list(csv.DictReader(fh))
    lower = next(
        r for r in rows if r["bound"] == "exp_moment_lower_eigenfunction" and r["beta"] == "0.5"
    )
    assert abs(float(lower["lhs"]) - 5.0 / 3.0) <= 1e-12
    assert abs(float(lower["slack"])) <= 1e-12
    assert lower["status"] == "satisfied"
    report = json.loads((out / "run_report.json").read_text())
    assert report["passed"] is True
    assert set(report["commands"]) == {"validate", "exit", "variational", "expmoment", "bounds"}
    assert "skipped" not in report  # listed only when a command was skipped
    doc = json.loads((out / "bounds.json").read_text())
    assert doc["config_sha256"]
    assert doc["tool_version"]


def test_missing_config_file(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "missing.json")]) == 2
    assert "file not found" in capsys.readouterr().err


def test_malformed_json_is_line_anchored(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{\n  "model": {,}\n}\n')
    assert main(["run", "--config", str(bad)]) == 2
    err = capsys.readouterr().err
    assert re.search(r"bad\.json:2:\d+", err)


def test_unknown_builder_is_path_anchored(tmp_path, capsys):
    cfg = bounds_config(tmp_path)
    cfg["model"]["builder"] = "instant_teleport"
    cfg_path = write_config(tmp_path / "exp.json", cfg)
    assert main(["run", "--config", cfg_path]) == 2
    err = capsys.readouterr().err
    assert "$.model.builder" in err and "instant_teleport" in err


def test_validate_subcommand(tmp_path, capsys):
    cfg_path = write_config(tmp_path / "exp.json", bounds_config(tmp_path))
    assert main(["validate", "--config", cfg_path]) == 0
    assert "ok:" in capsys.readouterr().out


def test_flow_sweep_matches_closed_form(tmp_path):
    cfg = {
        "model": {"builder": "cycle_flow", "params": {"n": 3, "rate": 1.0}},
        "omega": [0, 1],
        "betas": [1.0],
        "commands": ["sweep"],
        "sweep": {"kind": "flow", "values": [0.0, 0.5, 1.0], "cycle": [0, 1, 2]},
        "output": str(tmp_path / "out"),
        "formats": ["json", "csv"],
    }
    cfg_path = write_config(tmp_path / "exp.json", cfg)
    assert main(["run", "--config", cfg_path, "--plots"]) == 0
    out = tmp_path / "out"
    with open(out / "sweep.csv") as fh:
        rows = list(csv.DictReader(fh))
    means = [float(r["mean"]) for r in rows]
    expected = [6.0 / (3.0 + k**2) for k in (0.0, 0.5, 1.0)]
    for got, want in zip(means, expected):
        assert abs(got - want) <= 1e-10
    assert means == sorted(means, reverse=True)
    assert (out / "sweep.svg").exists()
    doc = json.loads((out / "sweep.json").read_text())
    assert doc["monotone"] is True


def test_scale_sweep_monotone(tmp_path):
    cfg = {
        "model": {
            "builder": "grid_jump_diffusion",
            "params": {
                "dimension": 1,
                "domain_box": [[0.0, 1.0]],
                "mesh_h": 0.0625,
                "alpha": 1.0,
                "kappa": 1.0,
                "epsilon": 1.0,
            },
        },
        "omega": "all",
        "betas": [1.0],
        "commands": ["sweep"],
        "sweep": {"kind": "scale", "kappa": [0.5, 1.0, 2.0], "epsilon": [0.5, 1.0, 2.0]},
        "output": str(tmp_path / "out"),
        "formats": ["json", "csv"],
    }
    cfg_path = write_config(tmp_path / "exp.json", cfg)
    assert main(["run", "--config", cfg_path]) == 0
    doc = json.loads((tmp_path / "out" / "sweep.json").read_text())
    assert doc["passed"] is True
    assert len(doc["rows"]) == 9


@pytest.mark.parametrize("omega", [[0, 1], [0, 1, 2, 3]])
def test_flow_sweep_verdict_holds_at_any_time_scale(tmp_path, omega):
    # rate c gives the generator c*Q: Laplace at beta = c is the same, and the
    # mean exit times scale by 1/c; at c = 1e-9 they are about 1e10, where an
    # absolute tolerance of 1e-10 failed the k / -k comparison on rounding alone
    docs = {}
    for rate in (1.0, 1e-9):
        cfg = {
            "model": {"builder": "cycle_flow", "params": {"n": 6, "rate": rate}},
            "omega": omega,
            "betas": [rate],
            "commands": ["sweep"],
            "sweep": {"kind": "flow", "values": [0.0, 0.5 * rate, rate]},
            "output": str(tmp_path / f"out{rate!r}"),
            "formats": ["json"],
        }
        assert main(["run", "--config", write_config(tmp_path / f"exp{rate!r}.json", cfg)]) == 0
        docs[rate] = json.loads((tmp_path / f"out{rate!r}" / "sweep.json").read_text())
        assert docs[rate]["monotone"] is True
    for fast, slow in zip(docs[1.0]["rows"], docs[1e-9]["rows"]):
        assert slow["mean"] == pytest.approx(1e9 * fast["mean"], rel=1e-12)
        assert slow["laplace"]["1e-09"] == pytest.approx(fast["laplace"]["1.0"], rel=1e-12)


def test_scale_sweep_peak_memory_on_the_benchmark_grid(tmp_path):
    # the grid-sweep-h20 workload: h = 1/20 on [-1, 1]^2, n = 1521 states
    cfg = {
        "model": {
            "builder": "grid_jump_diffusion",
            "params": {
                "dimension": 2,
                "domain_box": [[-1.0, 1.0], [-1.0, 1.0]],
                "mesh_h": 0.05,
                "alpha": 1.0,
                "kappa": 1.0,
                "epsilon": 1.0,
            },
        },
        "omega": {"box": [[-0.75, 0.75], [-0.75, 0.75]]},
        "betas": [0.5, 2.0],
        "commands": ["sweep"],
        "sweep": {
            "kind": "scale",
            "kappa": [1.9315567874960198, 1.865807453291266, 1.8249967352207208],
            "epsilon": [1.2888376625992444, 3.33217228111877, 0.43656206346933946],
        },
        "output": str(tmp_path / "out"),
        "formats": ["json", "csv"],
    }
    path = write_config(tmp_path / "exp.json", cfg)
    status, peak = traced_peak(lambda: main(["run", "--config", path]))
    assert status == 0
    n = 39 * 39
    # the peak, 0.656 n^2, is reached while the jump part is assembled: the
    # diffusion part and the jump part on D (|D| = 841), 0.306 n^2 each, and
    # the jump table over the cutoff disc and its gather buffers, 0.04 n^2.
    # Folding both parts onto the 120 orbits of the box's D4 adds two
    # 120 x 120 folds, 0.012 n^2, and 16-row slabs; the parts are then
    # dropped, and a point holds its 120 x 120 block, its symmetrized copy
    # and a factor. The bound is that peak and 5% of it. Folding onto the 421
    # orbits of the reversal alone read 0.786 n^2; building a whole D x D
    # block per point and lumping it in its solves 1.226 n^2; solving at full
    # size 1.231 n^2; assembling each part as a whole chain and restricting
    # it 1.63 n^2
    assert peak <= 0.69 * n * n * 8


@pytest.mark.parametrize("omega, bound", [("even", 5.5), ("all-but-0", 6.5)])
def test_flow_sweep_peak_memory(tmp_path, omega, bound):
    n = 400
    cfg = {
        "model": {"builder": "cycle_flow", "params": {"n": n, "rate": 1.0}},
        "omega": list(range(0, n, 2)) if omega == "even" else list(range(1, n)),
        "betas": [0.5, 2.0],
        "commands": ["sweep"],
        "sweep": {"kind": "flow", "values": [0, 0.25, 0.5, 1.0]},
        "output": str(tmp_path / "out"),
        "formats": ["json"],
    }
    path = write_config(tmp_path / "exp.json", cfg)
    status, peak = traced_peak(lambda: main(["run", "--config", path]))
    assert status == 0
    # building the chain peaks at 5.0 n^2; with D all but one state, the
    # chain, Q_D and Gamma_D stay while one point's block and factor come
    # and go. Two perturbed chains per strength, each with its own
    # systems, read 7.35 and 10.35 n^2
    assert peak <= bound * n * n * 8


def test_mc_command(tmp_path):
    cfg = {
        "model": {"builder": "complete_graph", "params": {"n": 3, "rate": 1.0}},
        "omega": [0, 1],
        "betas": [0.5],
        "commands": ["mc"],
        "mc": {"n_paths": 20000, "seed": 123, "start": 0},
        "output": str(tmp_path / "out"),
        "formats": ["json", "csv"],
    }
    cfg_path = write_config(tmp_path / "exp.json", cfg)
    assert main(["run", "--config", cfg_path]) == 0
    doc = json.loads((tmp_path / "out" / "mc.json").read_text())
    assert doc["passed"] is True
    assert abs(doc["checks"]["mean"]["exact"] - 1.0) <= 1e-12
    assert (tmp_path / "out" / "mc.csv").exists()


def test_mc_start_pi_runs_as_the_explicit_stationary_start(tmp_path):
    from exitlab import birth_death

    params = {"up": [1.0, 2.0, 0.5, 1.0], "down": [0.5, 1.0, 2.0, 1.0]}
    docs = {}
    for name, start in (("pi", "pi"), ("list", birth_death(**params).pi.tolist())):
        cfg = {
            "model": {"builder": "birth_death", "params": params},
            "omega": [1, 2, 3],
            "betas": [0.5],
            "commands": ["mc"],
            "mc": {"n_paths": 500, "seed": 7, "start": start},
            "output": str(tmp_path / name),
            "formats": ["json", "csv"],
        }
        assert main(["run", "--config", write_config(tmp_path / f"{name}.json", cfg)]) == 0
        doc = json.loads((tmp_path / name / "mc.json").read_text())
        assert doc["passed"] is True
        docs[name] = ({k: v for k, v in doc.items() if k not in ("timestamp", "config_sha256")},
                      (tmp_path / name / "mc.csv").read_text())
    assert docs["pi"] == docs["list"]


def test_mc_check_has_no_absolute_floor():
    from exitlab.cli import _within_3_se

    # the mean of mc-bd12's chain at 1e12 times its rates: an 11% error is
    # 32 SE, which a floor of 1e-12 let through
    assert not _within_3_se(1.1 * 8.8e-12, 3e-14, 8.8e-12)
    # a start outside the domain: every sample and the exact mean are zero
    assert _within_3_se(0.0, 0.0, 0.0)


@pytest.mark.parametrize("bias", [None, "mean", "laplace"])
def test_mc_verdicts_do_not_depend_on_the_time_scale(tmp_path, monkeypatch, bias):
    # mc-bd12's seed-1 chain, unscaled and at 1e12 times its rates, started
    # inside and outside the domain; a biased estimate must fail at both scales
    import dataclasses

    import exitlab.cli

    estimate = exitlab.cli.estimate_exit_functionals

    def biased(samples, betas):
        est = estimate(samples, betas)
        if bias == "mean":
            return dataclasses.replace(est, mean=(1.1 * est.mean[0], est.mean[1]))
        if bias == "laplace":
            return dataclasses.replace(est, laplace={b: (1.1 * v, se) for b, (v, se) in est.laplace.items()})
        return est

    monkeypatch.setattr(exitlab.cli, "estimate_exit_functionals", biased)
    r = np.random.default_rng([1, 3]).uniform(0.5, 2.0, 12)
    verdicts = {}
    for c in (1.0, 1e12):
        for start in (6, 0):
            out = tmp_path / f"out-{c:g}-{start}"
            cfg = {
                "model": {"builder": "birth_death", "params": {"up": (c * r[:-1]).tolist(), "down": (c * r[1:]).tolist()}},
                "omega": list(range(2, 10)),
                "betas": [0.1 * c],
                "commands": ["mc"],
                "mc": {"n_paths": 5000, "seed": 1, "start": start},
                "output": str(out),
                "formats": ["json"],
            }
            code = main(["run", "--config", write_config(tmp_path / "exp.json", cfg)])
            passed = json.loads((out / "mc.json").read_text())["passed"]
            assert code == (0 if passed else 1)
            verdicts[c, start] = passed
    assert verdicts[1.0, 6] == verdicts[1e12, 6] == (bias is None)
    # outside the domain every sample is zero, so only a biased Laplace value fails
    assert verdicts[1.0, 0] == verdicts[1e12, 0] == (bias != "laplace")


@pytest.mark.parametrize("start", [1.9, "1", True])
def test_non_integer_mc_start_rejected(tmp_path, capsys, start):
    cfg = {
        "model": {"builder": "complete_graph", "params": {"n": 3, "rate": 1.0}},
        "omega": [0, 1],
        "commands": ["mc"],
        "mc": {"n_paths": 10, "seed": 1, "start": start},
        "output": str(tmp_path / "out"),
    }
    assert main(["run", "--config", write_config(tmp_path / "exp.json", cfg)]) == 2
    assert "$.mc.start" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def strip_timestamps(text: str) -> str:
    return re.sub(r'"timestamp": "[^"]*"', '"timestamp": ""', text)


def test_reports_are_byte_stable(tmp_path):
    cfg = bounds_config(tmp_path, out_name="out1")
    cfg_path = write_config(tmp_path / "exp.json", cfg)
    assert main(["run", "--config", cfg_path]) == 0
    first = {
        p.name: strip_timestamps(p.read_text()) for p in sorted((tmp_path / "out1").iterdir())
    }
    assert main(["run", "--config", cfg_path, "--out", str(tmp_path / "out2")]) == 0
    second = {
        p.name: strip_timestamps(p.read_text()) for p in sorted((tmp_path / "out2").iterdir())
    }
    assert first == second


def test_csv_round_trips_through_json(tmp_path):
    cfg_path = write_config(tmp_path / "exp.json", bounds_config(tmp_path))
    assert main(["run", "--config", cfg_path]) == 0
    out = tmp_path / "out"
    doc = json.loads((out / "bounds.json").read_text())
    json_rows = {
        (e["bound"], None if e["beta"] is None else repr(e["beta"])): e
        for e in doc["ledger"]["entries"]
    }
    with open(out / "bounds.csv") as fh:
        for row in csv.DictReader(fh):
            key = (row["bound"], row["beta"] or None)
            entry = json_rows[key]
            for col, field in (("lhs", "lhs"), ("rhs", "rhs"), ("slack", "slack")):
                if row[col] == "":
                    assert entry[field] is None
                elif row[col] == "inf":
                    assert entry[field] == "inf"
                else:
                    # repr round-trip: float(csv cell) must equal the JSON value bit for bit
                    assert float(row[col]) == entry[field]


def test_config_requires_output_somewhere(tmp_path, capsys):
    cfg = bounds_config(tmp_path)
    del cfg["output"]
    cfg_path = write_config(tmp_path / "exp.json", cfg)
    assert main(["run", "--config", cfg_path]) == 2
    assert "output" in capsys.readouterr().err


def test_bad_betas_rejected(tmp_path, capsys):
    cfg = bounds_config(tmp_path)
    cfg["betas"] = [0.5, -1.0]
    cfg_path = write_config(tmp_path / "exp.json", cfg)
    assert main(["run", "--config", cfg_path]) == 2
    assert "$.betas" in capsys.readouterr().err


@pytest.mark.parametrize(
    "field, values",
    [
        ("betas", [float("nan")]),
        ("betas", [0.5, float("inf")]),
        ("betas", [True]),
        ("xi", ["a", 1]),
        ("xi", [float("nan"), 1.0, 1.0]),
        ("xi", [1.0, float("-inf"), 1.0]),
        ("xi", [True, 1.0, 1.0]),
        ("betas", [0.5, 2.0, 0.5]),
    ],
)
@pytest.mark.parametrize("command", ["validate", "run"])
def test_non_finite_or_boolean_numbers_rejected(tmp_path, capsys, field, values, command):
    cfg = bounds_config(tmp_path)
    cfg[field] = values
    assert main([command, "--config", write_config(tmp_path / "exp.json", cfg)]) == 2
    assert f"$.{field}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


_FLOATS = st.one_of(st.floats(), st.sampled_from([float("nan"), -0.0, 5e-324, 1e16, 1e-5, float("inf"), float("-inf")]))
_STRINGS = st.one_of(st.text(max_size=6), st.sampled_from(["é", "\u2028", '"\\/\n\t\x00', "(0.25,0.5)"]))
_DOCUMENTS = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), _FLOATS, _STRINGS),
    lambda kids: st.one_of(
        st.lists(kids, max_size=4),
        st.lists(kids, max_size=3).map(tuple),
        st.dictionaries(_STRINGS, kids, max_size=4),
    ),
    max_leaves=16,
)


@settings(max_examples=40, deadline=None)
@given(_DOCUMENTS)
def test_report_writer_equals_json_dumps(doc):
    assert _dumps(doc) == json.dumps(doc, indent=2, sort_keys=True)


def test_report_writer_falls_back_on_non_str_keys():
    doc = {"a": {2: [0.5, None], 1: {"x": [1, 2]}}, "b": [{"k": (3, "é")}, []], "c": {}}
    assert _dumps(doc) == json.dumps(doc, indent=2, sort_keys=True)
    assert _dumps({1.5: "x", 0: [1.0]}) == json.dumps({1.5: "x", 0: [1.0]}, indent=2, sort_keys=True)


def test_box_domain_on_grid(tmp_path):
    cfg = {
        "model": {
            "builder": "grid_jump_diffusion",
            "params": {
                "dimension": 1,
                "domain_box": [[0.0, 1.0]],
                "mesh_h": 0.125,
                "epsilon": 0.0,
            },
        },
        "omega": {"box": [[0.25, 0.75]]},
        "betas": [1.0],
        "commands": ["exit"],
        "output": str(tmp_path / "out"),
        "formats": ["json"],
    }
    cfg_path = write_config(tmp_path / "exp.json", cfg)
    assert main(["run", "--config", cfg_path]) == 0
    doc = json.loads((tmp_path / "out" / "exit.json").read_text())
    means = doc["exit_functionals"]["1.0"]["mean"]
    # three interior points of (0.25, 0.75); outside states report zero
    assert sum(1 for m in means if m > 0) == 3


def test_run_factors_each_shift_once_and_eigensolves_once(tmp_path, monkeypatch):
    # complete graph on 4 states, domain {0, 1}: -L_D has eigenvalues 2 and 4
    import scipy.linalg

    import exitlab.poisson

    factored, dirichlet_eighs, full_eighs, generalized = [], [], [], []

    # every restricted factorization, by shift: Cholesky on this reversible
    # chain, and an LU, were one made
    class CountingLU(exitlab.poisson.RefinedLU):
        def __init__(self, a, context="solve"):
            factored.append(float(a[0, 0]) - 3.0)  # a = shift*I - Q_D, Q_D[0, 0] = -3
            super().__init__(a, context)

    class CountingCholesky(exitlab.poisson.RefinedCholesky):
        def __init__(self, sym, shift, *args):
            factored.append(shift)
            super().__init__(sym, shift, *args)

    eigh = scipy.linalg.eigh

    def counting_eigh(a, b=None, *args, **kwargs):
        if np.shape(a) == (2, 2):
            dirichlet_eighs.append("values" if kwargs.get("eigvals_only") else kwargs.get("subset_by_index"))
        if np.shape(a) == (4, 4):
            full_eighs.append(a)
        if b is not None:
            generalized.append(a)
        return eigh(a, b, *args, **kwargs)

    monkeypatch.setattr(exitlab.poisson, "RefinedLU", CountingLU)
    monkeypatch.setattr(exitlab.poisson, "RefinedCholesky", CountingCholesky)
    monkeypatch.setattr(scipy.linalg, "eigh", counting_eigh)
    cfg = {
        "model": {"builder": "complete_graph", "params": {"n": 4, "rate": 1.0}},
        "omega": [0, 1],
        "betas": [0.25, 0.5],
        "commands": ["validate", "exit", "variational", "expmoment", "bounds"],
        "output": str(tmp_path / "out"),
        "formats": ["json"],
    }
    assert main(["run", "--config", write_config(tmp_path / "exp.json", cfg)]) == 0
    # the Dirichlet block's values, then its bottom vector alone: no call
    # computes every eigenvector
    assert sorted(dirichlet_eighs, key=str) == [[0, 0], "values"]
    # beta0 of a reversible chain is 0 by theorem, so validate and the
    # saddles make no eigensolve; bounds makes one standard eigensolve of the
    # mu-similarity sym(M^{1/2}(-Q)M^{-1/2}) for the spectral gap, never a
    # generalized one of the pencil sym(A0) v = lambda M v
    assert generalized == []
    # and the sector constant of a reversible chain needs no eigensolve
    assert len(full_eighs) == 1
    # Laplace at beta, mean at 0, exponential moment at -beta, odd-moment
    # entry at +-1 (lambda0 = 2 > 1): each shift once; the saddle adds one
    # factorization per beta for its primal and adjoint solves
    distinct = [0.0, 0.25, -0.25, 0.5, -0.5, 1.0, -1.0]
    assert sorted(factored) == sorted(distinct + [0.25, 0.5])


@pytest.mark.parametrize("c", [1.0, 1e-10])
def test_route_agreement_is_relative_at_any_time_scale(tmp_path, monkeypatch, c):
    # every second route reads twice the first: a 100% disagreement, which a
    # floor of 1 on the scale let through once the values were of order 1e-10
    import dataclasses

    import exitlab.cli

    nested, sym_inf, exp_inf = exitlab.cli.nested_route, exitlab.cli.symmetric_route, exitlab.cli.exp_moment_route

    def doubled_iterative(*args):
        sol = nested(*args)
        return dataclasses.replace(sol, value=2.0 * sol.value)

    monkeypatch.setattr(exitlab.cli, "nested_route", doubled_iterative)
    monkeypatch.setattr(exitlab.cli, "symmetric_route", lambda *args: 2.0 * sym_inf(*args))
    monkeypatch.setattr(exitlab.cli, "exp_moment_route", lambda *args: 2.0 * exp_inf(*args))
    beta = 0.5 * c
    cfg = {
        "model": {"builder": "complete_graph", "params": {"n": 3, "rate": c}},
        "omega": [0, 1],
        "betas": [beta],
        "commands": ["variational", "expmoment"],
        "output": str(tmp_path / "out"),
        "formats": ["json"],
    }
    assert main(["run", "--config", write_config(tmp_path / "exp.json", cfg)]) == 1
    saddle_block = json.loads((tmp_path / "out" / "variational.json").read_text())["saddle"][repr(beta)]
    assert not saddle_block["modes_agree"]
    assert not saddle_block["symmetric_agrees"]
    exp_block = json.loads((tmp_path / "out" / "expmoment.json").read_text())["exp_moment"][repr(beta)]
    assert exp_block["inf_value"] > 0.0
    assert not exp_block["agree"]


def test_scale_sweep_checks_detailed_balance_once_per_part(tmp_path, monkeypatch):
    import exitlab.cli
    from exitlab.forms import Chain

    checked, seen, chains = [], [], []
    original = exitlab.cli._check_grid_part

    def counting(grid):
        seen.append(grid)  # held, so a freed part's id is never reused
        checked.append(id(grid))
        return original(grid)

    monkeypatch.setattr(exitlab.cli, "_check_grid_part", counting)
    prop = vars(Chain)["reversible"]
    chain_check = prop.func
    monkeypatch.setattr(prop, "func", lambda chain: chains.append(chain) or chain_check(chain))
    cfg = {
        "model": {
            "builder": "grid_jump_diffusion",
            "params": {"dimension": 1, "domain_box": [[0.0, 1.0]], "mesh_h": 0.125},
        },
        "omega": "all",
        "betas": [1.0],
        "commands": ["sweep"],
        "sweep": {"kind": "scale", "kappa": [0.5, 1.0, 2.0], "epsilon": [0.5, 1.0, 2.0]},
        "output": str(tmp_path / "out"),
        "formats": ["json"],
    }
    assert main(["run", "--config", write_config(tmp_path / "exp.json", cfg)]) == 0
    # the sweep checks the diffusion and the jump part once each, and every
    # point inherits detailed balance from them; no chain is judged
    assert len(checked) == 2 and len(set(checked)) == 2
    assert chains == []


def test_scale_sweep_assembles_only_its_two_parts(tmp_path, monkeypatch):
    import exitlab.models

    assembled, sizes = [], []
    original = exitlab.models._assemble

    def counting(spec, states=None):
        assembled.append((spec.kappa, spec.epsilon))
        sizes.append(None if states is None else len(states))
        return original(spec, states)

    monkeypatch.setattr(exitlab.models, "_assemble", counting)
    cfg = {
        "model": {
            "builder": "grid_jump_diffusion",
            "params": {"dimension": 2, "domain_box": [[0.0, 1.0], [0.0, 1.0]], "mesh_h": 0.25},
        },
        "omega": {"box": [[0.1, 0.9], [0.3, 0.9]]},
        "betas": [1.0],
        "commands": ["sweep"],
        "sweep": {"kind": "scale", "kappa": [0.5, 1.0], "epsilon": [0.5, 1.0]},
        "output": str(tmp_path / "out"),
        "formats": ["json"],
    }
    assert main(["run", "--config", write_config(tmp_path / "exp.json", cfg)]) == 0
    assert assembled == [(1.0, 0.0), (0.0, 1.0)]
    # each on the domain alone: x in {0.25, 0.5, 0.75}, y in {0.5, 0.75}
    assert sizes == [6, 6]


def grid_box_config(tmp_path, dimension, box):
    return {
        "model": {
            "builder": "grid_jump_diffusion",
            "params": {"dimension": dimension, "domain_box": [[0.0, 1.0]] * dimension, "mesh_h": 0.25},
        },
        "omega": {"box": box},
        "commands": ["exit"],
        "output": str(tmp_path / "out"),
    }


def test_two_axis_box_on_a_1d_grid_is_rejected(tmp_path, capsys):
    cfg = grid_box_config(tmp_path, 1, [[0.2, 0.8], [0.2, 0.8]])
    assert main(["run", "--config", write_config(tmp_path / "exp.json", cfg)]) == 2
    assert "$.omega.box" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_one_axis_box_on_a_2d_grid_is_rejected(tmp_path, capsys):
    cfg = grid_box_config(tmp_path, 2, [[0.2, 0.8]])
    assert main(["run", "--config", write_config(tmp_path / "exp.json", cfg)]) == 2
    assert "$.omega.box" in capsys.readouterr().err


@pytest.mark.parametrize("edge", [[0.8, 0.2], [0.2], ["0.2", 0.8], [True, 0.8], 0.5])
def test_box_entries_must_be_numeric_increasing_pairs(tmp_path, capsys, edge):
    cfg = grid_box_config(tmp_path, 1, [edge])
    assert main(["validate", "--config", write_config(tmp_path / "exp.json", cfg)]) == 2
    assert "$.omega.box" in capsys.readouterr().err


def scale_sweep_config(tmp_path, omega, kappa, epsilon):
    return {
        "model": {
            "builder": "grid_jump_diffusion",
            "params": {"dimension": 2, "domain_box": [[0.0, 1.0], [0.0, 1.0]], "mesh_h": 0.125},
        },
        "omega": omega,
        "betas": [0.5, 2.0],
        "commands": ["sweep"],
        "sweep": {"kind": "scale", "kappa": kappa, "epsilon": epsilon},
        "output": str(tmp_path / "out"),
        "formats": ["json"],
    }


def test_scale_sweep_solves_restricted_blocks_without_building_chains(tmp_path, monkeypatch):
    import exitlab.cli
    import exitlab.models
    from exitlab.models import GridModelSpec, discretize_jump_diffusion, grid_points, scaled_family
    from exitlab.poisson import DomainSystem

    families, blocks = [], []

    def counting_family(*args):
        families.append(args)
        return scaled_family(*args)

    monkeypatch.setattr(exitlab.models, "scaled_family", counting_family)
    monkeypatch.setattr(exitlab.cli, "scaled_family", counting_family, raising=False)
    from_restricted = DomainSystem.from_restricted.__func__

    def capturing(cls, mask, q_d, mu_d, reversible):
        blocks.append((mask, q_d, mu_d))
        assert reversible is True
        return from_restricted(cls, mask, q_d, mu_d, reversible=True)

    monkeypatch.setattr(DomainSystem, "from_restricted", classmethod(capturing))
    kappas, epsilons = [0.5, 1.0, 2.0], [0.0, 0.5, 1.0]
    spec = dict(dimension=2, domain_box=((0.0, 1.0), (0.0, 1.0)), mesh_h=0.125)
    diff = discretize_jump_diffusion(GridModelSpec(**spec, kappa=1.0, epsilon=0.0))
    jump = discretize_jump_diffusion(GridModelSpec(**spec, kappa=0.0, epsilon=1.0))
    points = [(kap, eps) for kap in kappas for eps in epsilons]
    pts = grid_points(GridModelSpec(**spec))
    box = np.flatnonzero((pts[:, 0] > 0.1) & (pts[:, 0] < 0.9) & (pts[:, 1] > 0.3) & (pts[:, 1] < 0.9))
    # the 7 x 5 box is invariant under both mirrors of its lattice (not the
    # swap of the axes: its extents differ), so every point solves on the
    # fold of its block onto their 12 orbits; without its last state it is
    # not, and every point solves on its block over the grid
    for omega, idx, folded in (({"box": [[0.1, 0.9], [0.3, 0.9]]}, box, True), (box[:-1].tolist(), box[:-1], False)):
        blocks.clear()
        cfg = scale_sweep_config(tmp_path, omega, kappas, epsilons)
        assert main(["run", "--config", write_config(tmp_path / "exp.json", cfg)]) == 0
        assert families == []
        assert len(blocks) == len(points)
        m = idx.size
        # box state (i, j), row-major, lies on the orbit (min(i, 6-i), min(j, 4-j)),
        # whose least state is its own: Q S = S F lumps Q to F = (Q S)[reps]
        i, j = np.divmod(np.arange(m), 5)
        _, reps, orbit = np.unique(np.minimum(i, 6 - i) * 5 + np.minimum(j, 4 - j), return_index=True, return_inverse=True)
        orbits = np.zeros((m, reps.size))
        orbits[np.arange(m), orbit] = 1.0
        for (kap, eps), (mask, q_d, mu_d) in zip(points, blocks):
            chain = scaled_family(diff, jump, kap, eps)
            ref, mu = chain.q[np.ix_(idx, idx)], chain.mu[idx]
            if folded:
                assert mask.inside.size == mask.size == 12
                np.testing.assert_array_equal(mu_d, orbits.T @ mu)
                # each part folded once, then scaled: a few roundings off folding the point
                assert np.abs(q_d - (ref @ orbits)[reps]).max() <= 4 * np.finfo(float).eps * np.abs(ref).max()
            else:
                assert mask.inside.size == diff.n_states and np.array_equal(mask.indices, idx)
                assert np.array_equal(q_d, ref)
                assert np.array_equal(mu_d, mu)


def grid_sweep_config(tmp_path, case):
    """A scale sweep on a box that its lattice's mirrors keep: of 19 and of
    16 states on a 1D grid at h = 1/32, and of 7 x 5 and 7 x 7 on a 2D grid
    at h = 1/8."""
    if case.startswith("2d"):
        box = [[0.1, 0.9], [0.3, 0.9] if case == "2d" else [0.1, 0.9]]
        return scale_sweep_config(tmp_path, {"box": box}, [0.5, 2.0], [0.25, 1.0])
    cfg = scale_sweep_config(tmp_path, {"box": [[0.2, 0.8]] if case == "1d-odd" else [[0.1, 0.6]]}, [0.5, 2.0], [0.25, 1.0])
    cfg["model"]["params"] = {"dimension": 1, "domain_box": [[0.0, 1.0]], "mesh_h": 1 / 32}
    return cfg


def off_the_swap(grid_part):
    """``_grid_part`` on a 7 x 7 grid with the jump rate between lattice
    points (0, 0) and (1, 3), both ways, and between every mirror image of
    that pair one ulp smaller: the jump part keeps both mirrors of the grid
    but not the swap of its axes."""
    flips = (lambda t: t, lambda t: 6 - t)
    pairs = {((fx(0), fy(0)), (fx(1), fy(3))) for fx in flips for fy in flips}
    assert len(pairs) == 4

    def nudged(spec, states):
        grid, generator, measure = grid_part(spec, states)
        if not spec.epsilon:
            return grid, generator, measure
        states = np.arange(49) if states is None else np.asarray(states)
        local = np.full(49, -1)
        local[states] = np.arange(states.size)
        q = generator.matrix.copy()
        for a, b in pairs:
            x, y = local[a[0] * 7 + a[1]], local[b[0] * 7 + b[1]]
            q[x, y], q[y, x] = np.nextafter(q[x, y], 0.0), np.nextafter(q[y, x], 0.0)
        return grid, Generator(q), measure

    return nudged


@pytest.mark.parametrize("case", ["1d-odd", "1d-even", "2d", "2d square", "2d square, swap broken"])
def test_folded_scale_sweep_matches_full_size_solves(tmp_path, monkeypatch, case):
    import exitlab.cli
    import exitlab.models
    from exitlab.cli import load_config, prepare
    from exitlab.models import GridModelSpec, discretize_jump_diffusion, scaled_family
    from exitlab.poisson import DomainSystem, embed

    if case == "2d square, swap broken":  # the chains of the reference too
        monkeypatch.setattr(exitlab.models, "_grid_part", off_the_swap(exitlab.models._grid_part))
        monkeypatch.setattr(exitlab.cli, "_grid_part", exitlab.models._grid_part)
    path = write_config(tmp_path / "exp.json", grid_sweep_config(tmp_path, case))
    assert main(["run", "--config", path]) == 0
    rows = json.loads((tmp_path / "out" / "sweep.json").read_text())["rows"]
    cfg, _ = load_config(path)
    prep = prepare(cfg)
    mask = prep.mask
    assert mask.size == {"1d-odd": 19, "1d-even": 16, "2d": 35}.get(case, 49)
    # the orbits of the box's lattice group: the mirror in 1D, both mirrors
    # on 7 x 5 and 7 x 7 once the swap is broken, and D4 on 7 x 7
    assert prep.family[2].size == {"1d-odd": 10, "1d-even": 8, "2d": 12, "2d square": 10}.get(case, 16)
    diff, jump = (discretize_jump_diffusion(GridModelSpec(**cfg.model["params"], kappa=a, epsilon=b)) for a, b in ((1.0, 0.0), (0.0, 1.0)))
    ones = np.ones(mask.size)
    for row in rows:
        # the whole point's chain, solved full-size on D
        chain = scaled_family(diff, jump, row["kappa"], row["epsilon"])
        system = DomainSystem(chain, mask)
        for beta in cfg.betas:
            (u,) = system.solve(beta, ones)
            ref = float(np.sum(chain.mu * embed(mask, 1.0 - beta * u, 1.0)))
            assert row["laplace"][repr(beta)] == pytest.approx(ref, rel=1e-12)
        (u,) = system.solve(0.0, ones)
        assert row["mean"] == pytest.approx(float(np.sum(chain.mu[mask.indices] * u)), rel=1e-12)


@pytest.mark.parametrize("case", ["box", "corner", "jump part one ulp off", "square box", "square box, swap broken"])
def test_scale_sweep_factors_half_of_a_mirror_box(tmp_path, monkeypatch, case):
    import exitlab.cli
    import exitlab.poisson
    from exitlab.models import GridModelSpec, grid_points

    sizes = []

    class CountingCholesky(exitlab.poisson.RefinedCholesky):
        def __init__(self, sym, shift, *args):
            sizes.append((sym if sym is not None else args[1]).shape[0])  # q = args[1] when sym is None
            super().__init__(sym, shift, *args)

    monkeypatch.setattr(exitlab.poisson, "RefinedCholesky", CountingCholesky)
    original = exitlab.cli._grid_part

    def broken(spec, states):
        grid, generator, measure = original(spec, states)
        if not spec.epsilon:
            return grid, generator, measure
        q = generator.matrix.copy()  # a far pair, which the diffusion part does not join
        q[0, -1] = np.nextafter(q[0, -1], 0.0)
        return grid, Generator(q), measure

    if case == "jump part one ulp off":
        monkeypatch.setattr(exitlab.cli, "_grid_part", broken)
    if case == "square box, swap broken":
        monkeypatch.setattr(exitlab.cli, "_grid_part", off_the_swap(original))
    omega = {"box": [[0.1, 0.9], [0.3, 0.9] if case in ("box", "corner", "jump part one ulp off") else [0.1, 0.9]]}
    if case == "corner":  # the box without its last state
        pts = grid_points(GridModelSpec(2, ((0.0, 1.0), (0.0, 1.0)), 0.125))
        omega = np.flatnonzero((pts[:, 0] > 0.1) & (pts[:, 0] < 0.9) & (pts[:, 1] > 0.3) & (pts[:, 1] < 0.9))[:-1].tolist()
    kappas, epsilons = [0.5, 2.0], [1.0]
    cfg = scale_sweep_config(tmp_path, omega, kappas, epsilons)
    assert main(["run", "--config", write_config(tmp_path / "exp.json", cfg)]) == 0
    # the orbits of the box's lattice group: 12 on the 7 x 5 box (both
    # mirrors), (r+1)(r+2)/2 = 10 on the (2r+1) x (2r+1) box with r = 3 (D4),
    # 16 on it once the swap is broken (both mirrors); none on the box
    # without its last state, nor when the jump part is one ulp off them
    m = {"box": 12, "corner": 34, "jump part one ulp off": 35, "square box": 10, "square box, swap broken": 16}[case]
    # two Laplace shifts and the mean at each point
    assert sizes == [m] * 3 * len(kappas) * len(epsilons)


def random_graph(n, seed):
    rng = np.random.default_rng(seed)
    c = np.triu(rng.uniform(0.5, 2.0, (n, n)), 1)
    return {"builder": "weighted_graph", "params": {"conductances": (c + c.T).tolist(), "measure": rng.uniform(0.5, 2.0, n).tolist()}}


@pytest.mark.parametrize(
    "model, omega",
    [({"builder": "cycle_flow", "params": {"n": 6, "rate": 1.0}}, [0, 1, 2, 4]), (random_graph(12, 5), [1, 3, 4, 8, 9, 11])],
)
def test_flow_sweep_solves_restricted_blocks_without_building_chains(tmp_path, monkeypatch, model, omega):
    import exitlab.cli
    from exitlab.models import antisym_perturb, build_chain, flow_from_cycles
    from exitlab.poisson import DomainSystem

    perturbed, blocks = [], []

    def counting(*args):
        perturbed.append(args[2])
        return antisym_perturb(*args)

    monkeypatch.setattr(exitlab.cli, "antisym_perturb", counting)
    from_restricted = DomainSystem.from_restricted.__func__

    def capturing(cls, mask, q_d, mu_d, reversible):
        blocks.append((mask.indices, q_d, mu_d, reversible))
        return from_restricted(cls, mask, q_d, mu_d, reversible=reversible)

    monkeypatch.setattr(DomainSystem, "from_restricted", classmethod(capturing))
    values = [0.0, 0.25, -0.5, 0.125]
    cfg = {**small_config(tmp_path, model=model, omega=omega, betas=[0.5, 2.0]), "commands": ["sweep"]}
    cfg["sweep"] = {"kind": "flow", "values": values}
    assert main(["run", "--config", write_config(tmp_path / "exp.json", cfg)]) == 0
    # one perturbation, at the largest strength, judges them all
    assert perturbed == [0.5]
    chain = build_chain(model)
    flow = flow_from_cycles([range(chain.n_states)], chain.measure)
    strengths = [s for k in values for s in (k, -k)]
    assert len(blocks) == len(strengths)
    for k, (idx, q_d, mu_d, reversible) in zip(strengths, blocks):
        assert idx.tolist() == omega
        assert np.array_equal(q_d, antisym_perturb(chain, flow, k).q[np.ix_(idx, idx)])
        assert np.array_equal(mu_d, chain.mu[idx])
        assert reversible is (k == 0)


def conservative_parts(monkeypatch, jump_conservative):
    """Replace the grid parts by a conservative reversible diffusion part on
    the grid's states and measure, and a jump part that is conservative too
    or the grid's own (killed at the boundary). The sweeps below take every
    state as the domain, so a part's block is its whole generator."""
    import exitlab.cli
    from exitlab.forms import Generator

    original = exitlab.cli._grid_part

    def parts(spec, states):
        grid, generator, measure = original(spec, states)
        if spec.epsilon and not jump_conservative:
            return grid, generator, measure
        m = len(states)
        q = np.full((m, m), 1.0 + spec.epsilon)
        np.fill_diagonal(q, -(m - 1) * (1.0 + spec.epsilon))
        return grid, Generator(q), measure

    monkeypatch.setattr(exitlab.cli, "_grid_part", parts)


def test_full_mask_sweep_of_conservative_parts_cannot_exit(tmp_path, monkeypatch):
    from exitlab.cli import load_config, run
    from exitlab.poisson import RecurrentRestrictionError

    conservative_parts(monkeypatch, jump_conservative=True)
    path = write_config(tmp_path / "exp.json", scale_sweep_config(tmp_path, "all", [1.0], [0.5]))
    cfg, digest = load_config(path)
    # exit is impossible: the mean exit time does not exist
    with pytest.raises(RecurrentRestrictionError, match="exit from the domain is not almost sure"):
        run(cfg, digest, tmp_path / "out")


def test_mc_on_a_closed_domain_raises_before_simulating(tmp_path, monkeypatch):
    import exitlab.cli
    from exitlab.cli import load_config, run
    from exitlab.poisson import RecurrentRestrictionError

    def never(*args):
        raise AssertionError("simulated paths that can never exit")

    monkeypatch.setattr(exitlab.cli, "simulate_exit_times", never)
    # a conservative chain on all its states: no path ever leaves, so the
    # exact mean, which the run computes first, does not exist
    cfg = small_config(tmp_path, omega="all", **mc_part())
    cfg, digest = load_config(write_config(tmp_path / "exp.json", cfg))
    with pytest.raises(RecurrentRestrictionError, match="exit from the domain is not almost sure"):
        run(cfg, digest, tmp_path / "out")


def test_full_mask_sweep_exits_through_a_weighted_killed_part(tmp_path, monkeypatch):
    conservative_parts(monkeypatch, jump_conservative=False)
    cfg = scale_sweep_config(tmp_path, "all", [0.5, 1.0], [0.5, 1.0])
    assert main(["run", "--config", write_config(tmp_path / "exp.json", cfg)]) == 0
    # with the killed part at weight 0, only the conservative part is left
    cfg = scale_sweep_config(tmp_path, "all", [1.0], [0.0, 1.0])
    assert main(["run", "--config", write_config(tmp_path / "exp.json", cfg)]) == 3


def non_excessive_config(tmp_path, **changes):
    """A birth-death chain on 6 states with unit rates and the measure
    (1, 4, 1, 4, 1, 4), which is not excessive: its beta0 is 0.4254."""
    params = {"up": [1.0] * 5, "down": [1.0] * 5, "measure": [1, 4, 1, 4, 1, 4]}
    fields = {"model": {"builder": "birth_death", "params": params}, "omega": [1, 2, 3, 4],
              "betas": [0.05, 0.2, 2.0], "commands": ["exit", "variational"]}
    return small_config(tmp_path, **{**fields, **changes})


def test_variational_runs_below_beta0_and_ends_where_the_identity_does_not_hold(tmp_path, capsys):
    assert main(["run", "--config", write_config(tmp_path / "exp.json", non_excessive_config(tmp_path))]) == 0
    doc = json.loads((tmp_path / "out" / "variational.json").read_text())
    values = {beta: entry["closed_form"]["value"] for beta, entry in doc["saddle"].items()}
    assert doc["passed"] is True and all(entry["modes_agree"] for entry in doc["saddle"].values())
    assert values == pytest.approx({"0.05": 0.0451961, "0.2": 0.0607407, "2.0": 0.244444}, rel=1e-5)
    # with this signed source the form's symmetric part is indefinite on
    # {c}-orthogonal vectors at beta = 0.01: the closed form's certificate
    # refuses the shift, and the run ends as for any refused factor
    cfg = non_excessive_config(tmp_path, xi=[1, 1, -1, -1], betas=[0.01], commands=["variational"], output=str(tmp_path / "bad"))
    assert main(["run", "--config", write_config(tmp_path / "bad.json", cfg)]) == 3
    assert "saddle certificate: matrix of size 3 is not numerically positive definite" in capsys.readouterr().err


def ledger_config(tmp_path, seed=1):
    """The benchmark's ledger-bd800 config: a birth-death chain of 800
    states, a domain of 400, four shifts and a source on the domain."""
    rng = np.random.default_rng([seed, 1])
    m = rng.uniform(0.5, 2.0, 800)
    c = rng.uniform(0.5, 2.0, 799)
    domain = np.sort(rng.choice(800, 400, replace=False))
    xi = rng.uniform(0.5, 2.0, 400)
    return {
        "model": {"builder": "birth_death", "params": {"up": (c / m[:-1]).tolist(), "down": (c / m[1:]).tolist()}},
        "omega": [int(i) for i in domain],
        "betas": [0.005, 0.01, 0.02, 0.5],
        "xi": xi.tolist(),
        "commands": ["validate", "exit", "variational", "expmoment", "bounds"],
        "output": str(tmp_path / "out"),
        "formats": ["json", "csv"],
    }


def test_a_run_restricts_once(tmp_path, monkeypatch):
    import exitlab.forms
    import exitlab.poisson
    import exitlab.variational

    calls = {"q_d": 0, "symmetrized": 0, "form_matrix": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    prop = vars(exitlab.poisson.DomainSystem)["q_d"]
    monkeypatch.setattr(prop, "func", counted("q_d", prop.func))
    symmetrized = counted("symmetrized", exitlab.forms._symmetrized)
    form_matrix = counted("form_matrix", exitlab.forms.form_matrix)
    for module in (exitlab.forms, exitlab.poisson):
        monkeypatch.setattr(module, "_symmetrized", symmetrized)
    for module in (exitlab.forms, exitlab.variational):
        monkeypatch.setattr(module, "form_matrix", form_matrix)
    cfg = ledger_config(tmp_path)
    assert main(["run", "--config", write_config(tmp_path / "exp.json", cfg)]) == 0
    # one Q_D and one S_0 for the run; one form on D per shift for the three
    # saddle routes, and one per shift below lambda0 for expmoment
    assert calls["q_d"] == 1
    assert calls["symmetrized"] == 1
    below = sum(1 for b in json.loads((tmp_path / "out" / "expmoment.json").read_text())["exp_moment"].values()
                if b["inf_value"] > 0.0)
    assert calls["form_matrix"] == len(cfg["betas"]) + below <= 7


def grid_config(tmp_path, drift):
    """A 1D grid with killing: non-reversible with a drift, and reversible
    without one; its measure is h per point, not a probability."""
    params = {"dimension": 1, "domain_box": [[0.0, 1.0]], "mesh_h": 0.125, "k": 1.0}
    if drift:
        params["b"] = [1.0]
    return {
        "model": {"builder": "grid_jump_diffusion", "params": params},
        "omega": "all",
        "betas": [0.5, 1.0],
        "commands": ["validate", "exit", "variational", "expmoment", "bounds"],
        "output": str(tmp_path / "out"),
        "formats": ["json"],
    }


@pytest.mark.parametrize("drift, reason", [(True, "needs a reversible chain")])
def test_commands_that_do_not_apply_are_skipped(tmp_path, drift, reason):
    assert main(["run", "--config", write_config(tmp_path / "exp.json", grid_config(tmp_path, drift))]) == 0
    out = tmp_path / "out"
    assert sorted(p.name for p in out.iterdir()) == [
        "bounds.json", "exit.json", "expmoment.json", "run_report.json", "validate.json", "variational.json"
    ]
    for cmd in ("expmoment", "bounds"):
        doc = json.loads((out / f"{cmd}.json").read_text())
        assert (doc["skipped"], doc["reason"], doc["passed"]) == (True, reason, None)
    report = json.loads((out / "run_report.json").read_text())
    assert report["skipped"] == {"expmoment": reason, "bounds": reason}
    assert report["commands"] == {"validate": True, "exit": True, "variational": True}
    assert report["passed"] is True
    variational = json.loads((out / "variational.json").read_text())
    assert ("symmetric_inf" in variational["saddle"]["0.5"]) is not drift


def test_a_weak_drift_on_a_weak_axis_is_not_reversible(tmp_path):
    # the y-edges of this grid carry rates near 1e-10, twelve decades below
    # the x-edges, and are 56% asymmetric per pair: judged pair by pair, the
    # chain is not reversible, so expmoment and bounds are skipped; the
    # exponential moments in exit.json need no reversibility and are written
    cfg = grid_config(tmp_path, False)
    cfg["model"]["params"] = {
        "dimension": 2, "domain_box": [[0.0, 1.0], [0.0, 1.0]], "mesh_h": 0.125,
        "a": [1.0, 1e-12], "b": [0.0, 1e-11], "k": 1.0,
    }
    assert main(["run", "--config", write_config(tmp_path / "exp.json", cfg)]) == 0
    out = tmp_path / "out"
    report = json.loads((out / "run_report.json").read_text())
    assert report["skipped"] == dict.fromkeys(["expmoment", "bounds"], "needs a reversible chain")
    exit_doc = json.loads((out / "exit.json").read_text())
    assert "lambda0" not in exit_doc
    assert all(1.0 < m < 2.0 for block in exit_doc["exit_functionals"].values() for m in block["exp_moment"])
    variational = json.loads((out / "variational.json").read_text())
    assert all("symmetric_inf" not in block for block in variational["saddle"].values())


@pytest.mark.parametrize(
    "model, omega, betas",
    [
        # birth-death on 12 states, |D| = 10: the tridiagonal drivers; lambda0 = 0.081
        ({"builder": "birth_death", "params": {"up": [1.0] * 11, "down": [1.0] * 11}}, list(range(1, 11)), [0.05, 0.5]),
        # complete graph on 4 states, D = {0, 1}: the dense drivers; lambda0 = 2
        ({"builder": "complete_graph", "params": {"n": 4, "rate": 1.0}}, [0, 1], [0.5, 3.0]),
    ],
    ids=["tridiagonal", "dense"],
)
def test_exit_alone_makes_no_eigensolve(tmp_path, monkeypatch, model, omega, betas):
    # the factor at -beta certifies the moment's edge, so exit reads no
    # Dirichlet eigensolve below lambda0 or past it, and reports no lambda0
    import scipy.linalg

    def forbidden(*args, **kwargs):
        raise AssertionError("exit made an eigensolve")

    for name in ("eigh", "eigh_tridiagonal", "eigvalsh_tridiagonal"):
        monkeypatch.setattr(scipy.linalg, name, forbidden)
    cfg = {"model": model, "omega": omega, "betas": betas, "commands": ["exit"],
           "output": str(tmp_path / "out"), "formats": ["json"]}
    assert main(["run", "--config", write_config(tmp_path / "exp.json", cfg)]) == 0
    doc = json.loads((tmp_path / "out" / "exit.json").read_text())
    assert "lambda0" not in doc
    below, past = (doc["exit_functionals"][repr(beta)]["exp_moment"] for beta in betas)
    assert all(1.0 < below[x] < float("inf") for x in omega)
    assert all(past[x] == "inf" for x in omega)


def test_a_reversible_grid_runs_expmoment_and_bounds(tmp_path):
    # the ledger and the exponential moment read pi = mu / mu(E), so a grid's
    # measure h per point needs no renormalized copy of the chain
    assert main(["run", "--config", write_config(tmp_path / "exp.json", grid_config(tmp_path, False))]) == 0
    out = tmp_path / "out"
    report = json.loads((out / "run_report.json").read_text())
    assert "skipped" not in report
    assert report["commands"] == dict.fromkeys(["bounds", "exit", "expmoment", "validate", "variational"], True)
    expmoment = json.loads((out / "expmoment.json").read_text())
    assert expmoment["passed"] is True
    assert [b["agree"] for b in expmoment["exp_moment"].values()] == [True, True]
    bounds = json.loads((out / "bounds.json").read_text())
    assert bounds["passed"] is True
    checked = [e for e in bounds["ledger"]["entries"] if not e["skipped"]]
    assert len(checked) == 11 and all(e["satisfied"] for e in checked)
    # a killed chain has no spectral gap, and no Lyapunov function was given
    reasons = {e["reason"] for e in bounds["ledger"]["entries"] if e["skipped"]}
    assert reasons == {"spectral gap needs a conservative generator", "no Lyapunov function"}


def test_a_failed_check_beside_skipped_commands_fails_the_run(tmp_path, monkeypatch):
    import dataclasses

    import exitlab.cli

    nested = exitlab.cli.nested_route

    def doubled(*args):
        sol = nested(*args)
        return dataclasses.replace(sol, value=2.0 * sol.value)

    monkeypatch.setattr(exitlab.cli, "nested_route", doubled)
    assert main(["run", "--config", write_config(tmp_path / "exp.json", grid_config(tmp_path, True))]) == 1
    report = json.loads((tmp_path / "out" / "run_report.json").read_text())
    assert report["commands"]["variational"] is False
    assert set(report["skipped"]) == {"expmoment", "bounds"}


@pytest.mark.parametrize(
    "sweep, anchor",
    [
        ({"kind": "flow", "values": [float("nan"), 1.0]}, "$.sweep.values"),
        ({"kind": "flow", "values": [True, 1.0]}, "$.sweep.values"),
        ({"kind": "flow", "values": []}, "$.sweep.values"),
        ({"kind": "flow", "values": "1.0"}, "$.sweep.values"),
        ({"kind": "scale", "kappa": ["x"], "epsilon": [1.0]}, "$.sweep.kappa"),
        ({"kind": "scale", "kappa": [1.0, True], "epsilon": [1.0]}, "$.sweep.kappa"),
        ({"kind": "scale", "kappa": [-0.5, 1.0], "epsilon": [1.0]}, "$.sweep.kappa"),
        ({"kind": "scale", "kappa": [1.0], "epsilon": [float("inf")]}, "$.sweep.epsilon"),
        ({"kind": "scale", "kappa": [1.0], "epsilon": []}, "$.sweep.epsilon"),
        ({"kind": "scale", "kappa": [1.0], "epsilon": None}, "$.sweep.epsilon"),
        ({"kind": "scale", "kappa": [0.0, 1.0], "epsilon": [1.0, 0]}, "$.sweep"),
        # a repeated point would be solved again and written twice
        ({"kind": "scale", "kappa": [0.5, 1.0, 0.5], "epsilon": [1.0]}, "$.sweep.kappa"),
        ({"kind": "scale", "kappa": [1.0], "epsilon": [2, 2.0]}, "$.sweep.epsilon"),
        ({"kind": "flow", "values": [0.25, 0.5, 0.25]}, "$.sweep.values"),
    ],
)
@pytest.mark.parametrize("command", ["validate", "run"])
def test_sweep_numbers_are_checked_before_the_run(tmp_path, capsys, sweep, anchor, command):
    cfg = scale_sweep_config(tmp_path, "all", [1.0], [1.0])
    cfg["sweep"] = sweep
    assert main([command, "--config", write_config(tmp_path / "exp.json", cfg)]) == 2
    assert f": {anchor}: " in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["validate", "run"])
def test_boolean_state_index_is_rejected(tmp_path, capsys, command):
    cfg = bounds_config(tmp_path)
    cfg["omega"] = [True, 2]
    assert main([command, "--config", write_config(tmp_path / "exp.json", cfg)]) == 2
    assert "$.omega" in capsys.readouterr().err


def test_sweep_config_carries_floats(tmp_path):
    from exitlab.cli import load_config

    cfg, _ = load_config(write_config(tmp_path / "a.json", scale_sweep_config(tmp_path, "all", [1, 2], [0, 1.5])))
    assert cfg.sweep.kappa == (1.0, 2.0) and cfg.sweep.epsilon == (0.0, 1.5)
    flow = {**bounds_config(tmp_path), "commands": ["sweep"], "sweep": {"kind": "flow", "values": [0, 1]}}
    cfg_flow, _ = load_config(write_config(tmp_path / "b.json", flow))
    for v in cfg.sweep.kappa + cfg.sweep.epsilon + cfg_flow.sweep.values:
        assert type(v) is float


def small_config(tmp_path, **changes):
    """A 3-state complete graph config with the given top-level fields changed."""
    cfg = {
        "model": {"builder": "complete_graph", "params": {"n": 3, "rate": 1.0}},
        "omega": [0, 1],
        "betas": [0.5],
        "commands": ["exit"],
        "output": str(tmp_path / "out"),
        "formats": ["json"],
    }
    return {**cfg, **changes}


def grid_1d(**params):
    return {"builder": "grid_jump_diffusion", "params": {"dimension": 1, "domain_box": [[0.0, 1.0]], "mesh_h": 0.25, **params}}


def mc_part(**fields):
    return {"commands": ["mc"], "mc": {"n_paths": 10, "seed": 1, **fields}}


# Configs whose faults only the library constructors find: validate must
# build each part, as run does, to reject them
_BUILD_ERRORS = {
    "n_paths-not-a-number": (mc_part(n_paths="abc"), "$.mc"),
    "n_paths-zero": (mc_part(n_paths=0), "$.mc"),
    "max_time-not-a-number": (mc_part(max_time="x"), "$.mc"),
    "max_time-infinite": (mc_part(max_time=1e400), "$.mc"),
    "seed-not-an-integer": (mc_part(seed=1.7), "$.mc"),
    "start-out-of-range": (mc_part(start=7), "$.mc.start"),
    "start-distribution-of-strings": (mc_part(start=["a", 1, 2]), "$.mc.start"),
    "params-missing-rate": ({"model": {"builder": "complete_graph", "params": {"n": 3}}}, "$.model.params"),
    "params-extra-key": ({"model": {"builder": "complete_graph", "params": {"n": 3, "rate": 1.0, "zz": 1}}}, "$.model.params"),
    "params-n-a-string": ({"model": {"builder": "complete_graph", "params": {"n": "3", "rate": 1.0}}}, "$.model.params"),
    "params-rate-nan": ({"model": {"builder": "complete_graph", "params": {"n": 3, "rate": float("nan")}}}, "$.model.params"),
    "measure-with-a-string": (
        {"model": {"builder": "birth_death", "params": {"up": [1.0, 1.0], "down": [1.0, 1.0], "measure": [1, "x", 1]}}},
        "$.model.params",
    ),
    "mesh-does-not-divide": ({"model": grid_1d(mesh_h=0.3)}, "$.model.params"),
    "diffusion-a-string": ({"model": grid_1d(a="x")}, "$.model.params"),
    "dimension-a-float": ({"model": grid_1d(dimension=1.0)}, "$.model.params"),
    "ellipticity-of-a-scale-sweep-part": (
        {"model": grid_1d(ellipticity=[2.0, 3.0]), "commands": ["sweep"], "sweep": {"kind": "scale", "kappa": [1.0], "epsilon": [1.0]}},
        "$.model.params",
    ),
    "omega-out-of-range": ({"omega": [0, 9]}, "$.omega"),
    "xi-of-the-wrong-length": ({"xi": [1.0, 1.0, 1.0, 1.0]}, "$.xi"),
    "cycle-with-a-string": ({"commands": ["sweep"], "sweep": {"kind": "flow", "values": [0.1], "cycle": ["x", 1]}}, "$.sweep.cycle"),
    "output-not-a-path": ({"output": 5}, "$.output"),
}


@pytest.mark.parametrize("changes, anchor", _BUILD_ERRORS.values(), ids=_BUILD_ERRORS)
@pytest.mark.parametrize("command", ["validate", "run"])
def test_validate_rejects_what_run_cannot_build(tmp_path, capsys, changes, anchor, command):
    cfg = small_config(tmp_path, **changes)
    assert main([command, "--config", write_config(tmp_path / "exp.json", cfg)]) == 2
    assert f": {anchor}: " in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_ellipticity_error_prints_the_point_as_plain_floats(tmp_path, capsys):
    cfg = small_config(tmp_path, model=grid_1d(ellipticity=[2.0, 3.0]))
    assert main(["validate", "--config", write_config(tmp_path / "exp.json", cfg)]) == 2
    err = capsys.readouterr().err
    assert "$.model.params: coefficient at (0.25,) leaves the declared ellipticity range [2, 3]" in err


# Configs that every constructor accepts but that a command's own library
# check rejects: prepare runs that check, so validate rejects them too
_COMMAND_ERRORS = {
    "variational-source-vanishes": ({"xi": [0, 0], "commands": ["variational"]}, "$.xi"),
    "flow-beyond-k_max": ({"commands": ["sweep"], "sweep": {"kind": "flow", "values": [1.0]}}, "$.sweep.values"),
    "flow-on-a-drift-grid": (
        {"model": grid_1d(b=[1.0], k=1.0), "commands": ["sweep"], "sweep": {"kind": "flow", "values": [0.1]}},
        "$.sweep",
    ),
    "scale-sweep-on-a-drift-grid": (
        {"model": grid_1d(b=[1.0], k=1.0), "commands": ["sweep"], "sweep": {"kind": "scale", "kappa": [1.0], "epsilon": [1.0]}},
        "$.sweep",
    ),
    # the drift unbalances only the y-edges, twelve decades below the x-edges
    "scale-sweep-on-a-weak-axis-drift-grid": (
        {
            "model": {
                "builder": "grid_jump_diffusion",
                "params": {
                    "dimension": 2, "domain_box": [[0.0, 1.0], [0.0, 1.0]], "mesh_h": 0.25,
                    "a": [1.0, 1e-12], "b": [0.0, 1e-11], "k": 1.0,
                },
            },
            "commands": ["sweep"],
            "sweep": {"kind": "scale", "kappa": [1.0], "epsilon": [1.0]},
        },
        "$.sweep",
    ),
}


@pytest.mark.parametrize("changes, anchor", _COMMAND_ERRORS.values(), ids=_COMMAND_ERRORS)
@pytest.mark.parametrize("command", ["validate", "run"])
def test_validate_rejects_what_a_command_would_reject(tmp_path, capsys, changes, anchor, command):
    cfg = small_config(tmp_path, **changes)
    assert main([command, "--config", write_config(tmp_path / "exp.json", cfg)]) == 2
    assert f": {anchor}: " in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_a_vanishing_source_is_judged_only_for_variational(tmp_path):
    cfg = small_config(tmp_path, xi=[0, 0], commands=["exit"])
    assert main(["run", "--config", write_config(tmp_path / "exp.json", cfg)]) == 0


def _leaves(doc, path=()):
    """Paths to the scalar leaves of a JSON document."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else None
    if items is None:
        yield path
        return
    for key, value in items:
        yield from _leaves(value, path + (key,))


_VALID = [
    {
        "model": {"builder": "complete_graph", "params": {"n": 3, "rate": 1.0}},
        "omega": [0, 1],
        "betas": [0.5],
        "xi": [1.0, 2.0],
        "commands": ["validate", "exit", "variational", "sweep", "mc"],
        "sweep": {"kind": "flow", "values": [0.1], "cycle": [0, 1, 2]},
        "mc": {"n_paths": 50, "seed": 1, "start": 0, "max_time": 1e6},
        "output": "out",
        "formats": ["json"],
    },
    {
        "model": {
            "builder": "grid_jump_diffusion",
            "params": {"dimension": 1, "domain_box": [[0.0, 1.0]], "mesh_h": 0.25, "a": 1.0, "k": 0.0, "alpha": 1.0, "kappa": 1.0, "epsilon": 1.0},
        },
        "omega": {"box": [[0.2, 0.8]]},
        "betas": [0.5],
        "commands": ["exit", "sweep"],
        "sweep": {"kind": "scale", "kappa": [1.0, 2.0], "epsilon": [0.5]},
        "output": "out",
        "formats": ["json"],
    },
]
_WRONG = [float("nan"), float("inf"), float("-inf"), True, False, "x", "", None, [], {}]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_a_config_that_validates_runs_without_an_internal_error(tmp_path_factory, data):
    cfg = json.loads(json.dumps(data.draw(st.sampled_from(_VALID))))
    *parents, last = data.draw(st.sampled_from(list(_leaves(cfg))))
    node = cfg
    for key in parents:
        node = node[key]
    node[last] = data.draw(st.sampled_from(_WRONG))
    tmp = tmp_path_factory.mktemp("leaf")
    path = write_config(tmp / "exp.json", cfg)
    status = main(["validate", "--config", path])
    if status != 2:
        assert status == 0
        assert main(["run", "--config", path, "--out", str(tmp / "out")]) in (0, 1)


def metastable_config(tmp_path, n, s, seed, commands):
    """A birth-death chain whose rates span s decades, so that its measure
    spans many more, with D = states 1 to n - 2."""
    up, down = metastable_rates(n, s, seed)
    return {
        "model": {"builder": "birth_death", "params": {"up": up.tolist(), "down": down.tolist()}},
        "omega": list(range(1, n - 1)),
        "betas": [0.5, 1.0],
        "commands": commands,
        "output": str(tmp_path / "out"),
        "formats": ["json"],
    }


def test_variational_runs_on_a_chain_whose_measure_spans_many_decades(tmp_path):
    # mu_D spans 1.4e-17 to 0.96: the raw form's gates read that range, so
    # the nested and symmetric routes raised and the run exited 3
    cfg = metastable_config(tmp_path, 40, 6, 1, ["validate", "exit", "variational"])
    assert main(["run", "--config", write_config(tmp_path / "exp.json", cfg)]) == 0
    saddle = json.loads((tmp_path / "out" / "variational.json").read_text())["saddle"]
    for beta in ("0.5", "1.0"):
        closed = saddle[beta]["closed_form"]["value"]
        assert _agree(saddle[beta]["iterative"]["value"], closed)
        assert _agree(saddle[beta]["symmetric_inf"], closed)


@pytest.mark.parametrize("n, s", [(6, 0), (40, 6)])
def test_variational_scans_each_form_for_symmetry_once(tmp_path, monkeypatch, n, s):
    import exitlab.variational

    scanned = []
    is_symmetric = exitlab.variational._is_symmetric

    def counting(m, *args, **kwargs):
        scanned.append(m.shape)
        return is_symmetric(m, *args, **kwargs)

    monkeypatch.setattr(exitlab.variational, "_is_symmetric", counting)
    cfg = metastable_config(tmp_path, n, s, 1, ["variational"])
    assert main(["run", "--config", write_config(tmp_path / "exp.json", cfg)]) == 0
    # the nested route's one scan per beta; the symmetric route reads the
    # system's reversibility
    assert scanned == [(n - 2, n - 2)] * 2
