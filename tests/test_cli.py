import csv
import json
import re

import numpy as np
import pytest

from exitlab.cli import main


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

    factored, dirichlet_eighs, full_eighs, pencils = [], [], [], []

    # every restricted factorization, by shift: Cholesky on this reversible
    # chain, LU wherever that falls back
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
            dirichlet_eighs.append(a)
        if np.shape(a) == (4, 4):
            full_eighs.append(a)
        if b is not None:
            pencils.append(a)
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
    assert len(dirichlet_eighs) == 1
    # beta0 is a fact of the chain: validate and every beta's saddle
    # share one generalized eigensolve sym(A0) v = lambda M v
    assert len(pencils) == 1
    # that pencil spectrum also gives the spectral gap of bounds, and the
    # sector constant of a reversible chain needs no eigensolve
    assert len(full_eighs) == 1
    # Laplace at beta, mean at 0, exponential moment at -beta, odd-moment
    # entry at +-1 (lambda0 = 2 > 1): each shift once; the saddle adds one
    # factorization per beta for its primal and adjoint solves
    distinct = [0.0, 0.25, -0.25, 0.5, -0.5, 1.0, -1.0]
    assert sorted(factored) == sorted(distinct + [0.25, 0.5])


def test_scale_sweep_checks_detailed_balance_once_per_part(tmp_path, monkeypatch):
    from exitlab.forms import Chain

    checked = []
    prop = vars(Chain)["reversible"]
    original = prop.func

    def counting(chain):
        checked.append(id(chain))
        return original(chain)

    monkeypatch.setattr(prop, "func", counting)
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
    # the sweep checks the diffusion and the jump part once each, and
    # every point inherits detailed balance from them
    assert len(checked) == 2 and len(set(checked)) == 2


def test_scale_sweep_assembles_only_its_two_parts(tmp_path, monkeypatch):
    import exitlab.cli

    assembled = []
    original = exitlab.cli.discretize_jump_diffusion

    def counting(spec):
        assembled.append((spec.kappa, spec.epsilon))
        return original(spec)

    monkeypatch.setattr(exitlab.cli, "discretize_jump_diffusion", counting)
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
    from exitlab.models import GridModelSpec, discretize_jump_diffusion, scaled_family
    from exitlab.poisson import DomainSystem

    families, blocks = [], []

    def counting_family(*args):
        families.append(args)
        return scaled_family(*args)

    monkeypatch.setattr(exitlab.models, "scaled_family", counting_family)
    monkeypatch.setattr(exitlab.cli, "scaled_family", counting_family, raising=False)
    from_restricted = DomainSystem.from_restricted.__func__

    def capturing(cls, mask, q_d, mu_d, **facts):
        blocks.append((mask.indices, q_d, mu_d))
        return from_restricted(cls, mask, q_d, mu_d, **facts)

    monkeypatch.setattr(DomainSystem, "from_restricted", classmethod(capturing))
    kappas, epsilons = [0.5, 1.0, 2.0], [0.0, 0.5, 1.0]
    cfg = scale_sweep_config(tmp_path, {"box": [[0.1, 0.9], [0.3, 0.9]]}, kappas, epsilons)
    assert main(["run", "--config", write_config(tmp_path / "exp.json", cfg)]) == 0
    assert families == []
    spec = dict(dimension=2, domain_box=((0.0, 1.0), (0.0, 1.0)), mesh_h=0.125)
    diff = discretize_jump_diffusion(GridModelSpec(**spec, kappa=1.0, epsilon=0.0))
    jump = discretize_jump_diffusion(GridModelSpec(**spec, kappa=0.0, epsilon=1.0))
    points = [(kap, eps) for kap in kappas for eps in epsilons]
    assert len(blocks) == len(points)
    for (kap, eps), (idx, q_d, mu_d) in zip(points, blocks):
        assert 0 < idx.size < diff.n_states
        chain = scaled_family(diff, jump, kap, eps)
        assert np.array_equal(q_d, chain.q[np.ix_(idx, idx)])
        assert np.array_equal(mu_d, chain.mu[idx])


def conservative_parts(monkeypatch, jump_conservative):
    """Replace the grid parts by a conservative reversible diffusion part on
    the grid's states and measure, and a jump part that is conservative too
    or the grid's own (killed at the boundary)."""
    import exitlab.cli
    from exitlab.forms import Chain, Generator

    original = exitlab.cli.discretize_jump_diffusion

    def parts(spec):
        chain = original(spec)
        if spec.epsilon and not jump_conservative:
            return chain
        n = chain.n_states
        q = np.full((n, n), 1.0 + spec.epsilon)
        np.fill_diagonal(q, -(n - 1) * (1.0 + spec.epsilon))
        return Chain(Generator(q), chain.measure)

    monkeypatch.setattr(exitlab.cli, "discretize_jump_diffusion", parts)


def test_full_mask_sweep_of_conservative_parts_cannot_exit(tmp_path, monkeypatch):
    from exitlab.cli import load_config, run
    from exitlab.poisson import ExitImpossibleError

    conservative_parts(monkeypatch, jump_conservative=True)
    path = write_config(tmp_path / "exp.json", scale_sweep_config(tmp_path, "all", [1.0], [0.5]))
    cfg, digest = load_config(path)
    with pytest.raises(ExitImpossibleError):
        run(cfg, digest, tmp_path / "out")


def test_full_mask_sweep_exits_through_a_weighted_killed_part(tmp_path, monkeypatch):
    conservative_parts(monkeypatch, jump_conservative=False)
    cfg = scale_sweep_config(tmp_path, "all", [0.5, 1.0], [0.5, 1.0])
    assert main(["run", "--config", write_config(tmp_path / "exp.json", cfg)]) == 0
    # with the killed part at weight 0, only the conservative part is left
    cfg = scale_sweep_config(tmp_path, "all", [1.0], [0.0, 1.0])
    assert main(["run", "--config", write_config(tmp_path / "exp.json", cfg)]) == 3
