"""Tests of the benchmark harness itself (not of exitlab).

Run from the repository root:  python3 -m pytest -q bench/tests
"""
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
REPO = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(REPO / "src"))

import run  # noqa: E402
from tracer import Tracer, instrument, layer_metrics, self_times  # noqa: E402
from workloads import WORKLOADS, GridSweepH20, LedgerBD800, McBD12  # noqa: E402


class FakeClock:
    """Each reading returns the next value of a fixed sequence."""

    def __init__(self, readings):
        self._it = iter(readings)

    def __call__(self):
        return next(self._it)


def test_self_time_arithmetic_on_nested_spans():
    # cli.run [0, 10] > forms.form_view [1, 6] > eigh [2, 4];
    #                 > poisson.solve_poisson [7, 9] > _linalg.solve_refined [7.5, 8]
    tr = Tracer(clock=FakeClock([0, 1, 2, 4, 6, 7, 7.5, 8, 9, 10]))
    root = tr.begin("cli", "run")
    view = tr.begin("forms", "form_view")
    eig = tr.begin("forms", "eigh")
    tr.end(eig)
    tr.end(view)
    solve = tr.begin("poisson", "solve_poisson")
    lu = tr.begin("_linalg", "solve_refined")
    tr.end(lu)
    tr.end(solve)
    tr.end(root)

    own = self_times(tr.spans)
    assert own == {root.id: 3.0, view.id: 3.0, eig.id: 2.0, solve.id: 1.5, lu.id: 0.5}
    m = layer_metrics(tr.spans)
    assert m["trace.total_s"] == 10.0
    assert m["cli.self_s"] == 3.0
    assert m["forms.self_s"] == 5.0
    assert m["poisson.self_s"] == 1.5
    assert m["linalg.self_s"] == 0.5
    assert m["forms.eigh_count"] == 1 and m["forms.eigh_s"] == 2.0
    assert m["forms.form_view_s"] == 5.0
    assert m["linalg.lu_count"] == 1 and m["linalg.lu_s"] == 0.5
    assert m["poisson.solves"] == 1
    assert sum(v for k, v in m.items() if k.endswith(".self_s")) == m["trace.total_s"]


def test_nested_assembly_spans_count_once():
    # build_chain [1, 5] calls discretize_jump_diffusion [2, 4]: 4 s, not 6 s.
    tr = Tracer(clock=FakeClock([0, 1, 2, 4, 5, 6]))
    root = tr.begin("cli", "run")
    outer = tr.begin("models", "build_chain")
    inner = tr.begin("models", "discretize_jump_diffusion")
    tr.end(inner)
    tr.end(outer)
    tr.end(root)
    m = layer_metrics(tr.spans)
    assert m["models.assemble_s"] == 4.0
    assert m["models.calls"] == 2
    assert m["models.self_s"] == 4.0


def test_instrument_wraps_every_binding_and_restores_them():
    import exitlab.cli
    import exitlab.poisson
    import scipy.linalg

    originals = (exitlab.cli.exit_mean, exitlab.poisson.exit_mean, scipy.linalg.eigh)
    chain = exitlab.complete_graph(3, 1.0)
    mask = exitlab.poisson.DomainMask.from_states([0, 1], 3)
    tr = Tracer()
    with instrument(tr):
        assert exitlab.cli.exit_mean is exitlab.poisson.exit_mean
        assert exitlab.cli.exit_mean is not originals[0]
        exitlab.cli.exit_mean(chain, mask)
        exitlab.cli.dirichlet_pair(chain, mask)
    assert (exitlab.cli.exit_mean, exitlab.poisson.exit_mean, scipy.linalg.eigh) == originals

    names = [(s.layer, s.name) for s in tr.spans]
    assert names[:3] == [("poisson", "exit_mean"), ("poisson", "solve_poisson"), ("_linalg", "solve_refined")]
    assert [s.parent for s in tr.spans[:3]] == [None, 0, 1]
    assert ("spectral", "eigh") in names


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_config_is_a_function_of_the_seed(name):
    w = WORKLOADS[name]
    assert w.config_bytes(7) == w.config_bytes(7)
    assert w.config_bytes(7) != w.config_bytes(8)


def test_reports_digest_ignores_only_timestamps(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for d, stamp, value in ((a, "2026-01-01", 1), (b, "2027-02-02", 1)):
        d.mkdir()
        (d / "exit.json").write_text(f'{{\n  "timestamp": "{stamp}",\n  "value": {value}\n}}\n')
    assert run.reports_digest(a) == run.reports_digest(b)
    (b / "exit.json").write_text('{\n  "timestamp": "x",\n  "value": 2\n}\n')
    assert run.reports_digest(a)[0] != run.reports_digest(b)[0]


class SmallLedger(LedgerBD800):
    N = 60
    DOMAIN = 30


class SmallGrid(GridSweepH20):
    H = 0.25


class SmallMc(McBD12):
    N_PATHS = 2000


@pytest.mark.parametrize(
    "workload",
    [SmallLedger("small-ledger", ""), SmallGrid("small-grid", ""), SmallMc("small-mc", "")],
    ids=lambda w: w.name,
)
def test_traced_run_writes_the_same_reports(workload, tmp_path, monkeypatch):
    monkeypatch.setattr(run, "SRC", REPO / "src")
    bench = run.Bench(workload, 1, tmp_path, expected=workload.expected(workload.config(1)))
    for mode in ("plain", "traced", "plain"):
        bench.measure(mode)
    assert bench.problems == []
    assert (bench.attempted, bench.failed) == (3, 0)
    assert len(bench.plain) == 2 and len(bench.traced) == 1
    layers = bench.per_layer()
    assert bench.problems == []
    assert layers["trace.total_s"] > 0


def test_per_layer_names_match_benchmark_json():
    import json

    declared = {m["name"] for m in json.loads((REPO / "BENCHMARK.json").read_text())["per_layer"]}
    tr = Tracer(clock=FakeClock([0, 1]))
    tr.end(tr.begin("cli", "run"))
    produced = set(layer_metrics(tr.spans)) | {"cli.emit_bytes", "trace.overhead_s"}
    assert produced == declared


def test_expected_values_from_their_own_process(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "SRC", REPO / "src")
    workload = WORKLOADS["ledger-bd800"]
    bench = run.Bench(workload, 3, tmp_path)
    in_process = workload.expected(workload.config(3))
    assert [(f, tuple(p)) for f, p, _ in bench.expected] == [(f, p) for f, p, _ in in_process]
    for (_, _, got), (_, _, want) in zip(bench.expected, in_process):
        assert got == want.tolist()
