"""Benchmark workloads: configs generated from a seed, and an independent check.

Each workload turns a seed into one ``exitlab run`` config (a JSON document);
the program under test only ever sees that document. The same seed gives a
byte-identical config. Each workload also knows how to recompute a few of
its outputs with plain ``numpy.linalg.solve``, so a run is judged by more
than the program's own ``"passed"`` verdict.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Relative tolerance of the independent check against the written reports.
CHECK_RTOL = 1e-8


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), stream])


def _dumps(doc: dict) -> bytes:
    return (json.dumps(doc, indent=1, sort_keys=True) + "\n").encode()


def _bd_generator(up, down) -> np.ndarray:
    """Dense birth-death generator, built without exitlab."""
    up = np.asarray(up, dtype=float)
    down = np.asarray(down, dtype=float)
    n = up.size + 1
    q = np.zeros((n, n))
    q[np.arange(n - 1), np.arange(1, n)] = up
    q[np.arange(1, n), np.arange(n - 1)] = down
    q[np.arange(n), np.arange(n)] = -q.sum(axis=1)
    return q


def _exact_mean_laplace(q_d: np.ndarray, beta: float):
    """Mean exit time and Laplace transform on the domain by two solves."""
    ones = np.ones(q_d.shape[0])
    eye = np.eye(q_d.shape[0])
    mean = np.linalg.solve(-q_d, ones)
    laplace = 1.0 - beta * np.linalg.solve(beta * eye - q_d, ones)
    return mean, laplace


def _rel_err(got, want) -> float:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    return float(np.abs(got - want).max() / max(np.abs(want).max(), 1e-300))


def _exit_expectations(q: np.ndarray, domain, beta: float) -> list:
    """exit.json entries at one beta, from the mean and Laplace of ``q``."""
    idx = np.asarray(domain)
    mean_d, lap_d = _exact_mean_laplace(q[np.ix_(idx, idx)], beta)
    mean = np.zeros(q.shape[0])
    mean[idx] = mean_d
    lap = np.ones(q.shape[0])
    lap[idx] = lap_d
    key = repr(beta)
    return [
        ("exit.json", ("exit_functionals", key, "mean"), mean),
        ("exit.json", ("exit_functionals", key, "laplace"), lap),
    ]


def check_reports(out_dir: Path, expected) -> list[str]:
    """Compare report entries with independently computed values.

    ``expected`` lists (file, path into the JSON document, value); returns
    one message per entry that is missing or off by more than CHECK_RTOL.
    """
    docs = {}
    problems = []
    for fname, path, want in expected:
        try:
            if fname not in docs:
                docs[fname] = json.loads((out_dir / fname).read_text())
            got = docs[fname]
            for key in path:
                got = got[key]
            err = _rel_err(got, want)
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            problems.append(f"{fname} {'/'.join(map(str, path))}: {exc!r}")
            continue
        if not err <= CHECK_RTOL:
            problems.append(f"{fname} {'/'.join(map(str, path))}: off by {err:.3e} relative")
    return problems


@dataclass(frozen=True)
class Workload:
    name: str
    why: str

    def config(self, seed: int) -> dict:
        raise NotImplementedError

    def config_bytes(self, seed: int) -> bytes:
        return _dumps(self.config(seed))

    def sizes(self, cfg: dict) -> dict:
        raise NotImplementedError

    def expected(self, cfg: dict) -> list:
        """Report entries recomputed without the program, for check_reports."""
        raise NotImplementedError


class LedgerBD800(Workload):
    N = 800
    DOMAIN = 400
    BETAS = [0.005, 0.01, 0.02, 0.5]

    def config(self, seed: int) -> dict:
        rng = _rng(seed, 1)
        n = self.N
        m = rng.uniform(0.5, 2.0, n)
        c = rng.uniform(0.5, 2.0, n - 1)
        domain = np.sort(rng.choice(n, self.DOMAIN, replace=False))
        xi = rng.uniform(0.5, 2.0, self.DOMAIN)
        # Rates c/m are of order 1; the builder turns the detailed-balance
        # weights (proportional to m) into a probability measure.
        return {
            "model": {
                "builder": "birth_death",
                "params": {"up": (c / m[:-1]).tolist(), "down": (c / m[1:]).tolist()},
            },
            "omega": [int(i) for i in domain],
            "betas": self.BETAS,
            "xi": xi.tolist(),
            "commands": ["validate", "exit", "variational", "expmoment", "bounds"],
            "formats": ["json", "csv"],
        }

    def sizes(self, cfg: dict) -> dict:
        return {"n": self.N, "domain": len(cfg["omega"]), "betas": len(cfg["betas"]), "n_paths": 0}

    def expected(self, cfg: dict) -> list:
        p = cfg["model"]["params"]
        return _exit_expectations(_bd_generator(p["up"], p["down"]), cfg["omega"], cfg["betas"][0])


class GridSweepH20(Workload):
    H = 0.05
    BOX = [[-0.75, 0.75], [-0.75, 0.75]]

    def config(self, seed: int) -> dict:
        rng = _rng(seed, 2)
        return {
            "model": {
                "builder": "grid_jump_diffusion",
                "params": {
                    "dimension": 2,
                    "domain_box": [[-1.0, 1.0], [-1.0, 1.0]],
                    "mesh_h": self.H,
                    "alpha": 1.0,
                    "kappa": 1.0,
                    "epsilon": 1.0,
                },
            },
            "omega": {"box": self.BOX},
            "betas": [0.5, 2.0],
            "commands": ["sweep"],
            "sweep": {
                "kind": "scale",
                "kappa": rng.uniform(0.25, 4.0, 3).tolist(),
                "epsilon": rng.uniform(0.25, 4.0, 3).tolist(),
            },
            "formats": ["json", "csv"],
        }

    @staticmethod
    def _axis(h: float) -> np.ndarray:
        k = int(round(2.0 / h))
        return -1.0 + h * np.arange(1, k)

    def _domain(self) -> np.ndarray:
        ax = self._axis(self.H)
        x, y = np.meshgrid(ax, ax, indexing="ij")
        (lo, hi), (ylo, yhi) = self.BOX
        inside = (x > lo) & (x < hi) & (y > ylo) & (y < yhi)
        return np.flatnonzero(inside.ravel())

    def sizes(self, cfg: dict) -> dict:
        return {
            "n": self._axis(self.H).size ** 2,
            "domain": int(self._domain().size),
            "betas": len(cfg["betas"]),
            "n_paths": 0,
            "sweep_points": len(cfg["sweep"]["kappa"]) * len(cfg["sweep"]["epsilon"]),
        }

    def expected(self, cfg: dict) -> list:
        """Aggregates of the first sweep point, rebuilt through the public builders."""
        from exitlab.models import GridModelSpec, discretize_jump_diffusion, scaled_family

        base = dict(cfg["model"]["params"])
        base["domain_box"] = tuple(tuple(e) for e in base["domain_box"])
        diff = discretize_jump_diffusion(GridModelSpec(**{**base, "kappa": 1.0, "epsilon": 0.0}))
        jump = discretize_jump_diffusion(GridModelSpec(**{**base, "kappa": 0.0, "epsilon": 1.0}))
        kap, eps = cfg["sweep"]["kappa"][0], cfg["sweep"]["epsilon"][0]
        chain = scaled_family(diff, jump, kap, eps)
        beta = cfg["betas"][0]
        idx = self._domain()
        mean_d, lap_d = _exact_mean_laplace(np.asarray(chain.q)[np.ix_(idx, idx)], beta)
        mu = np.asarray(chain.mu)
        outside = np.ones(mu.size, dtype=bool)
        outside[idx] = False
        # The sweep loops kappa outermost, so row 0 is the first (kappa, epsilon).
        return [
            ("sweep.json", ("rows", 0, "kappa"), kap),
            ("sweep.json", ("rows", 0, "epsilon"), eps),
            ("sweep.json", ("rows", 0, "mean"), float(np.sum(mu[idx] * mean_d))),
            (
                "sweep.json",
                ("rows", 0, "laplace", repr(beta)),
                float(np.sum(mu[idx] * lap_d) + np.sum(mu[outside])),
            ),
        ]


class McBD12(Workload):
    N = 12
    DOMAIN = list(range(2, 10))
    START = 6
    N_PATHS = 50_000

    def config(self, seed: int) -> dict:
        rng = _rng(seed, 3)
        # One seeded rate per state, split evenly between the two neighbours:
        # every seed gives the same jump chain (a symmetric walk, 20 jumps per
        # path on average), so the amount of simulation work does not depend
        # on the seed while the exit times do.
        r = rng.uniform(0.5, 2.0, self.N)
        return {
            "model": {"builder": "birth_death", "params": {"up": r[:-1].tolist(), "down": r[1:].tolist()}},
            "omega": self.DOMAIN,
            "betas": [0.5, 1.0],
            "commands": ["exit", "mc"],
            "mc": {"n_paths": self.N_PATHS, "seed": int(seed), "start": self.START},
            "formats": ["json", "csv"],
        }

    def sizes(self, cfg: dict) -> dict:
        return {
            "n": self.N,
            "domain": len(cfg["omega"]),
            "betas": len(cfg["betas"]),
            "n_paths": cfg["mc"]["n_paths"],
        }

    def expected(self, cfg: dict) -> list:
        p = cfg["model"]["params"]
        return _exit_expectations(_bd_generator(p["up"], p["down"]), cfg["omega"], cfg["betas"][0])


WORKLOADS = {
    w.name: w
    for w in (
        LedgerBD800(
            "ledger-bd800",
            "many solves, eigensolves and form views on one reversible chain and domain",
        ),
        GridSweepH20(
            "grid-sweep-h20",
            "2D grid assembly and one fresh chain per sweep point, three solves each",
        ),
        McBD12(
            "mc-bd12",
            "Monte Carlo paths dominate; the exact layers take almost no time",
        ),
    )
}
