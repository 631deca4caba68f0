"""Path simulation to exit, as a stochastic cross-check of the exact solves.

Holding times are exponential at the total outflow rate (killing defect
included); jumps are categorical. Every path owns a counter-based random
stream keyed by (seed, path index), so a path's sample does not depend on
how many paths run beside it. Paths that have not exited by the censoring
horizon are recorded at the horizon with a censor flag.
"""
from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass

import numpy as np

from .forms import Chain, _freeze
from .poisson import DomainMask

__all__ = [
    "McConfig",
    "ExitSamples",
    "McEstimate",
    "simulate_exit_times",
    "estimate_exit_functionals",
]

HEAVY_TAIL_TOP_FRACTION = 0.01
HEAVY_TAIL_MASS_LIMIT = 0.20


@dataclass(frozen=True, eq=False)
class McConfig:
    """Simulation parameters. ``start`` is a state index or a distribution."""

    n_paths: int
    seed: int
    start: object
    betas: tuple = ()
    max_time: float = 1e6

    def __post_init__(self):
        if self.n_paths < 1:
            raise ValueError("n_paths must be at least 1")
        if self.max_time <= 0:
            raise ValueError("max_time must be positive")
        object.__setattr__(self, "betas", tuple(float(b) for b in self.betas))


@dataclass(frozen=True, eq=False)
class ExitSamples:
    """Exit times with censor flags; start_off_domain marks zero samples
    caused by starting outside the domain."""

    tau: np.ndarray
    censored: np.ndarray
    start_off_domain: bool = False

    def __post_init__(self):
        object.__setattr__(self, "tau", _freeze(self.tau))
        cens = np.asarray(self.censored, dtype=bool).copy()
        cens.setflags(write=False)
        object.__setattr__(self, "censored", cens)

    @property
    def n_paths(self) -> int:
        return self.tau.shape[0]

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["path", "tau", "censored"])
        for i in range(self.n_paths):
            writer.writerow([i, repr(float(self.tau[i])), int(self.censored[i])])
        return buf.getvalue()


def _path_rng(seed: int, path_index: int) -> np.random.Generator:
    key = np.array(
        [np.uint64(seed & 0xFFFFFFFFFFFFFFFF), np.uint64(path_index)], dtype=np.uint64
    )
    return np.random.Generator(np.random.Philox(key=key))


def _simulate_paths(dyn, config: McConfig):
    (inside, exit_rate, cum_prob, targets, start_state, start_cum) = dyn
    taus = np.empty(config.n_paths)
    cens = np.zeros(config.n_paths, dtype=bool)
    off_start = False
    for p in range(config.n_paths):
        rng = _path_rng(config.seed, p)
        if start_state is not None:
            x = start_state
        else:
            x = int(np.searchsorted(start_cum, rng.random(), side="right"))
        if not inside[x]:
            taus[p] = 0.0
            off_start = True
            continue
        t = 0.0
        while True:
            q = exit_rate[x]
            if q <= 0.0:
                # absorbing inside state: never exits
                taus[p] = config.max_time
                cens[p] = True
                break
            t += rng.exponential(1.0 / q)
            if t > config.max_time:
                taus[p] = config.max_time
                cens[p] = True
                break
            r = rng.random()
            j = int(np.searchsorted(cum_prob[x], r, side="right"))
            nxt = targets[x][j] if j < len(targets[x]) else -1
            if nxt < 0 or not inside[nxt]:
                taus[p] = t
                break
            x = nxt
    return taus, cens, off_start


def simulate_exit_times(chain: Chain, mask: DomainMask, config: McConfig) -> ExitSamples:
    """Simulate exit times of n_paths independent trajectories.

    Deterministic given the seed; the first k paths do not depend on
    n_paths. A start outside the domain yields zero samples and sets the
    flag instead of raising.
    """
    n = chain.n_states
    q = chain.q
    exit_rate = -np.diag(q)
    targets = []
    cum_prob = []
    for x in range(n):
        rates = q[x].copy()
        rates[x] = 0.0
        kill = max(0.0, -q[x].sum())
        tgt = list(np.flatnonzero(rates > 0))
        vals = [rates[j] for j in tgt]
        if kill > 0:
            tgt.append(-1)
            vals.append(kill)
        total = exit_rate[x]
        if total > 0:
            cp = np.cumsum(np.asarray(vals) / total)
            cp[-1] = 1.0
        else:
            cp = np.array([1.0])
            tgt = [-1]
        targets.append(tgt)
        cum_prob.append(cp)

    if np.isscalar(config.start) or isinstance(config.start, (int, np.integer)):
        start_state = int(config.start)
        if not 0 <= start_state < n:
            raise ValueError("start state out of range")
        start_cum = None
    else:
        dist = np.asarray(config.start, dtype=float)
        if dist.shape != (n,) or dist.min() < 0 or abs(dist.sum() - 1.0) > 1e-9:
            raise ValueError("start distribution must be a probability vector over states")
        start_state = None
        start_cum = np.cumsum(dist)
        start_cum[-1] = 1.0

    dyn = (mask.inside, exit_rate, cum_prob, targets, start_state, start_cum)
    taus, cens, off = _simulate_paths(dyn, config)
    return ExitSamples(taus, cens, start_off_domain=off)


@dataclass(frozen=True, eq=False)
class McEstimate:
    """Plug-in estimates with asymptotic-normal standard errors.

    ``laplace`` maps beta to (estimate, se); ``exp_moment`` maps beta to
    (estimate, se, heavy_tail_flag) and is empty when not requested.
    ``exp_moment_lower_bound`` is set when censored paths make the growing
    exponential moment a lower bound only.
    """

    mean: tuple
    laplace: dict
    exp_moment: dict
    n_paths: int
    n_censored: int
    exp_moment_lower_bound: bool

    def to_dict(self) -> dict:
        return {
            "mean": list(self.mean),
            "laplace": {repr(b): list(v) for b, v in self.laplace.items()},
            "exp_moment": {
                repr(b): [_finite_or_inf(v[0]), _finite_or_inf(v[1]), v[2]]
                for b, v in self.exp_moment.items()
            },
            "n_paths": self.n_paths,
            "n_censored": self.n_censored,
            "exp_moment_lower_bound": self.exp_moment_lower_bound,
        }

    def to_json(self, **kwargs) -> str:
        return json.dumps(self.to_dict(), **kwargs)


def _finite_or_inf(x: float):
    return x if np.isfinite(x) else "inf"


def _mean_se(values: np.ndarray):
    est = float(values.mean())
    se = float(values.std(ddof=1) / np.sqrt(values.shape[0])) if values.shape[0] > 1 else 0.0
    return est, se


def estimate_exit_functionals(samples: ExitSamples, betas, exp_betas=()) -> McEstimate:
    """Estimate E[tau], E[exp(-beta tau)], and optionally E[exp(beta tau)].

    Growing moments carry a heavy-tail flag when the top one percent of
    paths contributes more than twenty percent of the estimator mass.
    """
    if samples.n_paths == 0:
        raise ValueError("no samples")
    tau = samples.tau
    mean = _mean_se(tau)
    laplace = {}
    for b in betas:
        laplace[float(b)] = _mean_se(np.exp(-float(b) * tau))
    exp_moment = {}
    for b in exp_betas:
        w = np.exp(float(b) * tau)
        est, se = _mean_se(w)
        top = max(1, int(np.ceil(HEAVY_TAIL_TOP_FRACTION * w.shape[0])))
        top_mass = float(np.sort(w)[-top:].sum() / w.sum())
        exp_moment[float(b)] = (est, se, top_mass > HEAVY_TAIL_MASS_LIMIT)
    return McEstimate(
        mean=mean,
        laplace=laplace,
        exp_moment=exp_moment,
        n_paths=samples.n_paths,
        n_censored=int(samples.censored.sum()),
        exp_moment_lower_bound=bool(samples.censored.any()) and bool(exp_betas),
    )
