"""Path simulation to exit, as a stochastic cross-check of the exact solves.

Holding times are exponential at the total outflow rate (killing defect
included); jumps are categorical. Paths run in lockstep blocks of BLOCK:
block b draws each step's exponentials and uniforms, the full block wide,
from a counter-based Philox stream keyed by (seed, b), and path i reads
column i mod BLOCK, so its sample depends only on (seed, i), not on how many
paths run beside it. A path still inside after HORIZON lockstep steps
finishes alone on its own stream keyed by (seed, i | 2**63), so a few slow
paths do not keep a whole block drawing. Paths that have not exited by the
censoring time max_time are recorded at max_time with a censor flag.
"""
from __future__ import annotations

import bisect
import json
from dataclasses import dataclass

import numpy as np

from .defaults import STRUCTURAL_TOL
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

# Paths stepped together on one (seed, block index) stream.
BLOCK = 8192
# Lockstep steps per block; a path still inside after them finishes alone.
HORIZON = 256
# Marks a straggler's (seed, path index) key, so it never equals a block key.
_STRAGGLER_BIT = 1 << 63


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
        # joined a block of paths at a time, so only one block's row strings
        # are alive at once
        parts = ["path,tau,censored\n"]
        for lo in range(0, self.n_paths, BLOCK):
            tau = self.tau[lo : lo + BLOCK].tolist()
            cens = self.censored[lo : lo + BLOCK].tolist()
            parts.append("".join(f"{i},{t!r},{c:d}\n" for i, t, c in zip(range(lo, lo + BLOCK), tau, cens)))
        return "".join(parts)


def _philox(seed: int, stream: int) -> np.random.Generator:
    key = np.array([np.uint64(seed & 0xFFFFFFFFFFFFFFFF), np.uint64(stream)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True)
class _JumpTable:
    """Flat CSR jump table: row x holds the keys ``x + cumprob`` of its
    branches and their targets, -1 for the killing branch. ``inside`` has
    one more entry, False, so ``inside[-1]`` reads the cemetery."""

    inv_rate: np.ndarray
    keys: np.ndarray
    targets: np.ndarray
    last: np.ndarray
    inside: np.ndarray


def _jump_table(q: np.ndarray, inside: np.ndarray) -> _JumpTable:
    n = q.shape[0]
    rate = -np.diag(q)
    kill = -q.sum(axis=1)
    # a killing rate within rounding noise of the row's scale is no branch
    kill = np.where(kill > STRUCTURAL_TOL * np.abs(rate), kill, 0.0)
    w = np.hstack([q, kill[:, None]])
    w[np.arange(n), np.arange(n)] = 0.0
    # validation admits off-diagonal rates that are negative rounding noise
    w[w < 0.0] = 0.0
    # a state that cannot move gets one (never taken) branch, so no row is empty
    w[rate <= 0.0, n] = 1.0
    rows, cols = np.nonzero(w > 0.0)
    np.cumsum(w, axis=1, out=w)
    keys = rows + w[rows, cols] / np.where(rate > 0.0, rate, 1.0)[rows]
    last = np.cumsum(np.bincount(rows, minlength=n)) - 1
    # row x ends at exactly x + 1, so every draw x + u with u < 1 lands in it
    keys[last] = np.arange(1, n + 1, dtype=float)
    with np.errstate(divide="ignore"):
        inv_rate = 1.0 / np.where(rate > 0.0, rate, 0.0)
    return _JumpTable(
        inv_rate=inv_rate,
        keys=keys,
        targets=np.where(cols == n, -1, cols),
        last=last,
        inside=np.append(inside, False),
    )


def _lockstep_block(rng, x, tau, cens, table: _JumpTable, max_time: float):
    """Step the paths of one block together for up to HORIZON steps.

    ``x`` holds each column's start state; finished paths are written into
    ``tau`` and ``cens``. Every step draws the full block width, so a
    column's draws do not depend on which columns still live. Returns the
    columns still inside, with their states and times.
    """
    live = np.flatnonzero(table.inside[x])
    x, t = x[live], np.zeros(live.size)
    e = np.empty(BLOCK)
    u = np.empty(BLOCK)
    for _ in range(HORIZON):
        if live.size == 0:
            break
        rng.standard_exponential(out=e)
        rng.random(out=u)
        t = t + e[live] * table.inv_rate[x]
        j = np.searchsorted(table.keys, x + u[live], side="right")
        x = table.targets[np.minimum(j, table.last[x])]
        over = ~(t <= max_time)
        done = over | ~table.inside[x]
        if done.any():
            cols = live[done]
            tau[cols] = np.where(over[done], max_time, t[done])
            cens[cols] = over[done]
            keep = ~done
            live, x, t = live[keep], x[keep], t[keep]
    return live, x, t


def _finish_paths(seed: int, paths, xs, ts, table: _JumpTable, max_time: float):
    """Run each path past the lockstep horizon on its own stream, in chunks
    of HORIZON exponentials then HORIZON uniforms; returns (tau, censored)
    per path."""
    keys = table.keys.tolist()
    targets, last = table.targets.tolist(), table.last.tolist()
    inv_rate, inside = table.inv_rate.tolist(), table.inside.tolist()

    def finish(rng, x, t):
        while True:
            for e, u in zip(rng.standard_exponential(HORIZON).tolist(), rng.random(HORIZON).tolist()):
                t += e * inv_rate[x]
                if not t <= max_time:
                    return max_time, True
                x = targets[min(bisect.bisect_right(keys, x + u), last[x])]
                if not inside[x]:
                    return t, False

    return [finish(_philox(seed, p | _STRAGGLER_BIT), x, t) for p, x, t in zip(paths, xs, ts)]


def _simulate_paths(table: _JumpTable, start_state, start_cum, config: McConfig):
    n_paths = config.n_paths
    taus = np.zeros(n_paths)
    cens = np.zeros(n_paths, dtype=bool)
    off_start = False
    for lo in range(0, n_paths, BLOCK):
        hi = min(lo + BLOCK, n_paths)
        rng = _philox(config.seed, lo // BLOCK)
        if start_state is None:
            x = np.searchsorted(start_cum, rng.random(BLOCK)[: hi - lo], side="right")
        else:
            x = np.full(hi - lo, start_state)
        off_start = off_start or not table.inside[x].all()
        live, x, t = _lockstep_block(rng, x, taus[lo:hi], cens[lo:hi], table, config.max_time)
        if live.size:
            paths = (lo + live).tolist()
            finished = _finish_paths(config.seed, paths, x.tolist(), t.tolist(), table, config.max_time)
            for path, (tau, censored) in zip(paths, finished):
                taus[path], cens[path] = tau, censored
    return taus, cens, off_start


def simulate_exit_times(chain: Chain, mask: DomainMask, config: McConfig) -> ExitSamples:
    """Simulate exit times of n_paths independent trajectories.

    Deterministic given the seed; the first k paths do not depend on
    n_paths. A start outside the domain yields zero samples and sets the
    flag instead of raising.
    """
    n = chain.n_states
    if np.isscalar(config.start):
        if isinstance(config.start, bool) or not isinstance(config.start, (int, np.integer)):
            raise ValueError(f"start state must be an integer index, got {config.start!r}")
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

    table = _jump_table(chain.q, mask.inside)
    taus, cens, off = _simulate_paths(table, start_state, start_cum, config)
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
