"""Path simulation to exit, as a stochastic cross-check of the exact solves.

Holding times are exponential at the total outflow rate (killing defect
included); jumps are categorical. Paths run in lockstep blocks of BLOCK
columns, path i in column i mod BLOCK of block i // BLOCK, on a
counter-based Philox stream keyed by (seed, block). Each step draws for the
block's live columns only, so a block costs what its paths do. Once no more
than STRAGGLERS columns live, the real paths among them finish alone, each
on its own stream keyed by (seed, i | 2**63). Paths that have not exited by
the censoring time max_time are recorded at max_time with a censor flag.
"""
from __future__ import annotations

import bisect
import numbers
from dataclasses import dataclass

import numpy as np

from .defaults import STRUCTURAL_TOL
from .forms import Chain, _freeze, _json_float
from .poisson import DomainMask, _check_mask

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
# A block steps in lockstep while more of its columns than this live.
STRAGGLERS = 32
# Exponentials, then uniforms, per chunk of a straggler's own stream.
STRAGGLER_CHUNK = 256
# Marks a straggler's (seed, path index) key, so it never equals a block key.
_STRAGGLER_BIT = 1 << 63
# Paths per formatted chunk of the samples CSV, small enough that writing
# 50k paths adds nothing to the run's peak resident memory (chunks of BLOCK
# paths raised it by about 0.4 MiB).
_CSV_ROWS = 1024
# Rows of the generator read at a time while the jump table is built: a
# tile's weights, mask and branch indices stay small next to the table.
_TABLE_TILE_ROWS = 16


@dataclass(frozen=True, eq=False)
class McConfig:
    """Simulation parameters. ``start`` is a state index or a distribution."""

    n_paths: int
    seed: int
    start: object
    max_time: float = 1e6

    def __post_init__(self):
        for name in ("n_paths", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        if self.n_paths < 1:
            raise ValueError("n_paths must be at least 1")
        if isinstance(self.max_time, bool) or not (isinstance(self.max_time, numbers.Real) and 0 < self.max_time < np.inf):
            raise ValueError(f"max_time must be a positive finite number, got {self.max_time!r}")
        start = self.start
        if isinstance(start, bool) or not (isinstance(start, (int, np.integer)) or np.ndim(start) == 1):
            raise ValueError(f"start must be an integer state index or a distribution, got {start!r}")

    def start_weights(self, n_states: int) -> np.ndarray:
        """The start as a distribution over n_states states, a unit vector for
        a state index; raises ValueError when it does not fit the chain."""
        if np.ndim(self.start) == 0:
            if not 0 <= self.start < n_states:
                raise ValueError("start state out of range")
            weights = np.zeros(n_states)
            weights[self.start] = 1.0
            return weights
        weights = np.asarray(self.start, dtype=float)
        if weights.shape != (n_states,) or not (weights >= 0).all() or not abs(weights.sum() - 1.0) <= 1e-9:
            raise ValueError("start distribution must be a probability vector over states")
        return weights


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
        # formatted _CSV_ROWS paths at a time, so only one chunk's cells are
        # alive at once: the cells interleaved by slice assignment, then one
        # "%" over a row format repeated once per path
        parts = ["path,tau,censored\n"]
        for lo in range(0, self.n_paths, _CSV_ROWS):
            tau = self.tau[lo : lo + _CSV_ROWS].tolist()
            rows = len(tau)
            cells = [None] * (3 * rows)
            cells[0::3] = range(lo, lo + rows)
            cells[1::3] = tau
            cells[2::3] = self.censored[lo : lo + _CSV_ROWS].tolist()
            parts.append("%d,%r,%d\n" * rows % tuple(cells))
        return "".join(parts)


def _philox(seed: int, stream: int) -> np.random.Generator:
    key = np.array([np.uint64(seed & 0xFFFFFFFFFFFFFFFF), np.uint64(stream)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True)
class _JumpTable:
    """Flat CSR jump table: row x holds the keys ``x + cumprob`` of its
    branches, capped at x + 1, in ``keys[first[x] : last[x] + 1]``, and their
    targets, -1 for the killing branch, in the smallest signed integer type
    that holds them. The last key of row x is exactly x + 1, so the keys are
    sorted across rows and a draw ``x + u`` lands in row x. ``window`` is the
    smallest power of two at least the widest row's count of keys before its
    last; ``keys`` ends with ``window`` entries of +inf, so a window search
    from any row's first key stays inside the array. ``inside`` has one more
    entry, False, so ``inside[-1]`` reads the cemetery."""

    inv_rate: np.ndarray
    keys: np.ndarray
    targets: np.ndarray
    first: np.ndarray
    last: np.ndarray
    window: int
    inside: np.ndarray

    def jump(self, x, v):
        """Next states of columns in states ``x`` with draws ``v = x + u``:
        the target of the first key of row x above v, or of the row's last
        branch if none is. A binary search of log2(window) passes over the
        window that starts at ``first[x]``, then one more compare: the rows
        are sorted, so it counts the same keys at most v as ``searchsorted``
        over the whole table, up to the clamp at ``last[x]``."""
        keys = self.keys
        base = self.first.take(x)
        h = self.window // 2
        while h:
            base += h * (keys.take(base + (h - 1)) <= v)
            h //= 2
        base += keys.take(base) <= v
        # narrow targets, widened once here rather than at every gather by x
        return self.targets.take(np.minimum(base, self.last.take(x), out=base)).astype(np.intp)

    def scalar_jump(self):
        """``jump`` for one column at a time: bisects row x, read through
        memoryviews of the table, so no array is copied."""
        keys, targets = memoryview(self.keys), memoryview(self.targets)
        first, last = memoryview(self.first), memoryview(self.last)

        def jump(x: int, v: float) -> int:
            return targets[bisect.bisect_right(keys, v, first[x], last[x])]

        return jump


def _branch_weights(q, kill, rate, lo: int, hi: int) -> np.ndarray:
    """Rows lo..hi-1 of the branch weights: the off-diagonal rates, then the
    killing rate, with no negative entries."""
    n = q.shape[0]
    w = np.empty((hi - lo, n + 1))
    w[:, :n] = q[lo:hi]
    w[:, n] = kill[lo:hi]
    w[np.arange(hi - lo), np.arange(lo, hi)] = 0.0
    # validation admits off-diagonal rates that are negative rounding noise
    w[w < 0.0] = 0.0
    # a state that cannot move gets one (never taken) branch, so no row is empty
    w[rate[lo:hi] <= 0.0, n] = 1.0
    return w


def _jump_table(q: np.ndarray, inside: np.ndarray) -> _JumpTable:
    """The jump table of generator ``q``, built _TABLE_TILE_ROWS rows at a
    time: one pass counts each row's branches, a second writes them."""
    n = q.shape[0]
    rate = -np.diag(q)
    kill = -q.sum(axis=1)
    # a killing rate within rounding noise of the row's scale is no branch
    kill = np.where(kill > STRUCTURAL_TOL * np.abs(rate), kill, 0.0)
    tiles = [(lo, min(lo + _TABLE_TILE_ROWS, n)) for lo in range(0, n, _TABLE_TILE_ROWS)]
    counts = np.concatenate([np.count_nonzero(_branch_weights(q, kill, rate, lo, hi) > 0.0, axis=1) for lo, hi in tiles])
    last = np.cumsum(counts) - 1
    first = last - (counts - 1)
    window = 1 << max(int(counts.max()) - 2, 0).bit_length()
    keys = np.full(last[-1] + 1 + window, np.inf)
    targets = np.empty(last[-1] + 1, dtype=np.min_scalar_type(-n))
    scale = np.where(rate > 0.0, rate, 1.0)
    for lo, hi in tiles:
        w = _branch_weights(q, kill, rate, lo, hi)
        rows, cols = np.nonzero(w > 0.0)
        np.cumsum(w, axis=1, out=w)
        rows += lo
        # a branch whose share is below rounding can push an earlier key
        # past x + 1; capped, every row is sorted
        span = slice(first[lo], last[hi - 1] + 1)
        keys[span] = np.minimum(rows + w[rows - lo, cols] / scale[rows], rows + 1.0)
        targets[span] = np.where(cols == n, -1, cols)
    # row x ends at exactly x + 1, so every draw x + u with u < 1 lands in it
    keys[last] = np.arange(1, n + 1, dtype=float)
    with np.errstate(divide="ignore"):
        inv_rate = 1.0 / np.where(rate > 0.0, rate, 0.0)
    return _JumpTable(
        inv_rate=inv_rate,
        keys=keys,
        targets=targets,
        first=first,
        last=last,
        window=window,
        inside=np.append(inside, False),
    )


def _lockstep_block(rng, x, tau, cens, table: _JumpTable, max_time: float):
    """Step the columns of one block together while more than STRAGGLERS
    of them live, drawing for the live columns only.

    ``x`` holds each column's start state; finished columns are written into
    ``tau`` and ``cens``. Returns the columns still inside, with their
    states and times.
    """
    live = np.flatnonzero(table.inside[x])
    x, t = x[live], np.zeros(live.size)
    while live.size > STRAGGLERS:
        t += rng.standard_exponential(live.size) * table.inv_rate.take(x)
        x = table.jump(x, x + rng.random(live.size))
        over = ~(t <= max_time)
        done = over | ~table.inside.take(x)
        # one index array per mask, gathered by take: a boolean index
        # recounts its mask on every use
        gone = np.flatnonzero(done)
        if gone.size:
            cols, over = live.take(gone), over.take(gone)
            tau[cols] = np.where(over, max_time, t.take(gone))
            cens[cols] = over
            keep = np.flatnonzero(~done)
            live, x, t = live.take(keep), x.take(keep), t.take(keep)
    return live, x, t


def _finish_paths(seed: int, paths, xs, ts, table: _JumpTable, max_time: float, taus, cens):
    """Run each straggler on its own stream, in chunks of STRAGGLER_CHUNK
    exponentials then STRAGGLER_CHUNK uniforms, and write its exit time
    and censor flag into ``taus`` and ``cens``."""
    jump = table.scalar_jump()
    inv_rate, inside = memoryview(table.inv_rate), memoryview(table.inside)

    def finish(rng, x, t):
        while True:
            for e, u in zip(rng.standard_exponential(STRAGGLER_CHUNK).tolist(), rng.random(STRAGGLER_CHUNK).tolist()):
                t += e * inv_rate[x]
                if not t <= max_time:
                    return max_time, True
                x = jump(x, x + u)
                if not inside[x]:
                    return t, False

    for p, x, t in zip(paths, xs, ts):
        taus[p], cens[p] = finish(_philox(seed, p | _STRAGGLER_BIT), x, t)


def _simulate_paths(table: _JumpTable, start_state, start_cum, config: McConfig):
    n_paths = config.n_paths
    # whole blocks: the phantom columns of the last one finish past n_paths
    taus = np.zeros(-(-n_paths // BLOCK) * BLOCK)
    cens = np.zeros(taus.size, dtype=bool)
    off_start = False
    for lo in range(0, n_paths, BLOCK):
        rng = _philox(config.seed, lo // BLOCK)
        if start_state is None:
            x = np.searchsorted(start_cum, rng.random(BLOCK), side="right")
        else:
            x = np.full(BLOCK, start_state)
        off_start = off_start or not table.inside[x[: n_paths - lo]].all()
        live, x, t = _lockstep_block(rng, x, taus[lo : lo + BLOCK], cens[lo : lo + BLOCK], table, config.max_time)
        real = live < n_paths - lo
        paths = (lo + live[real]).tolist()
        _finish_paths(config.seed, paths, x[real].tolist(), t[real].tolist(), table, config.max_time, taus, cens)
    return taus[:n_paths], cens[:n_paths], off_start


def simulate_exit_times(chain: Chain, mask: DomainMask, config: McConfig) -> ExitSamples:
    """Simulate exit times of n_paths independent trajectories.

    Deterministic given the seed; path i's sample depends only on (seed, i),
    never on n_paths. The last block runs all BLOCK columns, those past
    n_paths as phantoms whose results are dropped. Each step draws one
    exponential per live column, phantoms included, then one uniform per
    live column, handed out in ascending column order. Once no more than
    STRAGGLERS columns live, each real path still inside finishes alone.
    The phantoms' cost: a few paths on a chain with long paths step a whole
    block. A start outside the domain yields zero samples and sets the flag
    instead of raising.
    """
    _check_mask(mask, chain.n_states)
    weights = config.start_weights(chain.n_states)
    if np.ndim(config.start) == 0:
        start_state, start_cum = int(config.start), None
    else:
        start_state = None
        start_cum = np.cumsum(weights)
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
                repr(b): [_json_float(v[0]), _json_float(v[1]), v[2]]
                for b, v in self.exp_moment.items()
            },
            "n_paths": self.n_paths,
            "n_censored": self.n_censored,
            "exp_moment_lower_bound": self.exp_moment_lower_bound,
        }


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
        # an overflow is written as it is: inf, with an SE (inf - inf) of NaN
        with np.errstate(over="ignore", invalid="ignore"):
            w = np.exp(float(b) * tau)
            est, se = _mean_se(w)
            top = max(1, int(np.ceil(HEAVY_TAIL_TOP_FRACTION * w.shape[0])))
            top_mass = float(np.sort(w)[-top:].sum() / w.sum())
        # a NaN mass (an overflowed inf / inf) is heavy-tailed too
        exp_moment[float(b)] = (est, se, not top_mass <= HEAVY_TAIL_MASS_LIMIT)
    return McEstimate(
        mean=mean,
        laplace=laplace,
        exp_moment=exp_moment,
        n_paths=samples.n_paths,
        n_censored=int(samples.censored.sum()),
        exp_moment_lower_bound=bool(samples.censored.any()) and bool(exp_betas),
    )
