"""Model builders: graph chains, grid jump diffusions, and drift flows.

The grid discretization covers the operator family

    kappa * div(a grad) - k b . grad + epsilon * (fractional Laplacian)

on a box in one or two dimensions, producing the sub-Markov generator on
interior grid points with cell measure h^d. Diffusion uses conservative
two-point fluxes with face values of a; drift uses upwind differences so
the sign structure survives any strength; the jump kernel

    c(d, alpha) / |z|^(d + alpha)

is integrated cell by cell with midpoint quadrature, the singular cell is
replaced by its second moment times the discrete second difference, and
every jump landing outside the box (lattice cells up to the cutoff radius
plus the analytic tail beyond it) is routed to exit.

Divergence-free drift at the chain level is an antisymmetric flow: a
zero-row-sum matrix Gamma with diag(mu) Gamma antisymmetric, added as
Q + k*Gamma for any strength k keeping the off-diagonal entries
nonnegative.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .defaults import STRUCTURAL_TOL
from .forms import Chain, Generator, Measure, _as_vector, _balanced, _freeze, _is_symmetric, _off_diagonal, _rate_scale

__all__ = [
    "GridModelSpec",
    "FlowMatrix",
    "complete_graph",
    "birth_death",
    "weighted_graph",
    "cycle_flow",
    "flow_from_cycles",
    "build_chain",
    "discretize_jump_diffusion",
    "grid_points",
    "antisym_perturb",
    "scaled_family",
    "fractional_kernel_constant",
    "BUILDERS",
]


# ---------------------------------------------------------------------------
# graph builders


def complete_graph(n: int, rate: float) -> Chain:
    """All-to-all chain at a uniform rate, with uniform probability measure."""
    if n < 2:
        raise ValueError("complete graph needs at least two states")
    if rate <= 0:
        raise ValueError("rate must be positive")
    q = np.full((n, n), float(rate))
    np.fill_diagonal(q, -(n - 1) * float(rate))
    q.setflags(write=False)  # adopted by Generator, not copied
    return Chain(Generator(q), Measure.probability(np.ones(n)))


def birth_death(up, down, measure=None) -> Chain:
    """Nearest-neighbour chain from up rates (i -> i+1) and down rates (i+1 -> i).

    Without an explicit measure the detailed-balance weights are built from
    the rate ratios and divided by their sum, so the chain is reversible by
    construction.
    """
    up = _as_vector(up, name="up rates")
    down = _as_vector(down, name="down rates")
    if up.shape[0] != down.shape[0]:
        raise ValueError("up and down rate lists must have equal length")
    if np.any(up <= 0) or np.any(down <= 0):
        raise ValueError("birth and death rates must be positive")
    n = up.shape[0] + 1
    q = np.zeros((n, n))
    i = np.arange(n - 1)
    q[i, i + 1] = up
    q[i + 1, i] = down
    np.fill_diagonal(q, -q.sum(axis=1))
    q.setflags(write=False)  # adopted by Generator, not copied
    if measure is None:
        w = np.ones(n)
        for i in range(n - 1):
            w[i + 1] = w[i] * up[i] / down[i]
        meas = Measure.probability(w)
    else:
        meas = measure if isinstance(measure, Measure) else Measure(_as_vector(measure, n))
    return Chain(Generator(q), meas)


def weighted_graph(conductances, measure) -> Chain:
    """Reversible chain from symmetric conductances c(x,y) and a measure.

    Rates are q(x,y) = c(x,y) / mu(x), so detailed balance holds for any
    strictly positive measure.
    """
    c = np.asarray(conductances, dtype=float)
    if c.ndim != 2 or c.shape[0] != c.shape[1]:
        raise ValueError("conductance matrix must be square")
    if not _is_symmetric(c):
        raise ValueError("conductances must be symmetric")
    if c.min() < 0:
        raise ValueError("conductances must be nonnegative")
    meas = measure if isinstance(measure, Measure) else Measure(_as_vector(measure, c.shape[0]))
    q = c / meas.weights[:, None]
    # a subnormal rate lost the precision detailed balance needs: its row drops
    # it both ways, 32 rows at a time so the mask stays small
    for lo in range(0, c.shape[0], 32):
        drop = q[lo : lo + 32] < np.finfo(float).tiny
        q[lo : lo + 32][drop] = q[:, lo : lo + 32].T[drop] = 0.0
    np.fill_diagonal(q, 0.0)
    np.fill_diagonal(q, -q.sum(axis=1))
    q.setflags(write=False)  # adopted by Generator, not copied
    return Chain(Generator(q), meas)


# ---------------------------------------------------------------------------
# antisymmetric flows


@dataclass(frozen=True, eq=False)
class FlowMatrix:
    """Zero-diagonal, zero-row-sum flow increment.

    Antisymmetry of diag(mu) Gamma is a property relative to a measure and
    is checked where the flow is applied.
    """

    gamma: np.ndarray

    def __post_init__(self):
        g = np.asarray(self.gamma, dtype=float)
        if g.ndim != 2 or g.shape[0] != g.shape[1]:
            raise ValueError("flow matrix must be square")
        # unfloored, so scaling the flow leaves the verdicts unchanged
        scale = np.abs(g).max()
        if np.abs(np.diag(g)).max() > STRUCTURAL_TOL * scale:
            raise ValueError("flow matrix must have zero diagonal")
        if np.abs(g.sum(axis=1)).max() > STRUCTURAL_TOL * scale:
            raise ValueError("flow matrix must have zero row sums")
        object.__setattr__(self, "gamma", _freeze(g))

    def is_antisymmetric_for(self, measure: Measure) -> bool:
        return _is_symmetric(self.gamma, measure.weights, anti=True)


def flow_from_cycles(cycles, measure: Measure, weights=None) -> FlowMatrix:
    """Sum of oriented-cycle flows, mu-antisymmetric by construction.

    Each cycle is a state sequence (v0, v1, ..., v_{m-1}) traversed
    v0 -> v1 -> ... -> v0; the increment along an edge is weight / mu at
    the departing state, the reverse edge gets the negative. ``weights``
    holds one weight per cycle, 1 each by default. Square plaquettes on a
    grid are 4-cycles of flat indices.
    """
    n = len(measure)
    mg = np.zeros((n, n))
    if weights is None:
        weights = [1.0] * len(cycles)
    elif len(weights) != len(cycles):
        raise ValueError(f"flow_from_cycles got {len(weights)} weights for {len(cycles)} cycles")
    for cyc, w in zip(cycles, weights):
        cyc = [int(v) for v in cyc]
        if len(cyc) < 3:
            raise ValueError("a flow cycle needs at least three states")
        if not all(0 <= v < n for v in cyc):
            raise ValueError("flow cycle state out of range")
        if len(set(cyc)) != len(cyc):
            raise ValueError("a flow cycle must not repeat states")
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            mg[a, b] += w
            mg[b, a] -= w
    return FlowMatrix(mg / measure.weights[:, None])


def cycle_flow(n: int = 3, rate: float = 1.0):
    """Ring chain with counting measure plus its unit circulating flow.

    Returns (chain, flow). For n = 3 the ring coincides with the complete
    graph at the same rate.
    """
    chain = _ring(n, rate)
    return chain, flow_from_cycles([list(range(n))], chain.measure)


def _ring(n: int, rate: float = 1.0) -> Chain:
    """The chain of ``cycle_flow`` alone, which the config builder returns."""
    if n < 3:
        raise ValueError("cycle needs at least three states")
    if rate <= 0:
        raise ValueError("rate must be positive")
    q = np.zeros((n, n))
    for i in range(n):
        q[i, (i + 1) % n] += rate
        q[i, (i - 1) % n] += rate
    np.fill_diagonal(q, -q.sum(axis=1))
    q.setflags(write=False)  # adopted by Generator, not copied
    return Chain(Generator(q), Measure(np.ones(n)))


def antisym_perturb(base: Chain, flow: FlowMatrix, k: float) -> Chain:
    """Chain with generator Q + k*Gamma and the measure of the base.

    The base must be reversible and the flow mu-antisymmetric; the allowed
    strength is bounded by the largest |k| keeping all off-diagonal rates
    nonnegative, reported on rejection.
    """
    if not base.reversible:
        raise ValueError("antisymmetric perturbation needs a reversible base chain")
    if flow.gamma.shape[0] != base.n_states:
        raise ValueError("flow size does not match the chain")
    if not flow.is_antisymmetric_for(base.measure):
        raise ValueError("flow is not antisymmetric for the base measure")
    # k_max, then the rates, in one n x n buffer: off-diagonal views of it
    # and of Q hold the ratios q_xy / |gamma_xy|, and no other n x n array
    # of doubles is made
    q = np.abs(flow.gamma)
    off = _off_diagonal(q)
    active = off > STRUCTURAL_TOL * q.max(initial=0.0)
    np.divide(_off_diagonal(base.q), off, out=off, where=active)
    k_max = float(np.min(off, where=active, initial=np.inf))
    del active
    if abs(k) > k_max * (1.0 + STRUCTURAL_TOL):
        raise ValueError(
            f"flow strength |k|={abs(k):g} exceeds k_max={k_max:g} "
            "(off-diagonal rate would turn negative)"
        )
    np.multiply(flow.gamma, k, out=q)
    q += base.q
    # at |k| = k_max an off-diagonal hits zero; clear rounding dust
    dust = off > -STRUCTURAL_TOL * _rate_scale(base.q)
    dust &= off < 0
    off[dust] = 0.0
    q.setflags(write=False)  # a fresh array, adopted by Generator uncopied
    return Chain(Generator(q), base.measure, base.labels)


def _check_scales(kappa: float, epsilon: float) -> None:
    if kappa < 0 or epsilon < 0 or (kappa == 0 and epsilon == 0):
        raise ValueError("scales must be nonnegative and not both zero")


def _check_family_part(part: Chain) -> None:
    """A part of the scaled family must be reversible, so that every
    nonnegative combination of parts sharing its measure is reversible too."""
    if not part.reversible:
        raise ValueError("both parts must be reversible")


def _check_shared_measure(mu_a: np.ndarray, mu_b: np.ndarray) -> None:
    """The parts share states and measure, to STRUCTURAL_TOL relative to the
    largest weight (unfloored, so scaling both measures keeps the verdict)."""
    if mu_a.shape != mu_b.shape:
        raise ValueError("parts must share the state space")
    if np.abs(mu_a - mu_b).max() > STRUCTURAL_TOL * mu_a.max():
        raise ValueError("parts must share the measure")


def scaled_family(diff_part: Chain, jump_part: Chain, kappa: float, epsilon: float) -> Chain:
    """Chain with generator kappa*Q_diff + epsilon*Q_jump on shared states."""
    _check_scales(kappa, epsilon)
    _check_shared_measure(diff_part.mu, jump_part.mu)
    _check_family_part(diff_part)
    _check_family_part(jump_part)
    q = kappa * diff_part.q + epsilon * jump_part.q
    q.setflags(write=False)  # a fresh array, adopted by Generator uncopied
    return Chain(Generator(q), diff_part.measure, diff_part.labels)


# ---------------------------------------------------------------------------
# grid discretization


def fractional_kernel_constant(d: int, alpha: float) -> float:
    """Normalizing constant of the kernel c / |z|^(d+alpha) of the standard
    isotropic alpha-stable generator."""
    return (
        alpha
        * 2 ** (alpha - 1)
        * math.gamma((alpha + d) / 2)
        / (math.pi ** (d / 2) * math.gamma(1 - alpha / 2))
    )


@dataclass(frozen=True, eq=False)
class GridModelSpec:
    """Parameters of the grid jump diffusion.

    ``a`` is a scalar, a callable of the point returning a scalar
    (isotropic) or a length-d sequence (diagonal anisotropy); full
    anisotropic matrices are rejected because two-point fluxes cannot
    guarantee the generator sign structure for them. ``b`` is a callable
    of the point returning a length-d drift vector, or a constant vector.
    ``ellipticity`` optionally declares (lo, hi) bounds validated against
    samples of ``a`` on the grid.
    """

    dimension: int
    domain_box: tuple
    mesh_h: float
    a: object = 1.0
    b: object = None
    k: float = 0.0
    alpha: float = 1.0
    kappa: float = 1.0
    epsilon: float = 0.0
    jump_cutoff_radius: float | None = None
    ellipticity: tuple | None = None

    def __post_init__(self):
        if isinstance(self.dimension, (bool, float)) or self.dimension not in (1, 2):
            raise ValueError(f"dimension must be the integer 1 or 2, got {self.dimension!r}")
        box = tuple((float(lo), float(hi)) for lo, hi in self.domain_box)
        if len(box) != self.dimension:
            raise ValueError("domain_box must list one (lo, hi) pair per axis")
        for lo, hi in box:
            if not -math.inf < lo < hi < math.inf:
                raise ValueError("each box edge needs finite lo < hi")
        object.__setattr__(self, "domain_box", box)
        if not self.mesh_h > 0:
            raise ValueError("mesh_h must be positive")
        if not 0.0 < self.alpha < 2.0:
            raise ValueError("alpha must lie in (0, 2)")
        if not (0 <= self.kappa < math.inf and 0 <= self.epsilon < math.inf):
            raise ValueError("kappa and epsilon must be finite and nonnegative")
        if self.kappa == 0 and self.epsilon == 0:
            raise ValueError("kappa and epsilon must not both vanish")
        if not math.isfinite(self.k):
            raise ValueError("drift strength k must be finite")
        if self.jump_cutoff_radius is not None and not self.jump_cutoff_radius > 0:
            raise ValueError("jump_cutoff_radius must be positive")
        # constant coefficients are checked here; fields are checked at assembly
        if not callable(self.a):
            _diffusion_values(self, None)
        if not callable(self.b):
            _drift_values(self, None)

    @property
    def diameter(self) -> float:
        return math.sqrt(sum((hi - lo) ** 2 for lo, hi in self.domain_box))

    @property
    def cutoff(self) -> float:
        return (
            self.jump_cutoff_radius
            if self.jump_cutoff_radius is not None
            else 2.0 * self.diameter
        )


def _axis_points(lo: float, hi: float, h: float) -> np.ndarray:
    cells = (hi - lo) / h
    n = int(round(cells))
    if abs(cells - n) > 1e-9 * max(1.0, abs(cells)) or n < 2:
        raise ValueError("mesh_h must divide each box edge into at least two cells")
    return lo + h * np.arange(1, n)


def grid_points(spec: GridModelSpec) -> np.ndarray:
    """Interior grid points, shape (n, dimension), row-major in 2D."""
    axes = [_axis_points(lo, hi, spec.mesh_h) for lo, hi in spec.domain_box]
    if spec.dimension == 1:
        return axes[0][:, None]
    gx, gy = np.meshgrid(axes[0], axes[1], indexing="ij")
    return np.column_stack([gx.ravel(), gy.ravel()])


def _diffusion_values(spec: GridModelSpec, point) -> np.ndarray:
    """Per-axis diffusion coefficients at a point."""
    a = spec.a
    if callable(a):
        val = a(*point) if spec.dimension == 2 else a(float(point[0]))
    else:
        val = a
    arr = np.atleast_1d(np.asarray(val, dtype=float))
    if arr.size == 1:
        arr = np.full(spec.dimension, float(arr[0]))
    if arr.size != spec.dimension:
        raise ValueError("coefficient field must be scalar or one value per axis")
    if not np.all(arr > 0):
        raise ValueError("diffusion coefficient must be positive")
    return arr


def _drift_values(spec: GridModelSpec, point) -> np.ndarray:
    b = spec.b
    if b is None:
        return np.zeros(spec.dimension)
    if callable(b):
        val = b(*point) if spec.dimension == 2 else b(float(point[0]))
    else:
        val = b
    arr = np.atleast_1d(np.asarray(val, dtype=float))
    if arr.size != spec.dimension:
        raise ValueError("drift field must return one component per axis")
    if not np.all(np.isfinite(arr)):
        raise ValueError("drift field must be finite")
    return arr


def _check_ellipticity(spec: GridModelSpec, pts: np.ndarray) -> None:
    if spec.ellipticity is None:
        return
    lo, hi = spec.ellipticity
    for p in pts:
        vals = _diffusion_values(spec, p)
        if vals.min() < lo - STRUCTURAL_TOL or vals.max() > hi + STRUCTURAL_TOL:
            raise ValueError(
                f"coefficient at {tuple(p.tolist())} leaves the declared ellipticity "
                f"range [{lo:g}, {hi:g}]"
            )


def _face_values(spec: GridModelSpec, axes, axis: int) -> np.ndarray:
    """Coefficient of a along ``axis`` on every face normal to that axis.

    The result has the lattice shape with one more entry along ``axis``:
    face i lies half a cell below point i, the last one half a cell above
    the last point. A callable a is called once per face.
    """
    h = spec.mesh_h
    coords = list(axes)
    coords[axis] = np.append(axes[axis] - h / 2, axes[axis][-1] + h / 2)
    faces = np.stack(np.meshgrid(*coords, indexing="ij"), axis=-1)
    if not callable(spec.a):
        return np.full(faces.shape[:-1], _diffusion_values(spec, None)[axis])
    vals = [_diffusion_values(spec, f)[axis] for f in faces.reshape(-1, spec.dimension)]
    return np.reshape(vals, faces.shape[:-1])


def _jump_table(spec: GridModelSpec, shape):
    """(rates, nn_fix, total) of the jump kernel on a lattice of ``shape``
    (n0, n1), with n1 = 1 on a 1D grid.

    ``rates[|d0|, |d1|]`` is the midpoint-rule rate of the cell at lattice
    offset (d0, d1), zero at the origin and beyond the cutoff radius, for
    every offset smaller than the grid and every nearest-neighbour offset.
    ``nn_fix`` is the singular cell's second moment spread over the nearest
    neighbours, and ``total`` is each row's off-diagonal mass: the whole
    cutoff disc, the nearest-neighbour fix and the analytic tail beyond the
    cutoff.
    """
    d, h, alpha = spec.dimension, spec.mesh_h, spec.alpha
    c = fractional_kernel_constant(d, alpha)
    r_cut = spec.cutoff
    m = int(math.ceil(r_cut / h))
    reach = (m, m if d == 2 else 0)
    dist = h * np.hypot(*np.indices([max(r + 1, k) for r, k in zip(reach, shape)]))
    dist[0, 0] = np.inf  # the singular cell has no lattice rate
    rates = np.where(dist <= r_cut, c * dist ** (-(d + alpha)) * h**d, 0.0)
    # every offset of the cutoff disc, in row-major order over its square
    abs0, abs1 = (np.abs(np.arange(-r, r + 1)) for r in reach)
    disc = rates[abs0[:, None], abs1[None, :]].ravel()
    if d == 1:
        second_moment = 2 * c * (h / 2) ** (2 - alpha) / (2 - alpha)
        tail = 2 * c * r_cut ** (-alpha) / alpha
    else:  # per-axis second moment of the singular cell, midpoint subgrid
        sub = 64
        zc = (np.arange(sub) + 0.5) / sub * h - h / 2
        zx, zy = np.meshgrid(zc, zc, indexing="ij")
        rr = np.hypot(zx, zy)
        second_moment = float(np.sum(zx**2 * c * rr ** (-(2 + alpha))) * (h / sub) ** 2)
        tail = 2 * math.pi * c * r_cut ** (-alpha) / alpha
    nn_fix = (second_moment / 2) / h**2
    total = disc[disc > 0].sum() + tail + 2 * d * nn_fix
    return rates, nn_fix, total


# Rows of the jump block gathered at a time: two 16 x m index buffers.
_GATHER_ROWS = 16


class _Grid(NamedTuple):
    """One assembly of the grid jump diffusion, by ``_assemble``."""

    pts: np.ndarray  # every interior point, shape (n, dimension)
    mu: np.ndarray  # the cell volume h^d at every point
    q: np.ndarray  # the generator's block on the states assembled, read-only
    diag: np.ndarray  # q_xx at every point
    near: np.ndarray  # (d, 2, n0, n1): q[x, x - e_axis] and q[x, x + e_axis], 0 off the grid


def _assemble(spec: GridModelSpec, states=None) -> _Grid:
    """The grid jump diffusion's generator on ``states`` (sorted distinct
    flat indices; every interior point when None), and what the checks of
    the whole grid read, each of size O(n).

    Cells are numbered row-major on the lattice shape (n0, n1), with n1 = 1
    on a 1D grid. The rate of a step to a nearest neighbour adds up, in this
    order, the diffusion rate of the face between them, the upwind drift
    rate, the jump rate at that offset and the nearest-neighbour fix; any
    other pair holds its jump rate alone. The diagonal takes off every rate
    of the point, steps off the grid or off ``states`` included, in the
    order diffusion (axis 0 then 1, lower face then upper), drift (axis 0
    then 1), jump, and is written last. Only the |states| x |states| block
    is made, and it equals the block of the whole generator on those states
    bit for bit: the whole chain is the case ``states=None``.
    """
    d, h = spec.dimension, spec.mesh_h
    axes = [_axis_points(lo, hi, h) for lo, hi in spec.domain_box]
    shape = tuple(ax.size for ax in axes) + (1,) * (2 - d)
    pts = grid_points(spec)
    n = pts.shape[0]
    near = np.zeros((d, 2) + shape)
    steps = near.reshape(d, 2, n)  # the same rates, by flat index
    diag = np.zeros(n)

    if spec.kappa > 0:
        for axis in range(d):
            face = spec.kappa * _face_values(spec, axes, axis) / h**2
            for side, faces in enumerate((slice(None, -1), slice(1, None))):
                rate = face[(slice(None),) * axis + (faces,)].ravel()
                steps[axis, side] += rate
                diag -= rate

    if spec.k != 0.0 and spec.b is not None:
        vel = -spec.k * np.array([_drift_values(spec, p) for p in pts])
        for axis in range(d):
            rate = np.abs(vel[:, axis]) / h
            steps[axis, 0] += np.where(vel[:, axis] < 0, rate, 0.0)
            steps[axis, 1] += np.where(vel[:, axis] > 0, rate, 0.0)
            diag -= rate

    if spec.epsilon > 0:
        rates, nn_fix, total = _jump_table(spec, shape)
        rates = spec.epsilon * rates
        for axis in range(d):
            steps[axis] += rates[(1, 0) if axis == 0 else (0, 1)]
            steps[axis] += spec.epsilon * nn_fix
        diag -= spec.epsilon * total

    for axis in range(d):  # a step off the grid went to the diagonal alone
        near[(axis, 0) + (slice(None),) * axis + (0,)] = 0.0
        near[(axis, 1) + (slice(None),) * axis + (-1,)] = 0.0

    states = np.arange(n) if states is None else np.asarray(states)
    m = states.size
    coord = np.indices(shape).reshape(2, n)[:, states]
    q = np.zeros((m, m))
    if spec.epsilon > 0:  # the jump rate of every pair, a slab of rows at a time
        flat = rates.ravel()
        for lo in range(0, m, _GATHER_ROWS):
            rows = slice(lo, lo + _GATHER_ROWS)
            at = np.subtract(coord[0, rows, None], coord[0])
            np.abs(at, out=at)
            at *= rates.shape[1]
            off1 = np.subtract(coord[1, rows, None], coord[1])
            at += np.abs(off1, out=off1)
            # every offset lies in the table; "clip" writes out unbuffered
            np.take(flat, at, out=q[rows], mode="clip")
    local = np.full(n, -1)
    local[states] = np.arange(m)
    for axis in range(d):
        stride = math.prod(shape[axis + 1 :])
        for side, step in enumerate((-1, 1)):
            target = coord[axis] + step
            rows = np.flatnonzero((target >= 0) & (target < shape[axis]))
            cols = local[states[rows] + step * stride]
            rows, cols = rows[cols >= 0], cols[cols >= 0]
            q[rows, cols] = steps[axis, side, states[rows]]
    q.flat[:: m + 1] = diag[states]
    q.setflags(write=False)  # handed to Generator, which adopts it uncopied
    return _Grid(pts, np.full(n, h**d), q, diag, near)


def discretize_jump_diffusion(spec: GridModelSpec) -> Chain:
    """Sub-Markov chain of the jump diffusion on interior grid points.

    The measure is the cell volume h^d per point. Upwind differencing keeps
    every off-diagonal rate nonnegative at any drift strength; the sign
    structure is checked once, by ``Generator``.
    """
    grid, generator, measure = _grid_part(spec, None)
    return Chain(generator, measure, _point_labels(grid.pts))


def _grid_part(spec: GridModelSpec, states) -> tuple[_Grid, Generator, Measure]:
    """The grid jump diffusion assembled on ``states`` (every point when
    None) by ``_assemble``, with the generator and measure of its block,
    checked as the whole chain is but with no n x n array: ellipticity over
    the whole grid, finite rates by the whole grid's diagonal (it sums every
    rate of its point, and none is negative), the block's signs and exit
    rates by ``Generator``, and the measure."""
    grid = _assemble(spec, states)
    _check_ellipticity(spec, grid.pts)
    if not np.isfinite(grid.diag).all():
        raise ValueError("generator rates must be finite")
    return grid, Generator(grid.q), Measure(grid.mu)


def _check_grid_part(grid: _Grid) -> None:
    """``_check_family_part`` of a part from ``_grid_part``, without its
    chain: detailed balance, weighed as ``Chain.reversible`` weighs it, on
    the pairs of nearest neighbours over the whole grid. Under the constant
    measure h^d every other pair holds one jump rate both ways, and its
    rates are finite once ``_grid_part`` has passed, so the verdict is the
    whole chain's."""
    mu = grid.mu.reshape(grid.near.shape[2:])
    for axis, (down, up) in enumerate(grid.near):
        below = (slice(None),) * axis + (slice(None, -1),)
        above = (slice(None),) * axis + (slice(1, None),)
        # mu_x q[x, x + e] against q[x + e, x] mu_{x + e}
        if not _balanced(mu[below] * up[below], down[above] * mu[above]).all():
            raise ValueError("both parts must be reversible")


def _point_labels(pts: np.ndarray) -> tuple[str, ...]:
    """"(x,y,...)" per row of pts, each coordinate as f"{v:.10g}" writes it,
    formatted by one % over all the rows."""
    row = "(" + ",".join(["%.10g"] * pts.shape[1]) + ")\n"
    return tuple((row * pts.shape[0] % tuple(pts.ravel().tolist())).split("\n")[:-1])


# ---------------------------------------------------------------------------
# config-driven dispatch


BUILDERS = {
    "complete_graph": lambda params: complete_graph(**params),
    "birth_death": lambda params: birth_death(**params),
    "weighted_graph": lambda params: weighted_graph(**params),
    "cycle_flow": lambda params: _ring(**params),
    "grid_jump_diffusion": lambda params: discretize_jump_diffusion(GridModelSpec(**params)),
}


def build_chain(config: dict) -> Chain:
    """Build a chain from {"builder": name, "params": {...}}."""
    name = config.get("builder")
    if name not in BUILDERS:
        known = ", ".join(sorted(BUILDERS))
        raise ValueError(f"unknown builder {name!r} (known: {known})")
    return BUILDERS[name](dict(config.get("params", {})))
