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

import numpy as np
from scipy.linalg import toeplitz

from .defaults import STRUCTURAL_TOL
from .forms import Chain, Generator, Measure, _as_vector, _freeze

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
    return Chain(Generator(q), Measure.probability(np.ones(n)))


def birth_death(up, down, measure=None) -> Chain:
    """Nearest-neighbour chain from up rates (i -> i+1) and down rates (i+1 -> i).

    Without an explicit measure the detailed-balance weights are built from
    the rate ratios and normalized, so the chain is reversible by
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
    for i in range(n - 1):
        q[i, i + 1] = up[i]
        q[i + 1, i] = down[i]
    np.fill_diagonal(q, -q.sum(axis=1))
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
    if np.abs(c - c.T).max() > STRUCTURAL_TOL * max(1.0, np.abs(c).max()):
        raise ValueError("conductances must be symmetric")
    if c.min() < 0:
        raise ValueError("conductances must be nonnegative")
    meas = measure if isinstance(measure, Measure) else Measure(_as_vector(measure, c.shape[0]))
    q = c / meas.weights[:, None]
    np.fill_diagonal(q, 0.0)
    np.fill_diagonal(q, -q.sum(axis=1))
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
        scale = max(1.0, np.abs(g).max())
        if np.abs(np.diag(g)).max() > STRUCTURAL_TOL * scale:
            raise ValueError("flow matrix must have zero diagonal")
        if np.abs(g.sum(axis=1)).max() > STRUCTURAL_TOL * scale:
            raise ValueError("flow matrix must have zero row sums")
        object.__setattr__(self, "gamma", _freeze(g))

    def is_antisymmetric_for(self, measure: Measure, tol: float = STRUCTURAL_TOL) -> bool:
        mg = measure.weights[:, None] * self.gamma
        scale = max(1.0, np.abs(mg).max())
        return bool(np.abs(mg + mg.T).max() <= tol * scale)


def flow_from_cycles(cycles, measure: Measure, weights=None) -> FlowMatrix:
    """Sum of oriented-cycle flows, mu-antisymmetric by construction.

    Each cycle is a state sequence (v0, v1, ..., v_{m-1}) traversed
    v0 -> v1 -> ... -> v0; the increment along an edge is weight / mu at
    the departing state, the reverse edge gets the negative. Square
    plaquettes on a grid are 4-cycles of flat indices.
    """
    n = len(measure)
    mg = np.zeros((n, n))
    if weights is None:
        weights = [1.0] * len(cycles)
    for cyc, w in zip(cycles, weights):
        cyc = [int(v) for v in cyc]
        if len(cyc) < 3:
            raise ValueError("a flow cycle needs at least three states")
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
    if n < 3:
        raise ValueError("cycle needs at least three states")
    if rate <= 0:
        raise ValueError("rate must be positive")
    q = np.zeros((n, n))
    for i in range(n):
        q[i, (i + 1) % n] += rate
        q[i, (i - 1) % n] += rate
    np.fill_diagonal(q, -q.sum(axis=1))
    meas = Measure(np.ones(n))
    chain = Chain(Generator(q), meas)
    return chain, flow_from_cycles([list(range(n))], meas)


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
    off_q = base.q.copy()
    np.fill_diagonal(off_q, np.inf)
    g = np.abs(flow.gamma)
    active = g > STRUCTURAL_TOL
    k_max = float(np.min(off_q[active] / g[active])) if active.any() else float("inf")
    if abs(k) > k_max + STRUCTURAL_TOL:
        raise ValueError(
            f"flow strength |k|={abs(k):g} exceeds k_max={k_max:g} "
            "(off-diagonal rate would turn negative)"
        )
    q = base.q + k * flow.gamma
    # at |k| = k_max an off-diagonal hits zero; clear rounding dust
    off_mask = ~np.eye(base.n_states, dtype=bool)
    tiny = off_mask & (q > -STRUCTURAL_TOL) & (q < 0)
    q[tiny] = 0.0
    return Chain(Generator(q), base.measure, base.labels)


def scaled_family(diff_part: Chain, jump_part: Chain, kappa: float, epsilon: float) -> Chain:
    """Chain with generator kappa*Q_diff + epsilon*Q_jump on shared states."""
    if kappa < 0 or epsilon < 0 or (kappa == 0 and epsilon == 0):
        raise ValueError("scales must be nonnegative and not both zero")
    if diff_part.n_states != jump_part.n_states:
        raise ValueError("parts must share the state space")
    if np.abs(diff_part.mu - jump_part.mu).max() > STRUCTURAL_TOL * max(1.0, diff_part.mu.max()):
        raise ValueError("parts must share the measure")
    if not (diff_part.reversible and jump_part.reversible):
        raise ValueError("both parts must be reversible")
    q = kappa * diff_part.q + epsilon * jump_part.q
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
        if self.dimension not in (1, 2):
            raise ValueError("dimension must be 1 or 2")
        box = tuple((float(lo), float(hi)) for lo, hi in self.domain_box)
        if len(box) != self.dimension:
            raise ValueError("domain_box must list one (lo, hi) pair per axis")
        for lo, hi in box:
            if not hi > lo:
                raise ValueError("each box edge needs hi > lo")
        object.__setattr__(self, "domain_box", box)
        if self.mesh_h <= 0:
            raise ValueError("mesh_h must be positive")
        if not 0.0 < self.alpha < 2.0:
            raise ValueError("alpha must lie in (0, 2)")
        if self.kappa < 0 or self.epsilon < 0:
            raise ValueError("kappa and epsilon must be nonnegative")
        if self.kappa == 0 and self.epsilon == 0:
            raise ValueError("kappa and epsilon must not both vanish")
        if self.jump_cutoff_radius is not None and self.jump_cutoff_radius <= 0:
            raise ValueError("jump_cutoff_radius must be positive")

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
    if np.any(arr <= 0):
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
    return arr


def _check_ellipticity(spec: GridModelSpec, pts: np.ndarray) -> None:
    if spec.ellipticity is None:
        return
    lo, hi = spec.ellipticity
    for p in pts:
        vals = _diffusion_values(spec, p)
        if vals.min() < lo - STRUCTURAL_TOL or vals.max() > hi + STRUCTURAL_TOL:
            raise ValueError(
                f"coefficient at {tuple(p)} leaves the declared ellipticity "
                f"range [{lo:g}, {hi:g}]"
            )


def _jump_weights_1d(spec: GridModelSpec):
    """(per-offset rates, nearest-neighbour fix, tail mass) for one axis."""
    h, alpha = spec.mesh_h, spec.alpha
    c = fractional_kernel_constant(1, alpha)
    r_cut = spec.cutoff
    m_max = int(math.ceil(r_cut / h))
    m = np.arange(1, m_max + 1)
    rates = c * (m * h) ** (-(1 + alpha)) * h
    second_moment = 2 * c * (h / 2) ** (2 - alpha) / (2 - alpha)
    nn_fix = (second_moment / 2) / h**2
    tail = 2 * c * r_cut ** (-alpha) / alpha
    return rates, nn_fix, tail


def _assemble_1d(spec: GridModelSpec):
    (lo, hi) = spec.domain_box[0]
    h = spec.mesh_h
    xs = _axis_points(lo, hi, h)
    n = xs.size
    q = np.zeros((n, n))

    if spec.kappa > 0:
        faces = np.concatenate([xs - h / 2, [xs[-1] + h / 2]])
        if callable(spec.a):
            a_face = np.array([_diffusion_values(spec, (f,))[0] for f in faces])
        else:
            a_face = np.full(n + 1, float(np.atleast_1d(spec.a)[0]))
        for i in range(n):
            left, right = a_face[i] / h**2, a_face[i + 1] / h**2
            if i > 0:
                q[i, i - 1] += spec.kappa * left
            if i < n - 1:
                q[i, i + 1] += spec.kappa * right
            q[i, i] -= spec.kappa * (left + right)

    if spec.k != 0.0 and spec.b is not None:
        for i in range(n):
            v = -spec.k * _drift_values(spec, (xs[i],))[0]
            if v == 0.0:
                continue
            rate = abs(v) / h
            j = i + 1 if v > 0 else i - 1
            if 0 <= j < n:
                q[i, j] += rate
            q[i, i] -= rate

    if spec.epsilon > 0:
        rates, nn_fix, tail = _jump_weights_1d(spec)
        col = np.zeros(n)
        reach = min(rates.size, n - 1)
        col[1 : reach + 1] = rates[:reach]
        jump = toeplitz(col)
        idx = np.arange(n - 1)
        jump[idx, idx + 1] += nn_fix
        jump[idx + 1, idx] += nn_fix
        total_off_mass = 2 * rates.sum() + tail + 2 * nn_fix
        np.fill_diagonal(jump, -total_off_mass)
        q += spec.epsilon * jump

    return xs[:, None], q


def _jump_offsets_2d(spec: GridModelSpec):
    h, alpha = spec.mesh_h, spec.alpha
    c = fractional_kernel_constant(2, alpha)
    r_cut = spec.cutoff
    m_max = int(math.ceil(r_cut / h))
    rng = np.arange(-m_max, m_max + 1)
    mx, my = np.meshgrid(rng, rng, indexing="ij")
    keep = (mx != 0) | (my != 0)
    mx, my = mx[keep], my[keep]
    dist = h * np.hypot(mx, my)
    inside_cut = dist <= r_cut
    mx, my, dist = mx[inside_cut], my[inside_cut], dist[inside_cut]
    rates = c * dist ** (-(2 + alpha)) * h**2
    # per-axis second moment of the singular cell, midpoint subgrid
    sub = 64
    zc = (np.arange(sub) + 0.5) / sub * h - h / 2
    zx, zy = np.meshgrid(zc, zc, indexing="ij")
    rr = np.hypot(zx, zy)
    second_moment = float(np.sum(zx**2 * c * rr ** (-(2 + alpha))) * (h / sub) ** 2)
    nn_fix = (second_moment / 2) / h**2
    tail = 2 * math.pi * c * r_cut ** (-alpha) / alpha
    return mx, my, rates, nn_fix, tail


def _assemble_2d(spec: GridModelSpec):
    h = spec.mesh_h
    ax_x = _axis_points(*spec.domain_box[0], h)
    ax_y = _axis_points(*spec.domain_box[1], h)
    nx, ny = ax_x.size, ax_y.size
    n = nx * ny
    pts = grid_points(spec)
    q = np.zeros((n, n))

    def flat(ix, iy):
        return ix * ny + iy

    if spec.kappa > 0:
        for ix in range(nx):
            for iy in range(ny):
                i = flat(ix, iy)
                x, y = ax_x[ix], ax_y[iy]
                for axis in range(2):
                    for direction in (-1, +1):
                        if axis == 0:
                            face = (x + direction * h / 2, y)
                            jx, jy = ix + direction, iy
                        else:
                            face = (x, y + direction * h / 2)
                            jx, jy = ix, iy + direction
                        where = face if callable(spec.a) else (x, y)
                        rate = spec.kappa * _diffusion_values(spec, where)[axis] / h**2
                        if 0 <= jx < nx and 0 <= jy < ny:
                            q[i, flat(jx, jy)] += rate
                        q[i, i] -= rate

    if spec.k != 0.0 and spec.b is not None:
        for ix in range(nx):
            for iy in range(ny):
                i = flat(ix, iy)
                vel = -spec.k * _drift_values(spec, (ax_x[ix], ax_y[iy]))
                for axis in range(2):
                    v = vel[axis]
                    if v == 0.0:
                        continue
                    rate = abs(v) / h
                    jx, jy = ix, iy
                    if axis == 0:
                        jx += 1 if v > 0 else -1
                    else:
                        jy += 1 if v > 0 else -1
                    if 0 <= jx < nx and 0 <= jy < ny:
                        q[i, flat(jx, jy)] += rate
                    q[i, i] -= rate

    if spec.epsilon > 0:
        mx, my, rates, nn_fix, tail = _jump_offsets_2d(spec)
        total_off_mass = rates.sum() + tail + 4 * nn_fix
        ix_grid, iy_grid = np.divmod(np.arange(n), ny)
        for dx, dy, rate in zip(mx, my, rates):
            jx, jy = ix_grid + dx, iy_grid + dy
            ok = (jx >= 0) & (jx < nx) & (jy >= 0) & (jy < ny)
            src = np.flatnonzero(ok)
            q[src, jx[ok] * ny + jy[ok]] += spec.epsilon * rate
        for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            jx, jy = ix_grid + dx, iy_grid + dy
            ok = (jx >= 0) & (jx < nx) & (jy >= 0) & (jy < ny)
            src = np.flatnonzero(ok)
            q[src, jx[ok] * ny + jy[ok]] += spec.epsilon * nn_fix
        q[np.arange(n), np.arange(n)] -= spec.epsilon * total_off_mass

    return pts, q


def discretize_jump_diffusion(spec: GridModelSpec) -> Chain:
    """Sub-Markov chain of the jump diffusion on interior grid points.

    The measure is the cell volume h^d per point. Any off-diagonal entry
    turned negative by assembly is a sign-structure failure and is
    rejected with the current drift strength (upwind differencing makes
    this unreachable; the guard protects future stencils).
    """
    pts, q = (_assemble_1d if spec.dimension == 1 else _assemble_2d)(spec)
    _check_ellipticity(spec, pts)
    off = q.copy()
    np.fill_diagonal(off, 0.0)
    if off.min() < -STRUCTURAL_TOL:
        raise ValueError(
            f"drift strength |k|={abs(spec.k):g} breaks the generator sign "
            f"structure (most negative off-diagonal {off.min():.3e})"
        )
    h_d = spec.mesh_h**spec.dimension
    labels = tuple(
        "(" + ",".join(f"{v:.10g}" for v in p) + ")" for p in pts
    )
    return Chain(Generator(q), Measure(np.full(pts.shape[0], h_d)), labels)


# ---------------------------------------------------------------------------
# config-driven dispatch


def _build_grid(params: dict) -> Chain:
    return discretize_jump_diffusion(GridModelSpec(**params))


def _build_cycle_flow(params: dict) -> Chain:
    chain, _flow = cycle_flow(**params)
    return chain


BUILDERS = {
    "complete_graph": lambda params: complete_graph(**params),
    "birth_death": lambda params: birth_death(**params),
    "weighted_graph": lambda params: weighted_graph(
        np.asarray(params["conductances"], dtype=float),
        np.asarray(params["measure"], dtype=float),
    ),
    "cycle_flow": _build_cycle_flow,
    "grid_jump_diffusion": _build_grid,
}


def build_chain(config: dict) -> Chain:
    """Build a chain from {"builder": name, "params": {...}}."""
    name = config.get("builder")
    if name not in BUILDERS:
        known = ", ".join(sorted(BUILDERS))
        raise ValueError(f"unknown builder {name!r} (known: {known})")
    return BUILDERS[name](dict(config.get("params", {})))
