"""Exit-time functionals of finite-state Markov generators.

Exact restricted Poisson solves, inf-sup variational identities with
constructed optimizers, Dirichlet-eigenvalue and Poincare-type bounds,
grid discretizations of jump diffusions, and Monte Carlo cross-checks.
On a finite state space every "quasi-everywhere" statement of the
continuum theory is a pointwise statement; no exceptional sets occur.
"""

__version__ = "0.1.0"

from ._linalg import SingularSystemError
from .forms import (
    Chain,
    Generator,
    Measure,
    ValidationReport,
    dual_generator,
    eval_form,
    validate_assumption_a,
)
from .models import (
    FlowMatrix,
    GridModelSpec,
    antisym_perturb,
    birth_death,
    build_chain,
    complete_graph,
    cycle_flow,
    discretize_jump_diffusion,
    flow_from_cycles,
    grid_points,
    scaled_family,
    weighted_graph,
)
from .montecarlo import McConfig, McEstimate, estimate_exit_functionals, simulate_exit_times
from .poisson import (
    DomainMask,
    ExitFunctionals,
    NonReversibleError,
    RecurrentRestrictionError,
    exit_exp_moment,
    exit_functionals,
    exit_laplace,
    exit_mean,
    solve_poisson,
)
from .spectral import (
    BoundEntry,
    BoundLedger,
    bounds_report,
    dirichlet_pair,
    lyapunov_delta,
    spectral_gap,
)
from .variational import (
    DegenerateSourceError,
    SaddleSolution,
    construct_optimizers,
    exp_moment_inf,
    saddle_value,
    symmetric_inf,
)

__all__ = [
    "__version__",
    "Chain",
    "Generator",
    "Measure",
    "ValidationReport",
    "dual_generator",
    "eval_form",
    "validate_assumption_a",
    "DomainMask",
    "ExitFunctionals",
    "solve_poisson",
    "exit_laplace",
    "exit_mean",
    "exit_exp_moment",
    "exit_functionals",
    "SingularSystemError",
    "RecurrentRestrictionError",
    "NonReversibleError",
    "DegenerateSourceError",
    "SaddleSolution",
    "construct_optimizers",
    "saddle_value",
    "symmetric_inf",
    "exp_moment_inf",
    "BoundEntry",
    "BoundLedger",
    "dirichlet_pair",
    "spectral_gap",
    "lyapunov_delta",
    "bounds_report",
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
    "McConfig",
    "McEstimate",
    "simulate_exit_times",
    "estimate_exit_functionals",
]
