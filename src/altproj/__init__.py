"""Cyclic products of orthogonal projections: geometry, rates, diagnostics.

The package computes the angle quantities of a family of subspaces
(Friedrichs number, l2-inclinations), runs the alternating-projection
iteration with certified exponential error bounds, checks the spectral
side (numerical range containment, Ritt-type power and resolvent
diagnostics, unconditional convergence of the defect series), applies
fractional powers (I - T)^alpha to characterize polynomial decay classes,
and constructs block-aligned models with prescribed slow convergence.

Everything randomized takes an explicit seed.  ``altproj.acceptance``
bundles the end-to-end battery behind the ``altproj suite`` command.
"""

from .errors import CapacityError, NumericalContractError, ParseError
from .fracpow import (
    AlphaVector,
    decay_slope,
    frac_power_apply,
    make_alpha_vector,
    partial_sum_characterization,
)
from .geometry import (
    GeometryReport,
    ell2,
    ell2_direct,
    friedrichs_number,
    friedrichs_number_sampled,
    geometry_report,
    iota2,
    minimax_inclination_estimate,
    rate_base,
    sandwich_check,
)
from .iteration import (
    CyclicProduct,
    IterationTrace,
    UnconditionalReport,
    build_cyclic,
    iota2_rate_bound,
    iterate,
    operator_error_norm,
    rate_bound,
    sweep_diagnostic,
    unconditional_sum_test,
)
from .models import (
    BlockAlignedModel,
    Instance,
    InstanceSpec,
    block_aligned,
    convex_combination,
    random_instance,
    slow_vector,
    two_lines,
)
from .spectral import (
    ContainmentReport,
    NumericalRangeBoundary,
    OmegaRegion,
    containment_check,
    numrange_boundary,
    omega_contains,
    resolvent_diagnostic,
    ritt_power_diagnostic,
    stolz_contains,
    stolz_margin,
    theta0,
    theta_recursion,
)
from .subspace import (
    Subspace,
    complement_within,
    intersection,
    orthonormalize,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "AlphaVector",
    "BlockAlignedModel",
    "CapacityError",
    "ContainmentReport",
    "CyclicProduct",
    "GeometryReport",
    "Instance",
    "InstanceSpec",
    "IterationTrace",
    "NumericalContractError",
    "NumericalRangeBoundary",
    "OmegaRegion",
    "ParseError",
    "Subspace",
    "UnconditionalReport",
    "block_aligned",
    "build_cyclic",
    "complement_within",
    "containment_check",
    "convex_combination",
    "decay_slope",
    "ell2",
    "ell2_direct",
    "frac_power_apply",
    "friedrichs_number",
    "friedrichs_number_sampled",
    "geometry_report",
    "intersection",
    "iota2",
    "iota2_rate_bound",
    "iterate",
    "make_alpha_vector",
    "minimax_inclination_estimate",
    "numrange_boundary",
    "omega_contains",
    "operator_error_norm",
    "orthonormalize",
    "partial_sum_characterization",
    "random_instance",
    "rate_base",
    "rate_bound",
    "resolvent_diagnostic",
    "ritt_power_diagnostic",
    "sandwich_check",
    "slow_vector",
    "stolz_contains",
    "stolz_margin",
    "sweep_diagnostic",
    "theta0",
    "theta_recursion",
    "two_lines",
    "unconditional_sum_test",
]
