"""Numerics for the Gaussian (heat) kernel semigroup at complex time.

The package evaluates the convolution operator ``G(zeta) f = chi_zeta * f``
on polynomially weighted spaces of sampled vector-valued functions, by two
independent numerical paths, and ships residual checks for every identity the
operator family satisfies: unit kernel mass, the Fourier symbol, the
composition law, strong continuity at zero time, holomorphy in the time
parameter, the Laplacian as generator, the mild-solution identity, and the
pointwise heat equation along trajectories.
"""

from .fields import FIELD_RULES, GaussianMixture, field_rule, random_gaussian_mixture
from .generator import (
    GeneratorResiduals,
    classical_residual,
    difference_quotient_residual,
    discrete_laplacian,
    generator_residuals,
    mild_identity_residual,
    time_integral,
)
from .grid_field import (
    Field,
    Grid,
    interior_slices,
    make_grid,
    read_field_csv,
    sample,
    squared_norm,
    write_field_csv,
)
from .kernel import (
    ComplexTime,
    as_time,
    default_sector_angle,
    fourier_symbol_residual,
    grid_for_time,
    kernel_dzeta,
    kernel_eval,
    kernel_fourier,
    kernel_mass,
    kernel_tail_bound,
    sample_kernel,
)
from .semigroup import (
    Method,
    Trajectory,
    apply,
    apply_dzeta,
    apply_many,
    operator_bound,
    read_trajectory,
    trajectory,
    write_trajectory,
)
from .verify import (
    CHECK_GROUPS,
    CheckResult,
    SuiteConfig,
    VerificationReport,
    continuity_scan,
    contour_residual,
    format_complex,
    holomorphy_residuals,
    parse_complex,
    run_suite,
    semigroup_law_residual,
)
from .weights import (
    SpaceKind,
    SpaceSpec,
    difference_norm,
    weight_eval,
    weight_inequality_check,
    weighted_norm,
)

__version__ = "0.1.0"
