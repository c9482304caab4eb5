"""Exact Fourier analysis over finite vector spaces F_p^d.

The package computes discrete Fourier transforms of functions and
measures on F_p^d, normalized L^p averages of transforms, empirical
(p, s)-Salem exponents of explicit set families, and the q-thresholds
of L^2 -> L^q extension estimates, together with lower-bound witnesses
for the negative direction.
"""

__version__ = "0.1.0"

from .field import VectorSpace, is_prime
from .spectral import (
    GridFunction,
    FFMeasure,
    fourier_forward,
    fourier_inverse,
    dft_reference,
    convolve,
    parseval,
    lp_average_norm,
    multiply_density,
    lq_norm,
    lq_mu_norm,
    random_function,
)
from .ensembles import (
    PointSet,
    SetDescriptor,
    sphere,
    product,
    hamming_variety,
    sidon_parabola,
    is_sidon,
    cutoff_cylinder,
    surface_measure,
    random_set,
    full_space,
)
from .salem import (
    SpectralProfile,
    SalemFit,
    profile,
    fit_salem_exponent,
    hamming_exact_transform,
    check_universal_salem,
)
from .restriction import (
    ThresholdReport,
    ExtensionNormEstimate,
    GrowthSweep,
    PowerIterConfig,
    mocktao_threshold,
    main_threshold,
    salem_threshold,
    improvement_condition,
    optimize_p,
    interpolation_params,
    extension_apply,
    witness_ratio,
    extension_norm_lower_bound,
    growth_sweep,
)
from .rationals import Pieces
from . import families

__all__ = [
    "VectorSpace", "is_prime",
    "GridFunction", "FFMeasure", "fourier_forward", "fourier_inverse",
    "dft_reference", "convolve", "parseval", "lp_average_norm",
    "multiply_density", "lq_norm", "lq_mu_norm", "random_function",
    "PointSet", "SetDescriptor", "sphere", "product", "hamming_variety",
    "sidon_parabola", "is_sidon", "cutoff_cylinder",
    "surface_measure", "random_set", "full_space",
    "SpectralProfile", "SalemFit", "profile", "fit_salem_exponent",
    "hamming_exact_transform", "check_universal_salem",
    "ThresholdReport", "ExtensionNormEstimate", "GrowthSweep",
    "PowerIterConfig", "mocktao_threshold", "main_threshold",
    "salem_threshold", "improvement_condition", "optimize_p",
    "interpolation_params", "extension_apply", "witness_ratio",
    "extension_norm_lower_bound", "growth_sweep",
    "Pieces", "families",
]
