"""The package's public names."""

import ffrestrict

# every public name: adding or removing one is a deliberate change
_PUBLIC_API = [
    "PrimeField", "VectorSpace", "is_prime",
    "GridFunction", "FFMeasure", "fourier_forward", "fourier_inverse",
    "dft_reference", "convolve", "parseval", "lp_average_norm",
    "multiply_density", "lq_norm", "lq_mu_norm", "random_function",
    "PointSet", "SetDescriptor", "sphere", "product", "hamming_variety",
    "sidon_parabola", "is_sidon", "cutoff_cylinder",
    "embed", "surface_measure", "random_set", "full_space",
    "SpectralProfile", "SalemFit", "profile", "fit_salem_exponent",
    "hamming_exact_transform", "hamming_decay_constant",
    "check_universal_salem",
    "ThresholdReport", "ExtensionNormEstimate", "GrowthSweep",
    "PowerIterConfig", "mocktao_threshold", "main_threshold",
    "salem_threshold", "improvement_condition", "optimize_p",
    "interpolation_params", "extension_apply", "witness_ratio",
    "extension_norm_lower_bound", "growth_sweep",
    "Pieces", "families",
]


def test_public_api_is_pinned():
    assert ffrestrict.__all__ == _PUBLIC_API
    for name in ffrestrict.__all__:
        assert hasattr(ffrestrict, name), name
