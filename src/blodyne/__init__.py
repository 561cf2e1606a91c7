"""Balanced heterodyne detection of two-mode squeezed light.

Closed-form difference-signal variances for single-tone and two-tone local
oscillators (with image-band case analysis and amplitude-imbalance
corrections), an independent Fock-space oracle, and synthetic photocurrent
spectra showing where the squeezing information sits in frequency.
"""

from .detection import (FrequencyPlan, ImageBandCase, LoTone, VarianceReport,
                        blo_variance, blo_variance_general,
                        blo_variance_unbalanced, classify_image_band_case,
                        lo_quantization_correction, phase_scan,
                        standard_heterodyne_variance)
from .fock import (BeatPairing, FockStateVector, TruncationPolicy,
                   build_coherent_product, build_tmss,
                   oracle_difference_variance)
from .gaussian import (BeamSplitterSpec, GaussianState, ModeLabel,
                       SqueezeParams, apply_beam_splitter, apply_displacement,
                       apply_two_mode_squeeze, mean_photon, quadrature_variance,
                       vacuum_state)
from .timeseries import (PhotocurrentRecord, SpectralModel, SpectrumEstimate,
                         SynthesizedRecord, estimate_psd, locate_squeezing_feature,
                         synthesize_difference_current)

__version__ = "0.1.0"

__all__ = [
    "BeamSplitterSpec", "BeatPairing", "FockStateVector", "FrequencyPlan",
    "GaussianState", "ImageBandCase", "LoTone", "ModeLabel",
    "PhotocurrentRecord", "SpectralModel", "SpectrumEstimate", "SqueezeParams",
    "SynthesizedRecord", "TruncationPolicy", "VarianceReport", "apply_beam_splitter",
    "apply_displacement", "apply_two_mode_squeeze", "blo_variance",
    "blo_variance_general", "blo_variance_unbalanced",
    "build_coherent_product", "build_tmss", "classify_image_band_case",
    "estimate_psd", "lo_quantization_correction", "locate_squeezing_feature",
    "mean_photon", "oracle_difference_variance", "phase_scan",
    "quadrature_variance", "standard_heterodyne_variance",
    "synthesize_difference_current", "vacuum_state",
]
