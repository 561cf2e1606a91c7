"""Balanced heterodyne detection of two-mode squeezed light.

Closed-form difference-signal variances for single-tone and two-tone local
oscillators (with image-band case analysis and amplitude-imbalance
corrections), an independent Fock-space oracle, and synthetic photocurrent
spectra showing where the squeezing information sits in frequency.

The closed forms load eagerly and need only the standard library; the
numpy-backed names (oracle, Gaussian states, spectra) import their module
on first access.
"""

import importlib

from .detection import (FrequencyPlan, ImageBandCase, LoTone, SqueezeParams,
                        VarianceReport, blo_variance, blo_variance_general,
                        blo_variance_unbalanced, classify_image_band_case,
                        lo_quantization_correction, phase_scan,
                        standard_heterodyne_variance)

__version__ = "0.1.0"

_LAZY_MODULES = {
    "fock": ("BeatPairing", "FockStateVector", "TruncationPolicy",
             "build_coherent_product", "build_tmss", "oracle_difference_variance"),
    "gaussian": ("BeamSplitterSpec", "GaussianState", "ModeLabel", "apply_beam_splitter",
                 "apply_displacement", "apply_two_mode_squeeze", "mean_photon",
                 "quadrature_variance", "vacuum_state"),
    "timeseries": ("PhotocurrentRecord", "SpectralModel", "SpectrumEstimate",
                   "SynthesizedRecord", "estimate_psd", "locate_squeezing_feature",
                   "synthesize_difference_current"),
}
_LAZY_NAMES = {name: module for module, names in _LAZY_MODULES.items() for name in names}

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


def __getattr__(name):
    if name in _LAZY_MODULES:
        return importlib.import_module(f".{name}", __name__)
    module = _LAZY_NAMES.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY_MODULES) | set(_LAZY_NAMES))
