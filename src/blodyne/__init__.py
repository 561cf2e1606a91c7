"""Balanced heterodyne detection of two-mode squeezed light.

Closed-form difference-signal variances for single-tone and two-tone local
oscillators (with image-band case analysis and amplitude-imbalance
corrections), an independent Fock-space oracle, and synthetic photocurrent
spectra showing where the squeezing information sits in frequency.

The package namespace is the closed forms, standard library only. Every
other name is imported from its own module: the oracle (:mod:`blodyne.fock`)
needs only the standard library, and :mod:`blodyne._kernels`,
:mod:`blodyne.gaussian` and :mod:`blodyne.timeseries` load numpy.
"""

from .detection import (FrequencyPlan, ImageBandCase, LoTone, SqueezeParams,
                        VarianceReport, blo_variance, blo_variance_general,
                        blo_variance_unbalanced, classify_image_band_case,
                        lo_quantization_correction, phase_scan,
                        standard_heterodyne_variance)

__version__ = "0.1.0"

__all__ = ["FrequencyPlan", "ImageBandCase", "LoTone", "SqueezeParams", "VarianceReport",
           "blo_variance", "blo_variance_general", "blo_variance_unbalanced",
           "classify_image_band_case", "lo_quantization_correction", "phase_scan",
           "standard_heterodyne_variance"]
