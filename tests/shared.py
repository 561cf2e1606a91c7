"""Helpers that more than one test module uses: the tone constructor, the
carrier of the test modes, and the closed form the Fock oracle is held to.

pytest puts this directory on ``sys.path`` when it imports a test module
from it, so the test modules import this one as ``shared``.
"""

from blodyne import detection
from blodyne.detection import LoTone

# angular frequency (rad/s) near which the tests place their optical modes
CARRIER = 2.0e15


def tone(amplitude, phase):
    return LoTone(amplitude=amplitude, phase=phase)


def analytic_blo(p, beta, chi1, chi2, case, include_lo_term=True):
    """The matched two-tone variance at |beta| and phases chi1, chi2, plus the
    LO quantization term that the oracle's quantized tones add, unless
    ``include_lo_term`` is false."""
    variance = detection.blo_variance(p, tone(beta, chi1), tone(beta, chi2), case).variance
    return variance + (detection.lo_quantization_correction(p, 2) if include_lo_term else 0.0)
