"""Difference-signal variance formulas for balanced heterodyne detection.

Covers the single-tone scheme, the two-tone scheme with its three image-band
configurations, arbitrary-time evaluation of the two-tone variance before the
time-independence condition is imposed, and the amplitude-imbalance
correction. Variances are dimensionless (units of the squared local
oscillator amplitude), frequencies are rad/s, phases radians.

Every function here is pure; scan points may be evaluated in parallel and
results do not depend on evaluation order. The module needs only the
standard library, so the closed-form CLI subcommands never import numpy;
it also owns ``SqueezeParams``, which every other module imports from here,
and ``_Record``, the slotted base of the standard-library value types.
"""

from __future__ import annotations

import enum
import math
import sys

_set = object.__setattr__


class _Record:
    """Immutable value type with its fields in ``__slots__``.

    A subclass declares ``__slots__`` (the field order) and an explicit
    ``__init__`` that validates its arguments and stores each field once with
    ``object.__setattr__``. From the slots this base gives what
    ``@dataclass(frozen=True)`` gave: assignment and deletion raise
    ``AttributeError``, equality compares field values between records of
    the same class, the hash is that of the field values, the repr is
    ``Name(field=value, ...)`` without the fields named in ``_repr_omit``,
    and copy and pickle rebuild a record by calling its class with the
    stored values in slot order, which every ``__init__`` takes positionally
    and stores unchanged.

    The standard-library modules (this one, ``config`` and ``fock``) use it
    because importing ``dataclasses`` loads ``inspect``, ``ast``, ``dis`` and
    ``tokenize`` (about 8 ms on a 2-vCPU x86 host, Python 3.11) and
    generating each class costs about 1 ms more: about half of the package's
    import time on the closed-form CLI path. The numpy modules
    (``timeseries``, ``gaussian``, ``_kernels``) keep ``@dataclass``; numpy's
    own import (about 150 ms) dwarfs it.
    """

    __slots__ = ()
    _repr_omit = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__
                           if name not in self._repr_omit)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values()


def _reduce_angle(angle: float) -> float:
    """Reduce an angle to [0, 2*pi); an angle already there is returned as is."""
    reduced = math.fmod(angle, 2.0 * math.pi)
    # fmod keeps the sign of a zero remainder, so -0.0 is lifted too
    if reduced <= 0.0:
        reduced += 2.0 * math.pi
        # a zero or tiny negative remainder plus 2 pi rounds to 2 pi itself
        if reduced == 2.0 * math.pi:
            reduced = 0.0
    return reduced


class SqueezeParams(_Record):
    """Degree of squeezing s >= 0 and squeezing angle theta (radians).

    theta is reduced to [0, 2*pi) on construction.
    """

    __slots__ = ("s", "theta")

    def __init__(self, s: float, theta: float = 0.0):
        if not (math.isfinite(s) and s >= 0.0):
            raise ValueError(f"squeeze magnitude s must be finite and >= 0, got {s!r}")
        _set(self, "s", s)
        _set(self, "theta", _reduce_angle(theta))


class ImageBandCase(enum.Enum):
    """Which image-band vacua enter the two-tone difference signal."""

    NO_IMAGE_BANDS = "NoImageBands"
    SHARED_IMAGE_BAND = "SharedImageBand"
    TWO_IMAGE_BANDS = "TwoImageBands"


# Number of unit image-band vacuum beats entering the photon-flux term: each
# image mode contributes one unit per LO tone it beats against.
IMAGE_VACUUM_UNITS = {
    ImageBandCase.NO_IMAGE_BANDS: 0,
    ImageBandCase.SHARED_IMAGE_BAND: 1,
    ImageBandCase.TWO_IMAGE_BANDS: 2,
}


class LoTone(_Record):
    """One local-oscillator tone: real amplitude, phase (radians), rad/s frequency."""

    __slots__ = ("amplitude", "phase", "frequency")

    def __init__(self, amplitude: float, phase: float, frequency: float):
        if not (math.isfinite(amplitude) and amplitude >= 0.0):
            raise ValueError(f"LO amplitude must be finite and >= 0, got {amplitude!r}")
        if not (math.isfinite(frequency) and frequency > 0.0):
            raise ValueError(f"LO frequency must be finite and positive, got {frequency!r}")
        _set(self, "amplitude", amplitude)
        _set(self, "phase", _reduce_angle(phase))
        _set(self, "frequency", frequency)


class FrequencyPlan(_Record):
    """All optical frequencies of a detection run, in rad/s.

    ``lo_frequencies`` holds one tone (single-LO scheme) or two tones, one
    near each signal mode. For two tones the detunings delta1 (from the lower
    signal mode) and delta2 (from the upper one) must stay below half the
    mode splitting; that bound is what makes the reduced variance formulas
    applicable.
    """

    __slots__ = ("omega_plus", "omega_minus", "lo_frequencies")

    def __init__(self, omega_plus: float, omega_minus: float,
                 lo_frequencies: tuple[float, ...]):
        _set(self, "omega_plus", omega_plus)
        _set(self, "omega_minus", omega_minus)
        lo = tuple(float(f) for f in lo_frequencies)
        _set(self, "lo_frequencies", lo)
        if not all(map(math.isfinite, (self.omega_minus, self.omega_plus) + lo)):
            raise ValueError(f"frequencies must be finite, got {self.omega_minus!r}, "
                             f"{self.omega_plus!r}, {lo!r}")
        if not (0.0 < self.omega_minus < self.omega_plus):
            raise ValueError(
                f"need 0 < omega_minus < omega_plus, got {self.omega_minus!r}, {self.omega_plus!r}"
            )
        if len(lo) not in (1, 2):
            raise ValueError(f"expected one or two LO frequencies, got {len(lo)}")
        if any(f <= 0.0 for f in lo):
            raise ValueError("LO frequencies must be positive")
        if len(lo) == 1:
            if not (self.omega_minus < lo[0] < self.omega_plus):
                raise ValueError(
                    "a single LO tone must lie between the two signal mode frequencies"
                )
        else:
            half = 0.5 * self.delta
            if abs(self.delta1) >= half or abs(self.delta2) >= half:
                raise ValueError(
                    "LO detunings must satisfy |delta1|, |delta2| < (omega_plus - omega_minus)/2; "
                    f"got delta1={self.delta1:g}, delta2={self.delta2:g}, delta={self.delta:g}"
                )

    @property
    def delta(self) -> float:
        """Signal mode splitting omega_plus - omega_minus."""
        return self.omega_plus - self.omega_minus

    @property
    def beat_delta(self) -> float:
        """Half the mode splitting: the single-LO beat-note frequency."""
        return 0.5 * self.delta

    @property
    def omega_center(self) -> float:
        return 0.5 * (self.omega_plus + self.omega_minus)

    def _require_two_tone(self):
        if len(self.lo_frequencies) != 2:
            raise ValueError("this quantity is defined only for a two-tone plan")

    @property
    def delta1(self) -> float:
        """Detuning of tone 1 from the lower signal mode."""
        self._require_two_tone()
        return self.lo_frequencies[0] - self.omega_minus

    @property
    def delta2(self) -> float:
        """Detuning of tone 2 from the upper signal mode."""
        self._require_two_tone()
        return self.lo_frequencies[1] - self.omega_plus

    @property
    def omega_image_minus(self) -> float:
        """Image of the lower signal mode, mirrored about tone 1."""
        self._require_two_tone()
        return 2.0 * self.lo_frequencies[0] - self.omega_minus

    @property
    def omega_image_plus(self) -> float:
        """Image of the upper signal mode, mirrored about tone 2."""
        self._require_two_tone()
        return 2.0 * self.lo_frequencies[1] - self.omega_plus


def _db(ratio: float) -> float:
    return 10.0 * math.log10(ratio)


def _squeeze_bracket(s: float, half_phase: float) -> float:
    """e^{2s} cos^2(h) + e^{-2s} sin^2(h), arranged so that s = 0 gives
    exactly 1 at every phase and the deep-squeezing minimum keeps full
    relative accuracy (no cosh/sinh cancellation)."""
    return math.exp(-2.0 * s) + (
        math.exp(2.0 * s) - math.exp(-2.0 * s)
    ) * math.cos(half_phase) ** 2


class VarianceReport(_Record):
    """A difference-signal variance with its shot-noise references.

    ``baseline`` is the declared global reference: the squeezing-free level
    of the two-image-band configuration (8 |beta|^2 for the two-tone scheme),
    against which the headline dB floors are quoted. ``case_baseline`` is the
    squeezing-free level of the same configuration the variance was computed
    in; both are reported because the two readings of "classical level"
    differ for the shared-image configuration. ``lo_flux_ratio`` is the
    signal-to-LO photon-flux ratio sinh^2(s)/|beta|^2; the reduced formulas
    assume it is small, so consumers can check the strong-LO regime.
    """

    __slots__ = ("variance", "baseline", "relative_db", "case", "case_baseline",
                 "case_relative_db", "lo_flux_ratio")

    def __init__(self, variance: float, baseline: float, relative_db: float,
                 case: ImageBandCase | None, case_baseline: float, case_relative_db: float,
                 lo_flux_ratio: float):
        if not (0.0 <= variance < math.inf):
            raise ValueError(f"variance must be finite and >= 0, got {variance!r}")
        if not math.isfinite(lo_flux_ratio):
            raise ValueError(f"lo_flux_ratio must be finite, got {lo_flux_ratio!r}")
        for base, db in ((baseline, relative_db), (case_baseline, case_relative_db)):
            if not base > 0.0:
                raise ValueError("baselines must be positive")
            expected = _db(variance / base)
            if abs(db - expected) > 1e-12 * max(1.0, abs(expected)):
                raise ValueError("relative_db is inconsistent with variance/baseline")
        _set(self, "variance", variance)
        _set(self, "baseline", baseline)
        _set(self, "relative_db", relative_db)
        _set(self, "case", case)
        _set(self, "case_baseline", case_baseline)
        _set(self, "case_relative_db", case_relative_db)
        _set(self, "lo_flux_ratio", lo_flux_ratio)


def _make_report(variance: float, baseline: float, case: ImageBandCase | None,
                 case_baseline: float, lo_flux_ratio: float) -> VarianceReport:
    return VarianceReport(
        variance=variance,
        baseline=baseline,
        relative_db=_db(variance / baseline),
        case=case,
        case_baseline=case_baseline,
        case_relative_db=_db(variance / case_baseline),
        lo_flux_ratio=lo_flux_ratio,
    )


def standard_heterodyne_variance(p: SqueezeParams, lo: LoTone) -> VarianceReport:
    """Single-tone difference-signal variance.

    Var = 2 |beta|^2 [e^{2s} cos^2(chi - theta/2) + e^{-2s} sin^2(chi - theta/2)],
    with baseline 2 |beta|^2 (its own squeezing-free value). Valid in the
    strong-LO regime, hence the rejection of a zero-amplitude tone.
    """
    if lo.amplitude <= 0.0:
        raise ValueError(
            "standard_heterodyne_variance needs a strong LO; amplitude must be > 0"
        )
    b2 = lo.amplitude**2
    variance = 2.0 * b2 * _squeeze_bracket(p.s, lo.phase - 0.5 * p.theta)
    baseline = 2.0 * b2
    ratio = math.sinh(p.s) ** 2 / b2
    return _make_report(variance, baseline, None, baseline, ratio)


def detuning_tolerance(fp: FrequencyPlan) -> float:
    """Absolute tolerance (rad/s) for comparing a plan's detunings.

    1e-9 * delta, with a floor of a few carrier ulps: at optical carriers,
    double precision cannot resolve detunings below roughly eps * omega_plus.
    """
    return max(1e-9 * fp.delta, 32.0 * sys.float_info.epsilon * fp.omega_plus)


def classify_image_band_case(fp: FrequencyPlan) -> ImageBandCase:
    """Classify a two-tone plan by where its image bands fall.

    No image bands when both detunings vanish; a single shared image band
    when delta1 = -delta2 = delta/4 (both images coincide at the center
    frequency); two distinct image bands otherwise. Detunings are compared
    within :func:`detuning_tolerance`, since exact equality of user-supplied
    frequencies is meaningless.
    """
    tol = detuning_tolerance(fp)
    d1, d2, quarter = fp.delta1, fp.delta2, 0.25 * fp.delta
    if abs(d1) <= tol and abs(d2) <= tol:
        return ImageBandCase.NO_IMAGE_BANDS
    if abs(d1 - quarter) <= tol and abs(d2 + quarter) <= tol:
        return ImageBandCase.SHARED_IMAGE_BAND
    return ImageBandCase.TWO_IMAGE_BANDS


def blo_variance_general(p: SqueezeParams, lo1: LoTone, lo2: LoTone,
                         fp: FrequencyPlan, t: float) -> float:
    """Two-tone variance at time t, before imposing time independence.

    Keeps the interference terms oscillating at delta1 + delta2; terms at the
    order of the mode splitting are already dropped (the plan's detuning
    bound guarantees that reduction applies). The result is manifestly real:

    Var(t) = (b1^2 + b2^2) (4 sinh^2 s + 2 + v)
             + 8 b1 b2 sinh(s) cosh(s) cos(chi1 + chi2 - theta - (delta1+delta2) t)

    with v the image-band vacuum units of the classified configuration,
    evaluated in the cancellation-free form of :func:`blo_variance_unbalanced`
    with the phase sum shifted by -(delta1 + delta2) t (bit-identical at t = 0).
    """
    if lo1.amplitude <= 0.0 or lo2.amplitude <= 0.0:
        raise ValueError("both LO tone amplitudes must be > 0")
    b1, beat = lo1.amplitude, (fp.delta1 + fp.delta2) * t
    return _blo_eval(p, b1, lo2.amplitude - b1, lo1.phase, lo2.phase - beat,
                     classify_image_band_case(fp))


def _blo_eval(p: SqueezeParams, beta_mag: float, delta_beta: float,
              chi1: float, chi2: float, case: ImageBandCase) -> float:
    """Shared evaluator for the matched and mismatched two-tone variances.

    Written so that delta_beta = 0 reproduces the matched expression bit for
    bit (multiplying by (1 + 0.0) and adding 0.5 * 0.0 * (...) are exact).
    """
    c = 0.5 * IMAGE_VACUUM_UNITS[case]
    bracket = _squeeze_bracket(p.s, 0.5 * (chi1 + chi2 - p.theta)) + c
    r = delta_beta / beta_mag
    return 4.0 * beta_mag**2 * ((1.0 + r) * bracket + 0.5 * r**2 * (math.cosh(2.0 * p.s) + c))


def _blo_report(p: SqueezeParams, beta_mag: float, variance: float,
                case: ImageBandCase) -> VarianceReport:
    b2 = beta_mag**2
    baseline = 8.0 * b2  # squeezing-free level of the two-image-band configuration
    case_baseline = 4.0 * b2 * (1.0 + 0.5 * IMAGE_VACUUM_UNITS[case])
    return _make_report(variance, baseline, case, case_baseline, math.sinh(p.s) ** 2 / b2)


def blo_variance(p: SqueezeParams, lo1: LoTone, lo2: LoTone,
                 case: ImageBandCase) -> VarianceReport:
    """Time-independent two-tone variance for matched tone amplitudes.

    Var = 4 |beta|^2 [e^{2s} cos^2((chi1+chi2-theta)/2)
                      + e^{-2s} sin^2((chi1+chi2-theta)/2) + c]

    with c = 0, 1/2, 1 for the no-image / shared-image / two-image
    configurations. Assumes the detunings have been chosen opposite
    (delta1 = -delta2), which removes the time dependence.
    """
    if lo1.amplitude != lo2.amplitude:
        raise ValueError(
            "blo_variance expects matched tone amplitudes; use blo_variance_unbalanced "
            f"for |beta1| = {lo1.amplitude!r} != |beta2| = {lo2.amplitude!r}"
        )
    if lo1.amplitude <= 0.0:
        raise ValueError("LO tone amplitude must be > 0")
    variance = _blo_eval(p, lo1.amplitude, 0.0, lo1.phase, lo2.phase, case)
    return _blo_report(p, lo1.amplitude, variance, case)


def blo_variance_unbalanced(p: SqueezeParams, beta_mag: float, delta_beta: float,
                            chi1: float, chi2: float,
                            case: ImageBandCase) -> VarianceReport:
    """Two-tone variance with tone amplitudes |beta| and |beta| + delta_beta.

    The mismatch adds a phase-independent noise term of second order in
    delta_beta/|beta|; at delta_beta = 0 the result is bitwise identical to
    :func:`blo_variance`.
    """
    if beta_mag <= 0.0:
        raise ValueError("beta_mag must be > 0")
    if delta_beta <= -beta_mag:
        raise ValueError(
            f"delta_beta = {delta_beta!r} would make the second tone amplitude non-positive"
        )
    variance = _blo_eval(p, beta_mag, delta_beta, chi1, chi2, case)
    return _blo_report(p, beta_mag, variance, case)


def lo_quantization_correction(p: SqueezeParams, n_tones: int = 2) -> float:
    """Absolute variance offset from quantizing the local oscillator.

    The reduced formulas treat the LO classically; the exact difference
    signal additionally carries n_tones * (<n_+> + <n_->) = 2 * n_tones *
    sinh^2 s, a phase-independent floor that is negligible exactly when the
    LO flux dominates the signal flux (see VarianceReport.lo_flux_ratio).
    """
    if n_tones not in (1, 2):
        raise ValueError("n_tones must be 1 or 2")
    return 2.0 * n_tones * math.sinh(p.s) ** 2


def phase_grid(n_points: int) -> list[float]:
    """The n_points phases i * (2*pi / n_points), i = 0 .. n_points - 1.

    Each is one product, not a running sum, which makes the grid bit for bit
    ``np.linspace(0, 2*pi, n_points, endpoint=False)``.
    """
    step = 2.0 * math.pi / n_points
    return [i * step for i in range(n_points)]


def phase_scan(p: SqueezeParams, lo_config, case: ImageBandCase | None = None,
               n_points: int = 64):
    """Sweep the controllable LO phase over [0, 2*pi) on a monotone grid.

    ``lo_config`` is either a single :class:`LoTone` (single-tone scheme; the
    tone phase chi is swept) or a pair of tones (two-tone scheme; the phase
    sum chi1 + chi2 is swept, which is the only phase combination the
    variance depends on). Returns a list of (phase, VarianceReport). The
    variance minimum sits at phase = theta + pi (mod 2*pi) and the maximum at
    theta, up to the single-tone phase halving.
    """
    if n_points < 2:
        raise ValueError("n_points must be >= 2")
    phases = phase_grid(n_points)
    out = []
    if isinstance(lo_config, LoTone):
        for chi in phases:
            tone = LoTone(amplitude=lo_config.amplitude, phase=chi,
                          frequency=lo_config.frequency)
            out.append((chi, standard_heterodyne_variance(p, tone)))
        return out
    lo1, lo2 = lo_config
    if case is None:
        raise ValueError("phase_scan over a tone pair needs an ImageBandCase")
    if lo1.amplitude != lo2.amplitude:
        raise ValueError("phase_scan expects matched tone amplitudes")
    for phase_sum in phases:
        t1 = LoTone(amplitude=lo1.amplitude, phase=phase_sum, frequency=lo1.frequency)
        t2 = LoTone(amplitude=lo2.amplitude, phase=0.0, frequency=lo2.frequency)
        out.append((phase_sum, blo_variance(p, t1, t2, case)))
    return out
