"""Synthetic difference-photocurrent records and their spectral analysis.

The detection module predicts single numbers (variances at a beat note);
this module turns them into something a spectrum analyzer would show. A
:class:`SpectralModel` places a squeezing feature of finite bandwidth on a
flat shot floor; records are synthesized by frequency-domain coloring of
seeded white Gaussian noise, and Welch-averaged periodograms recover the
model. The finite feature bandwidth is a modeling extension (the variance
formulas treat single-frequency modes); the feature's extremum level is the
detection-module variance, and the flat floor is numerically equal to the
configuration's squeezing-free variance, read as a density per Hz.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .detection import (FrequencyPlan, ImageBandCase, LoTone, SqueezeParams,
                        blo_variance, standard_heterodyne_variance)

PROFILES = ("lorentzian", "flat_top")


@dataclass(frozen=True)
class SpectralModel:
    """One-sided target PSD: a flat floor with one feature at a center frequency.

    ``noise_floor`` is the off-feature level and ``dip_or_peak_level`` the
    level at the feature center, both in variance density per Hz;
    ``squeezing_bandwidth`` is the feature's full width at half depth. The
    lorentzian profile interpolates smoothly, flat_top switches inside
    +-bandwidth/2.
    """

    center_frequency: float
    squeezing_bandwidth: float
    noise_floor: float
    dip_or_peak_level: float
    profile: str = "lorentzian"

    def __post_init__(self):
        if self.center_frequency < 0.0:
            raise ValueError("center_frequency must be >= 0")
        if self.squeezing_bandwidth <= 0.0:
            raise ValueError("squeezing_bandwidth must be > 0")
        if self.noise_floor < 0.0 or self.dip_or_peak_level < 0.0:
            raise ValueError("levels must be >= 0")
        if self.profile not in PROFILES:
            raise ValueError(f"profile must be one of {PROFILES}, got {self.profile!r}")

    def psd(self, frequencies: np.ndarray) -> np.ndarray:
        """Evaluate the target one-sided PSD on a frequency grid (Hz)."""
        f = np.asarray(frequencies, dtype=float)
        if self.profile == "lorentzian":
            half = 0.5 * self.squeezing_bandwidth
            shape = half**2 / ((f - self.center_frequency) ** 2 + half**2)
        else:
            shape = (np.abs(f - self.center_frequency) <= 0.5 * self.squeezing_bandwidth)
            shape = shape.astype(float)
        return self.noise_floor + (self.dip_or_peak_level - self.noise_floor) * shape

    @classmethod
    def for_standard(cls, p: SqueezeParams, lo: LoTone, fp: FrequencyPlan,
                     bandwidth: float, profile: str = "lorentzian") -> "SpectralModel":
        """Feature at the single-tone beat note delta/2pi with the predicted depth."""
        report = standard_heterodyne_variance(p, lo)
        return cls(
            center_frequency=fp.beat_delta / (2.0 * math.pi),
            squeezing_bandwidth=bandwidth,
            noise_floor=report.case_baseline,
            dip_or_peak_level=report.variance,
            profile=profile,
        )

    @classmethod
    def for_blo(cls, p: SqueezeParams, lo1: LoTone, lo2: LoTone, fp: FrequencyPlan,
                case: ImageBandCase, bandwidth: float,
                profile: str = "lorentzian") -> "SpectralModel":
        """Feature at |delta1|/2pi (DC for the no-image configuration).

        The floor is the configuration's own squeezing-free level, which is
        what the analyzer shows away from the feature.
        """
        report = blo_variance(p, lo1, lo2, case)
        return cls(
            center_frequency=abs(fp.delta1) / (2.0 * math.pi),
            squeezing_bandwidth=bandwidth,
            noise_floor=report.case_baseline,
            dip_or_peak_level=report.variance,
            profile=profile,
        )


@dataclass(frozen=True)
class PhotocurrentRecord:
    """A synthesized difference-current record with its provenance."""

    samples: np.ndarray
    sample_rate: float
    seed: int
    model: SpectralModel

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=float)
        n = samples.size
        if n < 2 or (n & (n - 1)) != 0:
            raise ValueError(f"record length must be a power of two, got {n}")
        samples.setflags(write=False)
        object.__setattr__(self, "samples", samples)

    @property
    def duration(self) -> float:
        return self.samples.size / self.sample_rate


@dataclass(frozen=True)
class SpectrumEstimate:
    """One-sided Welch PSD estimate."""

    frequencies: np.ndarray
    psd: np.ndarray
    resolution: float
    n_averages: int

    def __post_init__(self):
        f = np.asarray(self.frequencies, dtype=float)
        s = np.asarray(self.psd, dtype=float)
        if f.shape != s.shape:
            raise ValueError("frequency and PSD arrays must match")
        f.setflags(write=False)
        s.setflags(write=False)
        object.__setattr__(self, "frequencies", f)
        object.__setattr__(self, "psd", s)

    def total_power(self) -> float:
        return float(np.sum(self.psd) * self.resolution)


_MAX_SAMPLES = 1 << 26

# Welch windows this many samples at once, whatever the record length
_WELCH_BLOCK_SAMPLES = 1 << 18


def synthesize_difference_current(model: SpectralModel, duration: float,
                                  sample_rate: float, seed: int) -> PhotocurrentRecord:
    """Stationary Gaussian record whose one-sided PSD matches the model.

    White complex Gaussians are scaled by the target PSD bin by bin and
    inverse-transformed, so the target holds exactly in expectation and the
    record is fully determined by the seed. The sample count is the smallest
    power of two covering the requested duration. Rejects sample rates that
    would alias the feature (needs sample_rate > 2 * (center + 5 * bandwidth)),
    records above ``_MAX_SAMPLES``, and PSD levels whose bin scale
    n * sample_rate * S overflows.
    """
    if duration <= 0.0 or sample_rate <= 0.0:
        raise ValueError("duration and sample_rate must be positive")
    nyquist_need = 2.0 * (model.center_frequency + 5.0 * model.squeezing_bandwidth)
    if sample_rate <= nyquist_need:
        raise ValueError(
            f"sample_rate {sample_rate:g} Hz aliases the feature; "
            f"need more than {nyquist_need:g} Hz"
        )
    requested = duration * sample_rate
    exponent = math.log2(max(requested, 2.0))
    if exponent > math.log2(_MAX_SAMPLES):
        raise ValueError(
            f"record of {requested:g} samples exceeds the memory guard {_MAX_SAMPLES}"
        )
    n = 1 << math.ceil(exponent)
    # the target PSD never exceeds the larger of its two levels
    level = max(model.noise_floor, model.dip_or_peak_level)
    if not math.isfinite(level * (n * sample_rate)):
        raise ValueError(
            f"PSD level {level:g} times n * sample_rate = {n * sample_rate:g} overflows; "
            "the record cannot be colored"
        )
    scale = model.psd(np.fft.rfftfreq(n, d=1.0 / sample_rate))
    # Interior bins carry complex amplitude with E|Z|^2 = n * fs * S / 2
    # (per-component std sqrt(n fs S / 4)); the real DC and Nyquist bins
    # carry E Z^2 = n * fs * S. This makes the record variance equal the
    # integral of the one-sided target. The target becomes the scale in
    # place, and both draws share one buffer, so the irfft's own output and
    # scratch are all that join z at the peak.
    scale *= n * sample_rate
    dc_power, nyquist_power = scale[0], scale[-1]
    scale /= 4.0
    np.sqrt(scale, out=scale)
    rng = np.random.default_rng(seed)
    draw = np.empty(scale.size)
    z = np.empty(scale.size, dtype=complex)
    rng.standard_normal(out=draw)
    dc = draw[0] * math.sqrt(dc_power)
    nyquist = draw[-1] * math.sqrt(nyquist_power)
    np.multiply(draw, scale, out=z.real)
    rng.standard_normal(out=draw)
    np.multiply(draw, scale, out=z.imag)
    del draw, scale
    z[0] = dc
    z[-1] = nyquist
    samples = np.fft.irfft(z, n=n)
    return PhotocurrentRecord(samples=samples, sample_rate=sample_rate, seed=seed,
                              model=model)


def estimate_psd(rec: PhotocurrentRecord, segment_length: int,
                 overlap_fraction: float = 0.5) -> SpectrumEstimate:
    """Welch-averaged one-sided periodogram with a Hann window.

    The window power is compensated so densities are unbiased; integrating
    the estimate across a pure tone's peak returns the tone power A^2/2.

    Segments are strided views of the record, transformed a block at a time
    (``_WELCH_BLOCK_SAMPLES`` samples per block, at least one segment), so
    the working set stays fixed as the record grows. The periodograms are
    summed strictly in segment order, each added to the running sum in turn
    (never pairwise), which makes the estimate bit-identical to a
    segment-by-segment loop.
    """
    n = rec.samples.size
    if segment_length < 4 or (segment_length & (segment_length - 1)) != 0:
        raise ValueError("segment_length must be a power of two >= 4")
    if segment_length > n:
        raise ValueError(f"segment_length {segment_length} exceeds record length {n}")
    if not 0.0 <= overlap_fraction <= 0.9:
        raise ValueError("overlap_fraction must lie in [0, 0.9]")
    step = max(1, int(round(segment_length * (1.0 - overlap_fraction))))
    window = 0.5 - 0.5 * np.cos(2.0 * math.pi * np.arange(segment_length) / segment_length)
    win_power = float(np.sum(window**2))
    segments = np.lib.stride_tricks.sliding_window_view(rec.samples, segment_length)[::step]
    count = segments.shape[0]
    rows = max(1, _WELCH_BLOCK_SAMPLES // segment_length)
    acc = np.zeros(segment_length // 2 + 1)
    # row 0 carries the running sum, so each reduce over axis 0 adds the
    # block's periodograms to it one after another, in segment order
    power = np.empty((min(rows, count) + 1, acc.size))
    for first in range(0, count, rows):
        block = segments[first : first + rows]
        k = block.shape[0]
        np.abs(np.fft.rfft(block * window), out=power[1 : k + 1])
        power[1 : k + 1] **= 2
        power[0] = acc
        np.add.reduce(power[: k + 1], axis=0, out=acc)
    acc /= count
    psd = 2.0 * acc / (rec.sample_rate * win_power)
    psd[0] /= 2.0
    psd[-1] /= 2.0
    freqs = np.fft.rfftfreq(segment_length, d=1.0 / rec.sample_rate)
    return SpectrumEstimate(
        frequencies=freqs,
        psd=psd,
        resolution=rec.sample_rate / segment_length,
        n_averages=count,
    )


@dataclass(frozen=True)
class SqueezingFeature:
    """A located spectral feature: center in Hz, depth in dB (negative = dip)."""

    center: float
    depth_db: float


def locate_squeezing_feature(spec: SpectrumEstimate,
                             floor_estimate: float) -> SqueezingFeature | None:
    """Locate the extremum of the deviation from the floor.

    The deviation is smoothed with a boundary-corrected moving average to
    find the candidate bin; the center is then refined to the intensity
    centroid of the contiguous half-maximum region (symmetric features are
    located to a fraction of a bin), and the depth is read from the raw
    estimate right at the center so smoothing cannot bias deep dips.

    Returns None when no smoothed bin deviates from the floor by more than
    three per-bin standard errors, i.e. when the spectrum is consistent with
    flat. The DC bin is excluded from the search.
    """
    if floor_estimate <= 0.0:
        raise ValueError("floor_estimate must be positive")
    psd = spec.psd
    smooth_bins = max(3, psd.size // 512)
    kernel = np.ones(smooth_bins)
    smoothed = np.convolve(psd, kernel, mode="same") / np.convolve(
        np.ones(psd.size), kernel, mode="same"
    )
    deviation = smoothed - floor_estimate
    sigma = floor_estimate / math.sqrt(max(1, spec.n_averages))
    search = np.abs(deviation)
    # Edge bins mix one-sided DC/Nyquist conventions into the smoothing
    # window; the feature search stays in the interior.
    search[: smooth_bins + 1] = 0.0
    search[-(smooth_bins + 1) :] = 0.0
    idx = int(np.argmax(search))
    if search[idx] <= 3.0 * sigma:
        return None
    # Half-maximum region around the candidate, tolerant of noise gaps up to
    # one smoothing width; weighting by the excess over half maximum
    # de-weights the jittery region boundary.
    half = 0.5 * search[idx]
    lo = idx
    gap, k = 0, idx
    while k > 1 and gap <= smooth_bins:
        k -= 1
        if search[k] > half:
            lo, gap = k, 0
        else:
            gap += 1
    hi = idx
    gap, k = 0, idx
    while k < search.size - 1 and gap <= smooth_bins:
        k += 1
        if search[k] > half:
            hi, gap = k, 0
        else:
            gap += 1
    weights = np.maximum(search[lo : hi + 1] - half, 0.0)
    center = float(np.sum(spec.frequencies[lo : hi + 1] * weights) / np.sum(weights))
    cidx = min(max(int(round(center / spec.resolution)), 1), psd.size - 1)
    level = float(np.mean(psd[max(1, cidx - 1) : cidx + 2]))
    return SqueezingFeature(
        center=center,
        depth_db=10.0 * math.log10(max(level, 1e-300) / floor_estimate),
    )


# ---------------------------------------------------------------------------
# emission: CSV with unit-bearing headers, and a documented JSON layout
# ---------------------------------------------------------------------------


def spectrum_csv_lines(est: SpectrumEstimate, header_lines=()):
    """CSV lines for a spectrum estimate; floats at full round-trip precision."""
    lines = [f"# {h}" for h in header_lines]
    lines.append(f"# resolution_hz: {est.resolution:.17g}")
    lines.append(f"# n_averages: {est.n_averages}")
    lines.append("frequency_hz,psd_variance_per_hz")
    for f, s in zip(est.frequencies, est.psd):
        lines.append(f"{f:.17g},{s:.17g}")
    return lines


def spectrum_to_json_dict(est: SpectrumEstimate) -> dict:
    """JSON layout: schema name, scalars, then parallel frequency/psd arrays."""
    return {
        "schema": "blodyne.spectrum_estimate/1",
        "resolution_hz": est.resolution,
        "n_averages": est.n_averages,
        "frequencies_hz": [float(f) for f in est.frequencies],
        "psd_variance_per_hz": [float(s) for s in est.psd],
    }

