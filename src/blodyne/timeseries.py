"""Synthetic difference-photocurrent records and their spectral analysis.

The detection module predicts single numbers (variances at a beat note);
this module turns them into something a spectrum analyzer would show. A
:class:`SpectralModel` places a squeezing feature of finite bandwidth on a
flat shot floor; records are synthesized by coloring seeded white Gaussian
noise with an FIR filter, block by block, and Welch-averaged periodograms
recover the model as the blocks stream past. The finite feature bandwidth is
a modeling extension (the variance formulas treat single-frequency modes);
the feature's extremum level is the detection-module variance, and the flat
floor is numerically equal to the configuration's squeezing-free variance,
read as a density per Hz. :func:`spectrum_outputs` is the ``spectrum``
subcommand, from a resolved config to the text it writes.
"""

import itertools
import json
import math
import queue
import sys
import threading
from contextlib import closing

import numpy as np

from .config import FORMAT_VERSION, PROFILES, ExperimentConfig, header_lines
from .detection import (FrequencyPlan, ImageBandCase, LoTone, SqueezeParams, _Record,
                        blo_variance, standard_heterodyne_variance)


class SpectralModel(_Record):
    """One-sided target PSD: a flat floor with one feature at a center frequency.

    ``noise_floor`` is the off-feature level and ``dip_or_peak_level`` the
    level at the feature center, both in variance density per Hz;
    ``squeezing_bandwidth`` is the feature's full width at half depth. The
    lorentzian profile interpolates smoothly, flat_top switches inside
    +-bandwidth/2. The four numbers must be finite, and the lorentzian
    profile squares the half width, so that square must be a finite normal
    float.
    """

    __slots__ = ("center_frequency", "squeezing_bandwidth", "noise_floor",
                 "dip_or_peak_level", "profile")

    def __init__(self, center_frequency: float, squeezing_bandwidth: float,
                 noise_floor: float, dip_or_peak_level: float, profile: str = "lorentzian"):
        values = (center_frequency, squeezing_bandwidth, noise_floor, dip_or_peak_level)
        for name, value in zip(self.__slots__, values):
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if center_frequency < 0.0:
            raise ValueError("center_frequency must be >= 0")
        if squeezing_bandwidth <= 0.0:
            raise ValueError("squeezing_bandwidth must be > 0")
        if noise_floor < 0.0 or dip_or_peak_level < 0.0:
            raise ValueError("levels must be >= 0")
        if profile not in PROFILES:
            raise ValueError(f"profile must be one of {PROFILES}, got {profile!r}")
        half = 0.5 * squeezing_bandwidth
        if profile == "lorentzian" and not sys.float_info.min <= half * half < math.inf:
            raise ValueError(
                f"squeezing_bandwidth {squeezing_bandwidth!r}: its half squared is not "
                "a finite normal float, which the lorentzian profile needs"
            )
        _Record.__init__(self, *values, profile)

    def psd(self, frequencies: np.ndarray) -> np.ndarray:
        """Evaluate the target one-sided PSD on a frequency grid (Hz)."""
        f = np.asarray(frequencies, dtype=float)
        if self.profile == "lorentzian":
            half = 0.5 * self.squeezing_bandwidth
            # half**2 is a normal float, so a detuning whose square overflows
            # gives shape 0, the value the exact ratio underflows to anyway
            with np.errstate(over="ignore"):
                shape = half**2 / ((f - self.center_frequency) ** 2 + half**2)
        else:
            shape = (np.abs(f - self.center_frequency) <= 0.5 * self.squeezing_bandwidth)
            shape = shape.astype(float)
        return self.noise_floor + (self.dip_or_peak_level - self.noise_floor) * shape

    def cell_means(self, lower: np.ndarray, upper: np.ndarray) -> np.ndarray:
        """The target PSD averaged over each band [lower, upper] (Hz), lower < upper.

        The profiles integrate in closed form: the lorentzian to an arctan
        difference, the flat_top to the length of the band inside the
        feature. So a feature much narrower than a band still adds its whole
        area to the band's mean, however narrow it is.
        """
        c = self.center_frequency
        half = 0.5 * self.squeezing_bandwidth
        if self.profile == "lorentzian":
            # detunings in half widths may overflow to inf, whose arctan is
            # exact; an edge at the center divides by zero, in a branch not taken
            with np.errstate(over="ignore", divide="ignore"):
                straddling = (np.arctan((upper - c) / half)
                              - np.arctan((lower - c) / half))
                # both edges on one side: the difference of the arctans of
                # the reciprocals, which does not cancel far from the center
                one_side = np.arctan(half / (lower - c)) - np.arctan(half / (upper - c))
            angle = np.where((lower > c) | (upper < c), one_side, straddling)
            shape = half * angle / (upper - lower)
        else:
            inside = np.minimum(upper, c + half) - np.maximum(lower, c - half)
            shape = np.maximum(inside, 0.0) / (upper - lower)
        # rounding may leave the lorentzian mean a hair above 1, which could
        # take a dip below zero
        np.clip(shape, 0.0, 1.0, out=shape)
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


class PhotocurrentRecord(_Record):
    """A difference-current record given by its samples and sample rate (Hz).

    :func:`estimate_psd` reads a record through ``size`` and ``blocks()``;
    this one is a single block.
    """

    __slots__ = ("samples", "sample_rate")

    def __init__(self, samples: np.ndarray, sample_rate: float):
        samples = np.asarray(samples, dtype=float)
        n = samples.size
        if n < 2 or (n & (n - 1)) != 0:
            raise ValueError(f"record length must be a power of two, got {n}")
        _Record.__init__(self, samples, sample_rate)

    @property
    def size(self) -> int:
        return self.samples.size

    @property
    def duration(self) -> float:
        return self.samples.size / self.sample_rate

    def blocks(self):
        yield self.samples


class SynthesizedRecord(_Record):
    """A record of seeded white noise colored by an FIR filter, read in blocks.

    Its samples follow from ``size``, ``seed`` and ``taps`` alone.
    ``blocks()`` draws the noise in order from ``default_rng(seed)`` and
    colors it by overlap-save, one FFT frame at a time: the ``size`` samples
    plus ``taps.size - 1`` of lead-in are drawn afresh on each read. A read
    allocates, once, two frames, one frame's spectrum, the filter's response
    and a ``taps.size - 1``-sample carry, and never the record. Each frame is
    colored in place, and its block is a read-only view of it, valid only
    until the next block is read: a caller that keeps a block copies it.
    While the caller reads one block, a single worker thread colors the next
    frame, and the caller's thread then draws the frame after it into the
    frame just read. Frames go to the worker and blocks come back through two
    ``queue.SimpleQueue``s, and the caller takes each block before it hands
    over the next frame, so at most one frame is colored ahead.
    Each frame is drawn and colored by the same operations in the same order
    as in one thread, so the blocks do not depend on the threads. The worker
    is joined before ``blocks()`` finishes, fails or is closed, and an
    exception raised in it is raised again, as itself, in the caller.
    ``samples`` copies every block into one read-only array, for tests and
    short records. A plain ``threading.Thread`` keeps ``concurrent.futures``,
    with the ``logging`` it imports, out of the ``spectrum`` process.
    A record equals only itself, and hashes by identity. The taps must be a
    non-empty one-dimensional array of finite floats, the size at least 1,
    the sample rate finite and positive and the seed non-negative.
    """

    __slots__ = ("size", "sample_rate", "seed", "taps")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, size: int, sample_rate: float, seed: int, taps: np.ndarray):
        taps = np.asarray(taps, dtype=float)
        if taps.ndim != 1 or taps.size == 0 or not np.isfinite(taps).all():
            raise ValueError("taps must be a non-empty one-dimensional array of finite floats")
        if size < 1:
            raise ValueError(f"size must be >= 1, got {size!r}")
        if not (math.isfinite(sample_rate) and sample_rate > 0.0):
            raise ValueError(f"sample_rate must be finite and positive, got {sample_rate!r}")
        if seed < 0:
            raise ValueError(f"seed must be >= 0, got {seed!r}")
        _Record.__init__(self, size, sample_rate, seed, taps)

    def blocks(self):
        keep = self.taps.size - 1
        # at least two filter lengths a frame, and no longer than the record needs
        frame_size = min(max(_FRAME_SAMPLES, 2 * self.taps.size),
                         1 << (self.size + keep - 1).bit_length())
        response = np.fft.rfft(self.taps, frame_size)
        rng = np.random.default_rng(self.seed)
        # the worker colors one frame in place while this thread reads the
        # block of the other and then draws the next frame into it
        frame, other = np.zeros(frame_size), np.zeros(frame_size)
        spectrum = np.empty_like(response)
        carry = np.empty(keep)

        def color(frame, k):
            np.fft.rfft(frame, out=spectrum)
            np.multiply(spectrum, response, out=spectrum)
            np.fft.irfft(spectrum, frame_size, out=frame)
            # output j reads frame[j - keep : j + 1]: from j = keep on, that is
            # the linear convolution, and a short last frame's stale end is unread
            block = frame[keep : keep + k]
            block.setflags(write=False)
            return block

        # one worker colors the frames handed to it, one at a time, and hands
        # back each block, or the exception that coloring raised
        jobs, results = queue.SimpleQueue(), queue.SimpleQueue()

        def work():
            for job in iter(jobs.get, None):
                try:
                    results.put(color(*job))
                except BaseException as exc:
                    # whatever it is, the caller raises it again; left here,
                    # it would end this thread and leave the caller waiting
                    results.put(exc)

        def colored():
            block = results.get()
            if isinstance(block, BaseException):
                raise block
            return block

        worker = threading.Thread(target=work, daemon=True)
        worker.start()
        try:
            k = min(frame_size - keep, self.size)
            rng.standard_normal(out=frame[: keep + k])
            done, block = k, None
            while True:
                next_k = min(frame_size - keep, self.size - done)
                if 0 < next_k < frame_size - keep:
                    # a short last frame also keeps this one's end, as a single
                    # frame refilled in place did: the end is never output, but
                    # it enters the FFT's rounding. Coloring overwrites that
                    # end, so the other frame's block is read first
                    if block is not None:
                        yield block
                        block = None
                    other[keep + next_k :] = frame[keep + next_k :]
                # the next frame starts with this one's raw end, which
                # coloring overwrites
                carry[:] = frame[k : k + keep]
                jobs.put((frame, k))
                if block is not None:
                    yield block
                if not next_k:
                    break
                frame, other, k = other, frame, next_k
                frame[:keep] = carry
                rng.standard_normal(out=frame[keep : keep + k])
                done += k
                block = colored()
            yield colored()
        finally:
            # the worker finishes the frame it holds, if any, and ends
            jobs.put(None)
            worker.join()

    @property
    def duration(self) -> float:
        return self.size / self.sample_rate

    @property
    def samples(self) -> np.ndarray:
        out = np.empty(self.size)
        done = 0
        for block in self.blocks():
            out[done : done + block.size] = block
            done += block.size
        out.setflags(write=False)
        return out


class SpectrumEstimate(_Record):
    """One-sided Welch PSD estimate."""

    __slots__ = ("frequencies", "psd", "resolution", "n_averages")

    def __init__(self, frequencies: np.ndarray, psd: np.ndarray, resolution: float,
                 n_averages: int):
        f = np.asarray(frequencies, dtype=float)
        s = np.asarray(psd, dtype=float)
        # one-dimensional, so that the record stores them as read-only views
        if f.ndim != 1 or f.shape != s.shape:
            raise ValueError("frequency and PSD arrays must be one-dimensional and match")
        _Record.__init__(self, f, s, resolution, n_averages)

    def total_power(self) -> float:
        return float(np.sum(self.psd) * self.resolution)


# Synthesis and Welch hold a few blocks at a time whatever the record
# length, so this cap bounds run time, not memory: it stops a request of
# 1e300 samples from running for ever
_MAX_SAMPLES = 1 << 26

# Synthesis colors its noise in FFT frames of at least this many samples (and
# at least two filter lengths): eight filter lengths at the default Welch
# segment of 2048. On 2^24 samples, frames of 2^16 took a fifth more time,
# and frames of 2^18 6 MB more peak RSS. The frame size fixes the rounding
# of every sample, so changing it changes the records of every seed
_FRAME_SAMPLES = 1 << 17

# Welch windows and transforms its segments in batches of this many samples
# (at least one segment); the batch size only bounds the working set and
# changes no output, since periodograms are summed in segment order anyway.
# 2^14 samples are 8 segments at the default 2048, and their buffers take
# about 0.3 MiB where batches of 2^16 took 1.3 MiB: on 2^24 samples, 1 MB
# less peak RSS. Batches of one segment (2^11) doubled Welch's time on a
# 2^22-sample record, from numpy's cost per call
_WELCH_ROW_SAMPLES = 1 << 14


def synthesize_difference_current(model: SpectralModel, duration: float,
                                  sample_rate: float, seed: int,
                                  segment_length: int) -> SynthesizedRecord:
    """Stationary Gaussian record whose one-sided PSD matches the model.

    White Gaussian noise from ``default_rng(seed)`` is convolved with a
    zero-phase FIR filter ``h = fftshift(irfft(sqrt(fs * S_k / 2)))`` of m
    taps. The grid of m points has spacing fs / m, an eighth of a bin of the
    Welch ``segment_length`` the record is meant for: m = 8 * segment_length,
    capped at an eighth of the record length (at least 1). A Welch estimate
    shows the PSD convolved with its window, so a finer grid would show
    nothing more, however narrow the feature. S_k is the target averaged
    over the grid cell of point k (cut to [0, fs / 2] at DC and Nyquist), not
    its value at the point, so sum(h^2), the record's variance, is the
    integral of the one-sided target for any feature width.

    The record is colored block by block as it is read (see
    :class:`SynthesizedRecord`) and is fully determined by the seed. The
    sample count is the smallest power of two covering the requested
    duration. Rejects sample rates that would alias the feature (needs
    sample_rate > 2 * (center + 5 * bandwidth)), records above
    ``_MAX_SAMPLES``, and PSD levels whose scale n * sample_rate * S
    overflows.
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
    # a longer filter's overlap-save frames would take as much memory as
    # coloring the whole record at once
    m = min(8 * segment_length, max(1, n // 8))
    edges = np.arange(-0.5, m // 2 + 1) * (sample_rate / m)
    np.clip(edges, 0.0, 0.5 * sample_rate, out=edges)
    amplitude = model.cell_means(edges[:-1], edges[1:])
    amplitude *= 0.5 * sample_rate
    np.sqrt(amplitude, out=amplitude)
    taps = np.fft.fftshift(np.fft.irfft(amplitude, m))
    return SynthesizedRecord(n, sample_rate, seed, taps)


def estimate_psd(rec: PhotocurrentRecord | SynthesizedRecord, segment_length: int,
                 overlap_fraction: float = 0.5) -> SpectrumEstimate:
    """Welch-averaged one-sided periodogram with a Hann window.

    The window power is compensated so densities are unbiased; integrating
    the estimate across a pure tone's peak returns the tone power A^2/2.

    The record is read block by block, and segments are strided views of
    each block, windowed and transformed ``_WELCH_ROW_SAMPLES`` samples at a
    time (at least one segment). The batch's windowed segments, spectra and
    periodograms are allocated once per call and filled in place, batch
    after batch. The samples after a block's last whole segment carry over;
    only the segments that start there and end in the next block are
    gathered into a small bridge array, so the working set stays fixed as
    the record grows. The periodograms are summed strictly in segment
    order, each added to the running sum in turn (never pairwise), which
    makes the estimate bit-identical to a segment-by-segment loop over the
    whole record. The record's blocks are closed before this returns, so a
    synthesized record's worker thread has ended by then.
    """
    n = rec.size
    if segment_length < 4 or (segment_length & (segment_length - 1)) != 0:
        raise ValueError("segment_length must be a power of two >= 4")
    if segment_length > n:
        raise ValueError(f"segment_length {segment_length} exceeds record length {n}")
    if not 0.0 <= overlap_fraction <= 0.9:
        raise ValueError("overlap_fraction must lie in [0, 0.9]")
    step = max(1, int(round(segment_length * (1.0 - overlap_fraction))))
    window = 0.5 - 0.5 * np.cos(2.0 * math.pi * np.arange(segment_length) / segment_length)
    win_power = float(np.sum(window**2))
    count = (n - segment_length) // step + 1
    rows = min(max(1, _WELCH_ROW_SAMPLES // segment_length), count)
    acc = np.zeros(segment_length // 2 + 1)
    # row 0 of power carries the running sum, so each reduce over axis 0 adds
    # the batch's periodograms to it one after another, in segment order
    windowed = np.empty((rows, segment_length))
    spectra = np.empty((rows, acc.size), dtype=complex)
    power = np.empty((rows + 1, acc.size))

    def add_segments(data):
        """Add the periodograms of the segments starting at data[0], data[step],
        ... to acc in order, and return how many there were."""
        if data.size < segment_length:
            return 0
        segments = np.lib.stride_tricks.sliding_window_view(data, segment_length)[::step]
        for first in range(0, segments.shape[0], rows):
            chunk = segments[first : first + rows]
            k = chunk.shape[0]
            np.multiply(chunk, window, out=windowed[:k])
            np.fft.rfft(windowed[:k], out=spectra[:k])
            np.abs(spectra[:k], out=power[1 : k + 1])
            power[1 : k + 1] **= 2
            power[0] = acc
            np.add.reduce(power[: k + 1], axis=0, out=acc)
        return segments.shape[0]

    # tail holds the samples from the next segment's start to the end of the
    # blocks read so far, always fewer than segment_length
    tail = np.empty(0)
    with closing(rec.blocks()) as blocks:
        for block in blocks:
            start = 0
            if tail.size:
                # every segment that starts in tail ends within its first
                # segment_length - 1 samples of the block
                bridge = np.concatenate((tail, block[: segment_length - 1]))
                start = add_segments(bridge) * step - tail.size
                if start < 0:
                    # the block is too short to end them all, so the bridge
                    # holds all of it
                    tail = bridge[tail.size + start :]
                    continue
            # a copy, not a view: a view would keep the whole block alive
            tail = block[start + add_segments(block[start:]) * step :].copy()
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


class SqueezingFeature(_Record):
    """A located spectral feature: center in Hz, depth in dB (negative = dip)."""

    __slots__ = ("center", "depth_db")


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

    def edge(step, stop):
        # the farthest bin above half maximum walking from idx towards stop
        last, gap, k = idx, 0, idx
        while k != stop and gap <= smooth_bins:
            k += step
            if search[k] > half:
                last, gap = k, 0
            else:
                gap += 1
        return last

    lo, hi = edge(-1, 1), edge(1, search.size - 1)
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
        "schema": "blodyne.spectrum_estimate/3",
        "resolution_hz": est.resolution,
        "n_averages": est.n_averages,
        "frequencies_hz": [float(f) for f in est.frequencies],
        "psd_variance_per_hz": [float(s) for s in est.psd],
    }


def spectrum_outputs(cfg: ExperimentConfig, with_files: bool):
    """What the ``spectrum`` subcommand writes for a resolved config.

    Builds the config's spectral model, synthesizes its record, estimates
    the PSD and locates the feature. Returns the summary lines and, if
    ``with_files``, the names of ``spectrum.csv`` and ``spectrum.json``
    with their text in chunks, else no files; the JSON is encoded chunk by
    chunk as it is written, as ``json.dump`` does. Synthesis, estimation
    and location are looked up as this module's names at each call, so a
    wrapper set on one of them sees the call.
    """
    sp = cfg.spectrum
    if cfg.two_tone:
        model = SpectralModel.for_blo(
            cfg.squeeze, cfg.tones[0], cfg.tones[1], cfg.plan, cfg.case,
            bandwidth=sp["squeezing_bandwidth_hz"], profile=sp["profile"],
        )
    else:
        model = SpectralModel.for_standard(
            cfg.squeeze, cfg.tones[0], cfg.plan,
            bandwidth=sp["squeezing_bandwidth_hz"], profile=sp["profile"],
        )
    segment_length = sp["segment_length"]
    rec = synthesize_difference_current(
        model, duration=sp["duration_s"], sample_rate=sp["sample_rate_hz"], seed=cfg.seed,
        segment_length=segment_length,
    )
    est = estimate_psd(rec, segment_length, sp["overlap"])
    feature = locate_squeezing_feature(est, model.noise_floor)
    summary = ["model_center_hz,model_floor,model_level,n_averages",
               f"{model.center_frequency:.17g},{model.noise_floor:.17g},"
               f"{model.dip_or_peak_level:.17g},{est.n_averages}"]
    if feature is None:
        summary.append("feature: none")
    else:
        summary.append(f"feature: center_hz {feature.center:.17g} "
                       f"depth_db {feature.depth_db:.17g}")
    if not with_files:
        return summary, ()
    payload = {"format_version": FORMAT_VERSION, "config": cfg.resolved,
               "spectrum": spectrum_to_json_dict(est)}
    return summary, (
        ("spectrum.csv", ("\n".join(spectrum_csv_lines(est, header_lines(cfg))) + "\n",)),
        ("spectrum.json", itertools.chain(json.JSONEncoder(sort_keys=True).iterencode(payload),
                                          ("\n",))),
    )
