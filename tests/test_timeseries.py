import json
import math
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

from blodyne import timeseries
from blodyne.detection import FrequencyPlan, ImageBandCase, LoTone
from blodyne.gaussian import SqueezeParams
from blodyne.timeseries import (_FRAME_SAMPLES, _WELCH_ROW_SAMPLES,
                                PhotocurrentRecord, SpectralModel, SpectrumEstimate,
                                SynthesizedRecord, estimate_psd,
                                locate_squeezing_feature, spectrum_csv_lines,
                                spectrum_to_json_dict,
                                synthesize_difference_current)

FS_BLO = 2.0971520e6
FS_STD = 16.777216e6


def flat_model(level=8.0):
    return SpectralModel(center_frequency=1e5, squeezing_bandwidth=5e4,
                         noise_floor=level, dip_or_peak_level=level)


def smallest_lorentzian_bandwidth():
    """The smallest bandwidth whose half squared is a normal float."""
    bandwidth = 2.0 * math.sqrt(sys.float_info.min)
    while (0.5 * bandwidth) ** 2 < sys.float_info.min:
        bandwidth = math.nextafter(bandwidth, math.inf)
    return bandwidth


def target_integral(model, sample_rate):
    """The one-sided target integrated over [0, sample_rate / 2], in closed form."""
    c, half, top = model.center_frequency, 0.5 * model.squeezing_bandwidth, 0.5 * sample_rate
    if model.profile == "lorentzian":
        area = half * (math.atan((top - c) / half) - math.atan(-c / half))
    else:
        area = max(0.0, min(top, c + half) - max(0.0, c - half))
    return model.noise_floor * top + (model.dip_or_peak_level - model.noise_floor) * area


class TestSpectralModel:
    def test_psd_shapes(self):
        m = SpectralModel(center_frequency=1e5, squeezing_bandwidth=5e4,
                          noise_floor=8.0, dip_or_peak_level=4.0)
        f = np.array([0.0, 1e5, 1e5 + 2.5e4, 1e6])
        psd = m.psd(f)
        assert psd[1] == pytest.approx(4.0)
        assert psd[2] == pytest.approx(6.0)  # half depth at half bandwidth
        assert psd[3] == pytest.approx(8.0, rel=1e-2)

    def test_flat_top_profile(self):
        m = SpectralModel(center_frequency=1e5, squeezing_bandwidth=5e4,
                          noise_floor=8.0, dip_or_peak_level=4.0, profile="flat_top")
        psd = m.psd(np.array([1e5, 1e5 + 2.4e4, 1e5 + 2.6e4]))
        assert psd[0] == 4.0 and psd[1] == 4.0 and psd[2] == 8.0

    def test_validation(self):
        with pytest.raises(ValueError):
            SpectralModel(center_frequency=-1.0, squeezing_bandwidth=1.0,
                          noise_floor=1.0, dip_or_peak_level=1.0)
        with pytest.raises(ValueError):
            SpectralModel(center_frequency=0.0, squeezing_bandwidth=1.0,
                          noise_floor=1.0, dip_or_peak_level=1.0, profile="boxcar")

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("name", ["center_frequency", "squeezing_bandwidth",
                                      "noise_floor", "dip_or_peak_level"])
    def test_rejects_non_finite_fields(self, name, value):
        # flat_top has no check of its own on the bandwidth: a nan one would
        # make a model with no feature, which synthesis then cannot color
        fields = dict(center_frequency=1e5, squeezing_bandwidth=5e4, noise_floor=8.0,
                      dip_or_peak_level=4.0, profile="flat_top")
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            SpectralModel(**dict(fields, **{name: value}))

    @pytest.mark.parametrize("profile", ["lorentzian", "flat_top"])
    def test_cell_means_match_a_midpoint_sum(self, profile):
        # bands across the 5e4 Hz feature at 1e5 Hz, some straddling its
        # center or the flat_top edges, some wholly to one side of them
        model = dip_model(profile)
        edges = np.array([0.0, 3e3, 5e4, 7.4e4, 9e4, 1e5, 1.07e5, 1.3e5, 2e5, 1e6])
        lower, upper = edges[:-1], edges[1:]
        points = 1 << 16
        expected = [np.mean(model.psd(a + (b - a) * (np.arange(points) + 0.5) / points))
                    for a, b in zip(lower, upper)]
        # the midpoint sum misplaces a flat_top edge by at most half a step
        rel = 1e-8 if profile == "lorentzian" else 1e-4
        assert model.cell_means(lower, upper) == pytest.approx(expected, rel=rel)

    def test_from_detection_reports(self):
        p = SqueezeParams(s=10.0, theta=0.0)
        omega_minus = float(2**50)
        delta = float(2**23)
        fp = FrequencyPlan(omega_plus=omega_minus + delta, omega_minus=omega_minus,
                           lo_frequencies=(omega_minus + 2**18,
                                           omega_minus + delta - 2**18))
        lo1 = LoTone(amplitude=1.0, phase=math.pi)
        lo2 = LoTone(amplitude=1.0, phase=0.0)
        m = SpectralModel.for_blo(p, lo1, lo2, fp, ImageBandCase.TWO_IMAGE_BANDS,
                                  bandwidth=5e4)
        assert m.center_frequency == pytest.approx(2**18 / (2 * math.pi))
        assert m.noise_floor == pytest.approx(8.0)
        assert m.dip_or_peak_level == pytest.approx(4.0 * (1 + math.exp(-20.0)))


class TestSynthesis:
    def test_deterministic_given_seed(self):
        a = synthesize_difference_current(flat_model(), 0.01, FS_BLO, seed=3,
                                          segment_length=2048)
        b = synthesize_difference_current(flat_model(), 0.01, FS_BLO, seed=3,
                                          segment_length=2048)
        c = synthesize_difference_current(flat_model(), 0.01, FS_BLO, seed=4,
                                          segment_length=2048)
        assert np.array_equal(a.samples, b.samples)
        assert not np.array_equal(a.samples, c.samples)

    def test_power_of_two_length(self):
        rec = synthesize_difference_current(flat_model(), 0.01, FS_BLO, seed=0,
                                            segment_length=2048)
        n = rec.samples.size
        assert n & (n - 1) == 0
        assert n >= 0.01 * FS_BLO
        assert rec.size == n and rec.duration == n / FS_BLO

    def test_aliasing_rejected(self):
        m = SpectralModel(center_frequency=5e6, squeezing_bandwidth=5e4,
                          noise_floor=2.0, dip_or_peak_level=1.0)
        with pytest.raises(ValueError, match="alias"):
            synthesize_difference_current(m, 0.01, 1e6, seed=0, segment_length=2048)

    @pytest.mark.parametrize("profile,bandwidth", [
        ("lorentzian", 1.0), ("lorentzian", smallest_lorentzian_bandwidth()),
        ("flat_top", 1.0), ("flat_top", 5e-324),
    ], ids=["lorentzian_1hz", "lorentzian_narrowest", "flat_top_1hz", "flat_top_narrowest"])
    @pytest.mark.parametrize("center", [0.0, 1e5 + 17.0], ids=["dc", "off_grid"])
    # at 2^900 Hz the detunings in half widths overflow
    @pytest.mark.parametrize("sample_rate", [FS_BLO, 2.0**900], ids=["fs_blo", "fs_huge"])
    def test_taps_keep_the_target_integral_for_any_width(self, profile, bandwidth, center,
                                                         sample_rate):
        # a feature far narrower than a grid cell adds its whole area to that
        # cell, so sum(h^2), the record's variance, stays the integral of the
        # target, with no numpy warning down to the narrowest feature
        model = SpectralModel(center_frequency=center, squeezing_bandwidth=bandwidth,
                              noise_floor=8.0, dip_or_peak_level=8.0 + 8192.0,
                              profile=profile)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rec = synthesize_difference_current(model, (1 << 20) / sample_rate, sample_rate,
                                                seed=0, segment_length=2048)
        assert rec.taps.size == 8 * 2048
        assert float(np.sum(rec.taps**2)) == pytest.approx(
            target_integral(model, sample_rate), rel=1e-12)

    def test_smallest_lorentzian_bandwidth_is_the_models_floor(self):
        bandwidth = smallest_lorentzian_bandwidth()
        with pytest.raises(ValueError, match="lorentzian"):
            SpectralModel(center_frequency=0.0, squeezing_bandwidth=math.nextafter(bandwidth, 0.0),
                          noise_floor=8.0, dip_or_peak_level=3.0)

    def test_variance_matches_target_integral(self):
        rec = synthesize_difference_current(flat_model(), 1.0, FS_BLO, seed=11,
                                            segment_length=2048)
        target = 8.0 * FS_BLO / 2.0  # flat one-sided density times Nyquist band
        assert rec.samples.var() == pytest.approx(target, rel=2e-2)

    @pytest.mark.parametrize("field,value", [
        ("taps", np.array([1.0, math.nan])),
        ("taps", np.array([1.0, math.inf])),
        ("taps", np.empty(0)),
        ("taps", np.ones((2, 2))),
        ("size", 0),
        ("size", -4),
        ("sample_rate", 0.0),
        ("sample_rate", -FS_BLO),
        ("sample_rate", math.inf),
        ("sample_rate", math.nan),
        ("seed", -1),
    ])
    def test_record_rejects_invalid_fields(self, field, value):
        fields = dict(size=1 << 10, sample_rate=FS_BLO, seed=0, taps=np.ones(8))
        with pytest.raises(ValueError, match=f"^{field} must"):
            SynthesizedRecord(**dict(fields, **{field: value}))


class TestWelch:
    def test_white_noise_level_and_parseval(self):
        rec = synthesize_difference_current(flat_model(1.0), 1.0, FS_BLO, seed=5,
                                            segment_length=8192)
        est = estimate_psd(rec, 8192, 0.5)
        assert est.n_averages >= 256
        assert est.psd[1:-1].mean() == pytest.approx(1.0, rel=2e-2)
        assert est.total_power() == pytest.approx(float(rec.samples.var()), rel=1e-2)

    def test_sinusoid_integrated_peak(self):
        fs = 1.024e6
        n = 1 << 20
        t = np.arange(n) / fs
        x = np.cos(2.0 * math.pi * 1.0e4 * t)  # on-bin for a 4096 segment
        rec = PhotocurrentRecord(samples=x, sample_rate=fs)
        est = estimate_psd(rec, 4096, 0.5)
        k0 = int(round(1.0e4 / est.resolution))
        peak = float(np.sum(est.psd[k0 - 5 : k0 + 6]) * est.resolution)
        assert peak == pytest.approx(0.5, rel=1e-2)

    def test_zero_record(self):
        rec = PhotocurrentRecord(samples=np.zeros(4096), sample_rate=FS_BLO)
        est = estimate_psd(rec, 1024, 0.5)
        assert np.all(est.psd == 0.0)

    def test_segment_validation(self):
        rec = PhotocurrentRecord(samples=np.zeros(2048), sample_rate=FS_BLO)
        with pytest.raises(ValueError, match="exceeds record"):
            estimate_psd(rec, 4096, 0.5)
        with pytest.raises(ValueError, match="power of two"):
            estimate_psd(rec, 1000, 0.5)
        with pytest.raises(ValueError, match="overlap"):
            estimate_psd(rec, 1024, 0.95)

    def test_record_length_validation(self):
        with pytest.raises(ValueError, match="power of two"):
            PhotocurrentRecord(samples=np.zeros(1000), sample_rate=FS_BLO)


class TestFeatureLocation:
    def test_flat_gives_no_feature(self):
        rec = synthesize_difference_current(flat_model(), 1.0, FS_BLO, seed=7,
                                            segment_length=2048)
        est = estimate_psd(rec, 2048, 0.5)
        assert locate_squeezing_feature(est, 8.0) is None

    def test_dip_round_trip(self):
        m = SpectralModel(center_frequency=1e5, squeezing_bandwidth=5e4,
                          noise_floor=8.0, dip_or_peak_level=4.0)
        rec = synthesize_difference_current(m, 0.25, FS_BLO, seed=21, segment_length=2048)
        est = estimate_psd(rec, 2048, 0.5)
        feat = locate_squeezing_feature(est, 8.0)
        assert feat is not None
        assert abs(feat.center - 1e5) <= 2.0 * est.resolution
        assert feat.depth_db == pytest.approx(-3.0103, abs=0.5)

    def test_peak_round_trip(self):
        level = 4.0 * math.exp(2.0) + 2.0
        m = SpectralModel(center_frequency=1e5, squeezing_bandwidth=5e4,
                          noise_floor=4.0, dip_or_peak_level=level)
        rec = synthesize_difference_current(m, 0.25, FS_BLO, seed=3, segment_length=2048)
        est = estimate_psd(rec, 2048, 0.5)
        feat = locate_squeezing_feature(est, 4.0)
        assert feat is not None
        assert feat.depth_db == pytest.approx(10.0 * math.log10(level / 4.0), abs=0.5)
        assert feat.depth_db > 0.0

    def test_floor_recovered_off_feature(self):
        m = SpectralModel(center_frequency=1e5, squeezing_bandwidth=5e4,
                          noise_floor=8.0, dip_or_peak_level=4.0)
        rec = synthesize_difference_current(m, 0.5, FS_BLO, seed=9, segment_length=2048)
        est = estimate_psd(rec, 2048, 0.5)
        away = est.frequencies > 5e5
        assert est.psd[away].mean() == pytest.approx(8.0, rel=2e-2)

    def test_randomized_round_trips(self):
        # feature placement within 2 bins across randomized configurations
        rng = np.random.default_rng(123)
        for _ in range(20):
            center = float(rng.uniform(6e4, 4e5))
            # contrast at least a quarter of the floor, else localization is
            # noise-limited at these averaging depths
            depth = float(rng.uniform(0.3, 0.75))
            m = SpectralModel(center_frequency=center, squeezing_bandwidth=5e4,
                              noise_floor=8.0, dip_or_peak_level=8.0 * depth)
            rec = synthesize_difference_current(m, 0.25, FS_BLO,
                                                seed=int(rng.integers(1 << 31)),
                                                segment_length=2048)
            est = estimate_psd(rec, 2048, 0.5)
            feat = locate_squeezing_feature(est, 8.0)
            assert feat is not None
            assert abs(feat.center - center) <= 2.0 * est.resolution


class TestEmission:
    def test_spectrum_csv(self):
        rec = synthesize_difference_current(flat_model(), 0.002, FS_BLO, seed=1,
                                            segment_length=1024)
        est = estimate_psd(rec, 1024, 0.5)
        lines = spectrum_csv_lines(est, header_lines=["config: {}"])
        assert lines[0] == "# config: {}"
        assert "frequency_hz,psd_variance_per_hz" in lines
        header_idx = lines.index("frequency_hz,psd_variance_per_hz")
        assert len(lines) - header_idx - 1 == est.psd.size

    def test_json_schemas_round_trip(self):
        rec = synthesize_difference_current(flat_model(), 0.0005, FS_BLO, seed=1,
                                            segment_length=256)
        est = estimate_psd(rec, 256, 0.5)
        spec_doc = json.loads(json.dumps(spectrum_to_json_dict(est)))
        assert spec_doc["schema"] == "blodyne.spectrum_estimate/3"
        assert len(spec_doc["frequencies_hz"]) == len(spec_doc["psd_variance_per_hz"])

    def test_estimate_arrays_immutable(self):
        est = SpectrumEstimate(frequencies=np.arange(4.0), psd=np.ones(4),
                               resolution=1.0, n_averages=1)
        with pytest.raises(ValueError):
            est.psd[0] = 2.0

    # a 0-d pair would be stored as the caller's own writeable arrays
    @pytest.mark.parametrize("freqs,psd", [(np.array(1.0), np.array(2.0)),
                                           (np.arange(4.0), np.ones(3))],
                             ids=["zero-dimensional", "mismatched"])
    def test_estimate_arrays_must_be_one_dimensional_and_match(self, freqs, psd):
        with pytest.raises(ValueError, match="one-dimensional and match"):
            SpectrumEstimate(frequencies=freqs, psd=psd, resolution=1.0, n_averages=1)

    def test_records_leave_the_callers_arrays_writeable(self):
        samples, freqs, psd = np.zeros(4096), np.arange(4.0), np.ones(4)
        rec = PhotocurrentRecord(samples=samples, sample_rate=FS_BLO)
        est = SpectrumEstimate(frequencies=freqs, psd=psd, resolution=1.0, n_averages=1)
        for given, stored in ((samples, rec.samples), (freqs, est.frequencies),
                              (psd, est.psd)):
            assert given.flags.writeable
            assert not stored.flags.writeable
            assert np.shares_memory(given, stored)


# References: the straightforward forms of synthesis and Welch estimation.
# Welch must match its reference bit for bit; streamed synthesis sums its
# convolutions by FFT, so it matches the direct sums to rounding.


def cell_edges(m, sample_rate):
    """Edges of the cells of the m-point filter grid, cut to [0, sample_rate / 2]."""
    edges = (np.arange(m // 2 + 2) - 0.5) * (sample_rate / m)
    return np.clip(edges, 0.0, 0.5 * sample_rate)


def reference_samples(model, n, sample_rate, seed, m):
    """The record as one direct convolution of all its noise with the m-tap
    filter, whose response is the target averaged over each grid cell."""
    edges = cell_edges(m, sample_rate)
    means = model.cell_means(edges[:-1], edges[1:])
    taps = np.fft.fftshift(np.fft.irfft(np.sqrt(0.5 * sample_rate * means), m))
    noise = np.random.default_rng(seed).standard_normal(n + m - 1)
    return np.convolve(noise, taps, mode="valid"), taps


def reference_welch_psd(samples, sample_rate, segment_length, overlap_fraction):
    """Welch estimate with one periodogram per loop iteration."""
    n = samples.size
    step = max(1, int(round(segment_length * (1.0 - overlap_fraction))))
    window = 0.5 - 0.5 * np.cos(2.0 * math.pi * np.arange(segment_length) / segment_length)
    win_power = float(np.sum(window**2))
    acc = np.zeros(segment_length // 2 + 1)
    count = 0
    for start in range(0, n - segment_length + 1, step):
        seg = samples[start : start + segment_length] * window
        acc += np.abs(np.fft.rfft(seg)) ** 2
        count += 1
    acc /= count
    psd = 2.0 * acc / (sample_rate * win_power)
    psd[0] /= 2.0
    psd[-1] /= 2.0
    return psd, count


def dip_model(profile):
    return SpectralModel(center_frequency=1e5, squeezing_bandwidth=5e4, noise_floor=8.0,
                         dip_or_peak_level=3.0, profile=profile)


def window_convolved_target(model, sample_rate, segment_length, m):
    """The mean a Welch estimate shows for the target averaged over the cells
    of the m-point filter grid: the cell means, as a two-sided periodic
    spectrum on that grid, circularly convolved with the Hann window's power
    response, read at the Welch bins (m is a multiple of segment_length).
    The DC and Nyquist bins are not halved."""
    edges = cell_edges(m, sample_rate)
    means = model.cell_means(edges[:-1], edges[1:])
    two_sided = np.concatenate((means, means[-2:0:-1]))
    window = 0.5 - 0.5 * np.cos(2.0 * math.pi * np.arange(segment_length) / segment_length)
    power = np.abs(np.fft.fft(window, m)) ** 2
    convolved = np.fft.irfft(np.fft.rfft(two_sided) * np.fft.rfft(power), m)
    # the power response sums to m * sum(window^2)
    return convolved[:: m // segment_length][: segment_length // 2 + 1] / (
        m * float(np.sum(window**2)))


def block_sizes(rec):
    return [block.size for block in rec.blocks()]


class TestBitIdentity:
    @pytest.mark.parametrize("profile", ["lorentzian", "flat_top"])
    @pytest.mark.parametrize("n", [2, 4, 1 << 16, 1 << 20])
    def test_synthesis_matches_reference(self, profile, n):
        # 2^20 samples take several FFT frames, so block seams are covered; a
        # 64-sample segment sets 8 * 64 = 512 taps
        model = dip_model(profile)
        rec = synthesize_difference_current(model, n / FS_BLO, FS_BLO, seed=17,
                                            segment_length=64)
        assert rec.samples.size == n
        expected, taps = reference_samples(model, n, FS_BLO, 17, rec.taps.size)
        assert np.array_equal(rec.taps, taps)
        rms = math.sqrt(float(np.sum(taps**2)))
        assert np.max(np.abs(rec.samples - expected)) <= 1e-12 * rms

    @pytest.mark.parametrize("segment_length,overlap", [
        (1024, 0.0),
        (2048, 0.5),   # 255 segments: the last block is partial
        (256, 0.9),    # 10 073 segments over three blocks, the last partial
        (4, 0.5),      # three bins a periodogram
    ])
    def test_welch_matches_reference(self, segment_length, overlap):
        rec = synthesize_difference_current(dip_model("lorentzian"), (1 << 18) / FS_BLO,
                                            FS_BLO, seed=5, segment_length=segment_length)
        est = estimate_psd(rec, segment_length, overlap)
        psd, count = reference_welch_psd(rec.samples, FS_BLO, segment_length, overlap)
        assert est.n_averages == count
        assert np.array_equal(est.psd, psd)

    def test_welch_segment_count_not_a_block_multiple(self):
        segment_length = 2048
        rows = _WELCH_ROW_SAMPLES // segment_length
        rec = synthesize_difference_current(dip_model("flat_top"), (1 << 18) / FS_BLO,
                                            FS_BLO, seed=6, segment_length=segment_length)
        est = estimate_psd(rec, segment_length, 0.5)
        assert est.n_averages > rows and est.n_averages % rows != 0
        psd, _ = reference_welch_psd(rec.samples, FS_BLO, segment_length, 0.5)
        assert np.array_equal(est.psd, psd)

    @pytest.mark.parametrize("segment_length,overlap", [(2048, 0.5), (256, 0.9)])
    def test_welch_batch_size_changes_no_output(self, monkeypatch, segment_length, overlap):
        # from one segment a batch to more than the whole record
        rec = synthesize_difference_current(dip_model("lorentzian"), (1 << 18) / FS_BLO,
                                            FS_BLO, seed=19, segment_length=segment_length)
        estimates = []
        for batch in (1 << 11, 1 << 14, 1 << 16, 1 << 20):
            monkeypatch.setattr(timeseries, "_WELCH_ROW_SAMPLES", batch)
            estimates.append(estimate_psd(rec, segment_length, overlap))
        for est in estimates[1:]:
            assert est.n_averages == estimates[0].n_averages
            assert np.array_equal(est.psd, estimates[0].psd)

    def test_welch_single_segment(self):
        rec = synthesize_difference_current(dip_model("lorentzian"), 4096 / FS_BLO,
                                            FS_BLO, seed=8, segment_length=4096)
        est = estimate_psd(rec, 4096, 0.9)
        psd, count = reference_welch_psd(rec.samples, FS_BLO, 4096, 0.9)
        assert est.n_averages == count == 1
        assert np.array_equal(est.psd, psd)

    def test_welch_segments_straddle_block_seams(self):
        rec = synthesize_difference_current(dip_model("flat_top"), (1 << 20) / FS_BLO,
                                            FS_BLO, seed=9, segment_length=2048)
        seams = np.cumsum(block_sizes(rec))[:-1]
        # 1024-sample steps: a seam off the step grid cuts the segment across it
        assert seams.size >= 3 and np.all(seams % 1024 != 0)
        est = estimate_psd(rec, 2048, 0.5)
        psd, count = reference_welch_psd(rec.samples, FS_BLO, 2048, 0.5)
        assert est.n_averages == count
        assert np.array_equal(est.psd, psd)

    def test_welch_segment_longer_than_a_block(self):
        # the filter is capped at 2^17 taps, so its 2^18-sample frames give
        # blocks of 2^17 + 1 samples
        segment_length = 1 << 19
        rec = synthesize_difference_current(dip_model("lorentzian"), (1 << 20) / FS_BLO,
                                            FS_BLO, seed=10, segment_length=segment_length)
        assert max(block_sizes(rec)) < segment_length
        est = estimate_psd(rec, segment_length, 0.5)
        psd, count = reference_welch_psd(rec.samples, FS_BLO, segment_length, 0.5)
        assert est.n_averages == count == 3
        assert np.array_equal(est.psd, psd)

    def test_welch_matches_reference_where_the_filter_cap_binds(self):
        # eight grid points a bin of a 2^16 segment ask for 2^19 taps; the
        # record caps them at 2^17, so blocks are 2^17 + 1 samples, two segments
        segment_length = 1 << 16
        rec = synthesize_difference_current(dip_model("lorentzian"), (1 << 20) / FS_BLO,
                                            FS_BLO, seed=16, segment_length=segment_length)
        assert rec.taps.size == 1 << 17
        est = estimate_psd(rec, segment_length, 0.5)
        psd, count = reference_welch_psd(rec.samples, FS_BLO, segment_length, 0.5)
        assert est.n_averages == count
        assert np.array_equal(est.psd, psd)

    def test_welch_matches_reference_for_a_narrow_feature(self):
        # the feature width does not size the filter: a 1 Hz feature gets the
        # 8 * 2048 taps of the Welch segment, as a 50 kHz one does
        model = SpectralModel(center_frequency=1e5, squeezing_bandwidth=1.0,
                              noise_floor=8.0, dip_or_peak_level=3.0)
        rec = synthesize_difference_current(model, (1 << 20) / FS_BLO, FS_BLO, seed=18,
                                            segment_length=2048)
        assert rec.taps.size == 8 * 2048
        est = estimate_psd(rec, 2048, 0.5)
        psd, count = reference_welch_psd(rec.samples, FS_BLO, 2048, 0.5)
        assert est.n_averages == count
        assert np.array_equal(est.psd, psd)


def one_thread_blocks(rec, frame_size):
    """The record's blocks, colored by overlap-save in one frame refilled in place."""
    keep = rec.taps.size - 1
    response = np.fft.rfft(rec.taps, frame_size)
    rng = np.random.default_rng(rec.seed)
    frame = np.zeros(frame_size)
    rng.standard_normal(out=frame[:keep])
    expected = []
    done = 0
    while done < rec.size:
        k = min(frame_size - keep, rec.size - done)
        rng.standard_normal(out=frame[keep : keep + k])
        spectrum = np.fft.rfft(frame)
        spectrum *= response
        expected.append(np.fft.irfft(spectrum, frame_size)[keep : keep + k])
        frame[:keep] = frame[k : k + keep]
        done += k
    return expected


class TestWorker:
    """A synthesized record colors its frames on one worker thread."""

    def record(self, seed):
        # ten frames of 2^17 samples, each giving 2^17 - 16 383 new samples
        return synthesize_difference_current(dip_model("lorentzian"), (1 << 20) / FS_BLO,
                                             FS_BLO, seed=seed, segment_length=2048)

    def test_blocks_match_one_thread_coloring(self):
        # the last of the ten frames is short, so its stale end counts too
        rec = self.record(22)
        keep = rec.taps.size - 1
        frame_size = _FRAME_SAMPLES
        assert rec.size % (frame_size - keep) != 0
        expected = one_thread_blocks(rec, frame_size)
        blocks = [block.copy() for block in rec.blocks()]
        assert len(blocks) == len(expected) == 10
        assert all(np.array_equal(a, b) for a, b in zip(blocks, expected))

    @pytest.mark.parametrize("n,frame_size,frames", [
        # one frame: the record's 2^16 samples and 8191 lead-in fit 2^17
        (1 << 16, 1 << 17, 1),
        # 2^17 samples with 16 384 taps: the second frame holds 16 383
        (1 << 17, _FRAME_SAMPLES, 2),
    ], ids=["one_frame", "short_second_frame"])
    def test_end_of_record_matches_one_thread_coloring(self, n, frame_size, frames):
        rec = synthesize_difference_current(dip_model("lorentzian"), n / FS_BLO, FS_BLO,
                                            seed=23, segment_length=2048)
        expected = one_thread_blocks(rec, frame_size)
        blocks = [block.copy() for block in rec.blocks()]
        assert len(blocks) == len(expected) == frames
        assert all(np.array_equal(a, b) for a, b in zip(blocks, expected))

    def test_worker_exception_surfaces_with_its_type(self, monkeypatch):
        class ColoringFailed(Exception):
            pass

        rec = self.record(19)
        irfft = np.fft.irfft
        callers = []

        def failing(*args, **kwargs):
            callers.append(threading.get_ident())
            if len(callers) == 3:
                raise ColoringFailed("third frame")
            return irfft(*args, **kwargs)

        monkeypatch.setattr(np.fft, "irfft", failing)
        before = threading.active_count()
        with pytest.raises(ColoringFailed, match="third frame"):
            estimate_psd(rec, 2048, 0.5)
        # the frames were colored off the caller's thread, and that thread is gone
        assert len(callers) == 3 and threading.get_ident() not in callers
        assert threading.active_count() == before

    def test_breaking_out_joins_the_worker(self):
        rec = self.record(20)
        before = threading.active_count()
        for _ in rec.blocks():
            during = threading.active_count()
            break
        assert during == before + 1
        assert threading.active_count() == before

    def test_estimate_psd_leaves_no_thread(self):
        before = threading.active_count()
        estimate_psd(self.record(21), 2048, 0.5)
        assert threading.active_count() == before


class TestStream:
    def test_blocks_are_read_only_and_copies_give_the_record(self):
        # a block is a view of a frame that is colored again once the next
        # block is read, so a consumer that keeps the record copies each block
        rec = synthesize_difference_current(dip_model("lorentzian"), (1 << 20) / FS_BLO,
                                            FS_BLO, seed=15, segment_length=2048)
        copies = []
        for block in rec.blocks():
            assert not block.flags.writeable
            with pytest.raises(ValueError):
                block[0] = 0.0
            copies.append(block.copy())
        assert len(copies) == 10
        assert np.array_equal(np.concatenate(copies), rec.samples)

    @pytest.mark.parametrize("n", [2, 4, 2048])
    def test_record_shorter_than_the_filter(self, n):
        # the Welch segment asks for 8 * 2048 taps; the record caps them at n / 8
        model = dip_model("lorentzian")
        rec = synthesize_difference_current(model, n / FS_BLO, FS_BLO, seed=12,
                                            segment_length=2048)
        m = max(1, n // 8)
        assert rec.taps.size == m and block_sizes(rec) == [n]
        expected, _ = reference_samples(model, n, FS_BLO, 12, m)
        rms = math.sqrt(float(np.sum(rec.taps**2)))
        assert np.max(np.abs(rec.samples - expected)) <= 1e-12 * rms

    def test_samples_are_the_blocks_welch_reads(self, monkeypatch):
        rec = synthesize_difference_current(dip_model("lorentzian"), (1 << 20) / FS_BLO,
                                            FS_BLO, seed=14, segment_length=2048)
        seen = []
        blocks = SynthesizedRecord.blocks

        def recorded(self):
            for block in blocks(self):
                seen.append(block.copy())
                yield block

        monkeypatch.setattr(SynthesizedRecord, "blocks", recorded)
        estimate_psd(rec, 2048, 0.5)
        monkeypatch.undo()
        # a second read, for samples, gives the blocks again
        samples = rec.samples
        assert not samples.flags.writeable
        assert len(seen) > 1
        assert np.array_equal(np.concatenate(seen), samples)


class TestStatistics:
    """The mean Welch PSD of synthesized records over seeds is the target."""

    SEEDS = range(8)
    N = 1 << 20

    @pytest.mark.parametrize("segment_length,taps", [
        (2048, 8 * 2048),
        # 8 * N / 16 grid points would exceed the record's cap of N / 8 taps,
        # so the filter grid is two per Welch bin, not eight
        (N // 16, N // 8),
    ], ids=["taps_from_segment", "taps_capped"])
    @pytest.mark.parametrize("model,edges", [
        (dip_model("lorentzian"), ()),
        # a DC feature, as in the no-image-band configuration
        (SpectralModel(center_frequency=0.0, squeezing_bandwidth=5e4, noise_floor=4.0,
                       dip_or_peak_level=4.0 * math.exp(2.0) + 2.0), ()),
        (dip_model("flat_top"), (7.5e4, 1.25e5)),
    ], ids=["lorentzian_dip", "dc_peak", "flat_top_dip"])
    def test_mean_psd_within_standard_error(self, model, edges, segment_length, taps):
        estimates = []
        for seed in self.SEEDS:
            rec = synthesize_difference_current(model, self.N / FS_BLO, FS_BLO, seed=seed,
                                                segment_length=segment_length)
            assert rec.taps.size == taps
            estimates.append(estimate_psd(rec, segment_length, 0.5))
        mean = np.mean([est.psd for est in estimates], axis=0)
        freqs = estimates[0].frequencies
        target = model.psd(freqs)
        # Hann segments at 50% overlap: neighbours correlate by 0.167^2, so
        # a Welch average of K segments has relative variance 1.056 / K
        averages = estimates[0].n_averages * len(self.SEEDS)
        stderr = target * math.sqrt(1.056 / averages)
        # the one-sided convention halves the DC and Nyquist bins, and the
        # Hann main lobe straddles a flat_top step for 2 bins either side
        kept = np.ones(freqs.size, dtype=bool)
        kept[[0, -1]] = False
        for edge in edges:
            kept &= np.abs(freqs - edge) > 3.0 * estimates[0].resolution
        z = (mean[kept] - target[kept]) / stderr[kept]
        assert np.max(np.abs(z)) < 5.0

    @pytest.mark.parametrize("level", [3.0, 8.0 + 8192.0], ids=["dip", "tall_peak"])
    def test_narrow_feature_matches_the_window_convolved_target(self, level):
        # a 1 Hz lorentzian is far inside one 1024 Hz Welch bin, so the
        # estimate can show only the target convolved with the window; the
        # tall peak spreads its area over a few bins, near twice the floor
        model = SpectralModel(center_frequency=1e5, squeezing_bandwidth=1.0, noise_floor=8.0,
                              dip_or_peak_level=level)
        segment_length = 2048
        estimates = []
        for seed in self.SEEDS:
            rec = synthesize_difference_current(model, self.N / FS_BLO, FS_BLO, seed=seed,
                                                segment_length=segment_length)
            estimates.append(estimate_psd(rec, segment_length, 0.5))
        mean = np.mean([est.psd for est in estimates], axis=0)
        target = window_convolved_target(model, FS_BLO, segment_length, rec.taps.size)
        averages = estimates[0].n_averages * len(self.SEEDS)
        stderr = target * math.sqrt(1.056 / averages)
        z = (mean[1:-1] - target[1:-1]) / stderr[1:-1]
        assert np.max(np.abs(z)) < 5.0


def traced_peak(fn, *args):
    """Peak bytes traced by tracemalloc while fn runs, and fn's result."""
    tracemalloc.start()
    try:
        result = fn(*args)
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


def synthesize_and_estimate(n, segment_length, overlap, model=dip_model("lorentzian")):
    rec = synthesize_difference_current(model, n / FS_BLO, FS_BLO, seed=3,
                                        segment_length=segment_length)
    return estimate_psd(rec, segment_length, overlap)


class TestMemory:
    N = 1 << 20

    def test_synthesis_and_welch_peak_is_fixed(self):
        # one bound for both lengths, below the 32 MiB of a whole 2^22 record:
        # a few FFT frames and Welch blocks, the record never
        for n in (1 << 20, 1 << 22):
            peak, est = traced_peak(synthesize_and_estimate, n, 2048, 0.5)
            assert est.n_averages == n // 1024 - 1
            assert peak < 24 << 20

    def test_narrow_feature_peak_is_that_of_the_default(self):
        # the same bound as the default feature: the Welch segment sizes the
        # filter, so a 1 Hz feature takes the default's taps and frames
        model = SpectralModel(center_frequency=1e5, squeezing_bandwidth=1.0,
                              noise_floor=8.0, dip_or_peak_level=3.0)
        peak, est = traced_peak(synthesize_and_estimate, 1 << 22, 2048, 0.5, model)
        assert est.n_averages == (1 << 22) // 1024 - 1
        assert peak < 24 << 20

    @pytest.mark.parametrize("segment_length,overlap", [(2048, 0.5), (256, 0.9)])
    def test_welch_peak_is_fixed(self, segment_length, overlap):
        synthesized = synthesize_difference_current(dip_model("lorentzian"), self.N / FS_BLO,
                                                    FS_BLO, seed=3,
                                                    segment_length=segment_length)
        rec = PhotocurrentRecord(samples=synthesized.samples, sample_rate=FS_BLO)
        peak, _ = traced_peak(estimate_psd, rec, segment_length, overlap)
        # a few block-sized arrays, whatever the record length; windowing
        # every segment of this record at once would take 17 to 83 MB
        assert peak < 8 << 20

    @pytest.mark.parametrize("segment_length,overlap", [(2048, 0.5), (256, 0.9), (4, 0.5)])
    def test_welch_holds_one_batch(self, segment_length, overlap):
        rec = PhotocurrentRecord(samples=np.random.default_rng(3).standard_normal(self.N),
                                 sample_rate=FS_BLO)
        peak, _ = traced_peak(estimate_psd, rec, segment_length, overlap)
        # one batch of 2^14 samples, windowed, transformed and squared into
        # buffers allocated once: 0.45 to 0.59 MiB traced, where batches of
        # 2^16 samples took 1.26 to 1.63 MiB
        assert peak < 768 << 10

    def test_synthesized_welch_holds_five_frames(self):
        rec = synthesize_difference_current(dip_model("lorentzian"), self.N / FS_BLO, FS_BLO,
                                            seed=3, segment_length=2048)
        # the first read imports numpy.random, which tracemalloc would count
        estimate_psd(rec, 2048, 0.5)
        peak, _ = traced_peak(estimate_psd, rec, 2048, 0.5)
        # two frames of 2^17 samples, their spectrum, the filter response,
        # numpy's transform scratch and Welch's fixed batch: about 4.6 MiB,
        # where frames of 2^18 take 8.6 MiB
        assert peak < 8 << 20
