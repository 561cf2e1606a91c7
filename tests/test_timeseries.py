import json
import math

import numpy as np
import pytest

from blodyne.detection import FrequencyPlan, ImageBandCase, LoTone
from blodyne.gaussian import SqueezeParams
from blodyne.timeseries import (PhotocurrentRecord, SpectralModel,
                                SpectrumEstimate, estimate_psd,
                                locate_squeezing_feature, spectrum_csv_lines,
                                spectrum_to_json_dict,
                                synthesize_difference_current)

FS_BLO = 2.0971520e6
FS_STD = 16.777216e6


def flat_model(level=8.0):
    return SpectralModel(center_frequency=1e5, squeezing_bandwidth=5e4,
                         noise_floor=level, dip_or_peak_level=level)


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

    def test_from_detection_reports(self):
        p = SqueezeParams(s=10.0, theta=0.0)
        omega_minus = float(2**50)
        delta = float(2**23)
        fp = FrequencyPlan(omega_plus=omega_minus + delta, omega_minus=omega_minus,
                           lo_frequencies=(omega_minus + 2**18,
                                           omega_minus + delta - 2**18))
        lo1 = LoTone(amplitude=1.0, phase=math.pi, frequency=fp.lo_frequencies[0])
        lo2 = LoTone(amplitude=1.0, phase=0.0, frequency=fp.lo_frequencies[1])
        m = SpectralModel.for_blo(p, lo1, lo2, fp, ImageBandCase.TWO_IMAGE_BANDS,
                                  bandwidth=5e4)
        assert m.center_frequency == pytest.approx(2**18 / (2 * math.pi))
        assert m.noise_floor == pytest.approx(8.0)
        assert m.dip_or_peak_level == pytest.approx(4.0 * (1 + math.exp(-20.0)))


class TestSynthesis:
    def test_deterministic_given_seed(self):
        a = synthesize_difference_current(flat_model(), 0.01, FS_BLO, seed=3)
        b = synthesize_difference_current(flat_model(), 0.01, FS_BLO, seed=3)
        c = synthesize_difference_current(flat_model(), 0.01, FS_BLO, seed=4)
        assert np.array_equal(a.samples, b.samples)
        assert not np.array_equal(a.samples, c.samples)

    def test_power_of_two_length(self):
        rec = synthesize_difference_current(flat_model(), 0.01, FS_BLO, seed=0)
        n = rec.samples.size
        assert n & (n - 1) == 0
        assert n >= 0.01 * FS_BLO

    def test_aliasing_rejected(self):
        m = SpectralModel(center_frequency=5e6, squeezing_bandwidth=5e4,
                          noise_floor=2.0, dip_or_peak_level=1.0)
        with pytest.raises(ValueError, match="alias"):
            synthesize_difference_current(m, 0.01, 1e6, seed=0)

    def test_variance_matches_target_integral(self):
        rec = synthesize_difference_current(flat_model(), 1.0, FS_BLO, seed=11)
        target = 8.0 * FS_BLO / 2.0  # flat one-sided density times Nyquist band
        assert rec.samples.var() == pytest.approx(target, rel=2e-2)


class TestWelch:
    def test_white_noise_level_and_parseval(self):
        rec = synthesize_difference_current(flat_model(1.0), 1.0, FS_BLO, seed=5)
        est = estimate_psd(rec, 8192, 0.5)
        assert est.n_averages >= 256
        assert est.psd[1:-1].mean() == pytest.approx(1.0, rel=2e-2)
        assert est.total_power() == pytest.approx(float(rec.samples.var()), rel=1e-2)

    def test_sinusoid_integrated_peak(self):
        fs = 1.024e6
        n = 1 << 20
        t = np.arange(n) / fs
        x = np.cos(2.0 * math.pi * 1.0e4 * t)  # on-bin for a 4096 segment
        rec = PhotocurrentRecord(samples=x, sample_rate=fs, seed=0, model=flat_model())
        est = estimate_psd(rec, 4096, 0.5)
        k0 = int(round(1.0e4 / est.resolution))
        peak = float(np.sum(est.psd[k0 - 5 : k0 + 6]) * est.resolution)
        assert peak == pytest.approx(0.5, rel=1e-2)

    def test_zero_record(self):
        rec = PhotocurrentRecord(samples=np.zeros(4096), sample_rate=FS_BLO, seed=0,
                                 model=flat_model())
        est = estimate_psd(rec, 1024, 0.5)
        assert np.all(est.psd == 0.0)

    def test_segment_validation(self):
        rec = PhotocurrentRecord(samples=np.zeros(2048), sample_rate=FS_BLO, seed=0,
                                 model=flat_model())
        with pytest.raises(ValueError, match="exceeds record"):
            estimate_psd(rec, 4096, 0.5)
        with pytest.raises(ValueError, match="power of two"):
            estimate_psd(rec, 1000, 0.5)
        with pytest.raises(ValueError, match="overlap"):
            estimate_psd(rec, 1024, 0.95)

    def test_record_length_validation(self):
        with pytest.raises(ValueError, match="power of two"):
            PhotocurrentRecord(samples=np.zeros(1000), sample_rate=FS_BLO, seed=0,
                               model=flat_model())


class TestFeatureLocation:
    def test_flat_gives_no_feature(self):
        rec = synthesize_difference_current(flat_model(), 1.0, FS_BLO, seed=7)
        est = estimate_psd(rec, 2048, 0.5)
        assert locate_squeezing_feature(est, 8.0) is None

    def test_dip_round_trip(self):
        m = SpectralModel(center_frequency=1e5, squeezing_bandwidth=5e4,
                          noise_floor=8.0, dip_or_peak_level=4.0)
        rec = synthesize_difference_current(m, 0.25, FS_BLO, seed=21)
        est = estimate_psd(rec, 2048, 0.5)
        feat = locate_squeezing_feature(est, 8.0)
        assert feat is not None
        assert abs(feat.center - 1e5) <= 2.0 * est.resolution
        assert feat.depth_db == pytest.approx(-3.0103, abs=0.5)

    def test_peak_round_trip(self):
        level = 4.0 * math.exp(2.0) + 2.0
        m = SpectralModel(center_frequency=1e5, squeezing_bandwidth=5e4,
                          noise_floor=4.0, dip_or_peak_level=level)
        rec = synthesize_difference_current(m, 0.25, FS_BLO, seed=3)
        est = estimate_psd(rec, 2048, 0.5)
        feat = locate_squeezing_feature(est, 4.0)
        assert feat is not None
        assert feat.depth_db == pytest.approx(10.0 * math.log10(level / 4.0), abs=0.5)
        assert feat.depth_db > 0.0

    def test_floor_recovered_off_feature(self):
        m = SpectralModel(center_frequency=1e5, squeezing_bandwidth=5e4,
                          noise_floor=8.0, dip_or_peak_level=4.0)
        rec = synthesize_difference_current(m, 0.5, FS_BLO, seed=9)
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
                                                seed=int(rng.integers(1 << 31)))
            est = estimate_psd(rec, 2048, 0.5)
            feat = locate_squeezing_feature(est, 8.0)
            assert feat is not None
            assert abs(feat.center - center) <= 2.0 * est.resolution


class TestEmission:
    def test_spectrum_csv(self):
        rec = synthesize_difference_current(flat_model(), 0.002, FS_BLO, seed=1)
        est = estimate_psd(rec, 1024, 0.5)
        lines = spectrum_csv_lines(est, header_lines=["config: {}"])
        assert lines[0] == "# config: {}"
        assert "frequency_hz,psd_variance_per_hz" in lines
        header_idx = lines.index("frequency_hz,psd_variance_per_hz")
        assert len(lines) - header_idx - 1 == est.psd.size

    def test_json_schemas_round_trip(self):
        rec = synthesize_difference_current(flat_model(), 0.0005, FS_BLO, seed=1)
        est = estimate_psd(rec, 256, 0.5)
        spec_doc = json.loads(json.dumps(spectrum_to_json_dict(est)))
        assert spec_doc["schema"] == "blodyne.spectrum_estimate/1"
        assert len(spec_doc["frequencies_hz"]) == len(spec_doc["psd_variance_per_hz"])

    def test_estimate_arrays_immutable(self):
        est = SpectrumEstimate(frequencies=np.arange(4.0), psd=np.ones(4),
                               resolution=1.0, n_averages=1)
        with pytest.raises(ValueError):
            est.psd[0] = 2.0
