import copy
import math
import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from blodyne.detection import (ImageBandCase, FrequencyPlan, LoTone,
                               VarianceReport, _reduce_angle, blo_variance,
                               blo_variance_general, blo_variance_unbalanced,
                               classify_image_band_case,
                               lo_quantization_correction, phase_grid, phase_scan,
                               standard_heterodyne_variance)
from blodyne._kernels import FockStateVector, UnitaryOracleResult
from blodyne.config import ExperimentConfig
from blodyne.fock import BeatPairing, TruncationPolicy
from blodyne.gaussian import BeamSplitterSpec, GaussianState, ModeLabel, SqueezeParams
from blodyne.timeseries import (SpectralModel, SpectrumEstimate, SqueezingFeature,
                                SynthesizedRecord, synthesize_difference_current)
from shared import CARRIER, tone


def dyadic_plan(d1_frac, d2_frac):
    """Plan with exactly representable detunings (powers of two in rad/s)."""
    omega_minus = float(2**50)
    delta = float(2**23)
    return FrequencyPlan(
        omega_plus=omega_minus + delta,
        omega_minus=omega_minus,
        lo_frequencies=(omega_minus + d1_frac * delta,
                        omega_minus + delta + d2_frac * delta),
    )


# opposite detunings of the no-image, shared-image and two-image configurations
OPPOSITE_DETUNINGS = [(0.0, 0.0), (0.25, -0.25), (0.125, -0.125)]


class TestStandardHeterodyne:
    def test_shot_noise_limit(self):
        for chi, theta in [(0.0, 0.0), (1.1, 2.2), (4.0, 0.7)]:
            rep = standard_heterodyne_variance(SqueezeParams(s=0.0, theta=theta),
                                               tone(1.0, chi))
            assert rep.variance == pytest.approx(2.0, rel=1e-12)
            assert rep.baseline == 2.0

    def test_squeezed_and_antisqueezed(self):
        p = SqueezeParams(s=1.0, theta=0.0)
        rep = standard_heterodyne_variance(p, tone(1.0, math.pi / 2))
        assert rep.variance == pytest.approx(2.0 * math.exp(-2.0), rel=1e-12)
        rep = standard_heterodyne_variance(p, tone(1.0, 0.0))
        assert rep.variance == pytest.approx(2.0 * math.exp(2.0), rel=1e-12)

    def test_zero_amplitude_rejected(self):
        with pytest.raises(ValueError, match="strong LO"):
            standard_heterodyne_variance(SqueezeParams(s=0.1), tone(0.0, 0.0))


class TestFrequencyPlan:
    def test_detuning_bound_enforced(self):
        with pytest.raises(ValueError, match="detunings"):
            dyadic_plan(0.6, -0.6)

    def test_single_tone_between_modes(self):
        with pytest.raises(ValueError, match="between"):
            FrequencyPlan(omega_plus=2.0e15 + 1e7, omega_minus=2.0e15,
                          lo_frequencies=(2.0e15 + 2e7,))

    @pytest.mark.parametrize("omega_plus, omega_minus, lo", [
        (2.0e15 + 1e7, 2.0e15, (math.nan, 2.0e15 + 1e7)),  # classified as two image bands
        (2.0e15 + 1e7, 2.0e15, (2.0e15, math.inf)),
        (math.inf, 2.0e15, (2.0e15 + 5e6,)),
    ])
    def test_non_finite_frequencies_rejected(self, omega_plus, omega_minus, lo):
        with pytest.raises(ValueError, match="finite"):
            FrequencyPlan(omega_plus=omega_plus, omega_minus=omega_minus, lo_frequencies=lo)

    def test_image_frequency_identities(self):
        fp = dyadic_plan(0.125, -0.125)
        # identities hold to float rounding of the carrier-scale arithmetic
        bound = 4.0 * np.finfo(float).eps * fp.omega_plus
        assert abs((fp.omega_image_minus - fp.lo_frequencies[0]) - fp.delta1) <= bound
        assert abs((fp.omega_image_plus - fp.lo_frequencies[1]) - fp.delta2) <= bound

    def test_derived_quantities(self):
        fp = dyadic_plan(0.25, -0.25)
        assert fp.delta == 2**23
        assert fp.delta1 == 2**21
        assert fp.delta2 == -(2**21)
        assert fp.beat_delta == 2**22


class TestClassify:
    def test_no_image_bands(self):
        assert classify_image_band_case(dyadic_plan(0.0, 0.0)) is ImageBandCase.NO_IMAGE_BANDS

    def test_shared_image_band(self):
        assert (classify_image_band_case(dyadic_plan(0.25, -0.25))
                is ImageBandCase.SHARED_IMAGE_BAND)

    def test_two_image_bands(self):
        assert (classify_image_band_case(dyadic_plan(0.125, -0.125))
                is ImageBandCase.TWO_IMAGE_BANDS)

    def test_optical_scale_rounding_tolerated(self):
        two_pi = 2.0 * math.pi
        fp = FrequencyPlan(
            omega_plus=two_pi * 300.000005e12,
            omega_minus=two_pi * 299.999995e12,
            lo_frequencies=(two_pi * 299.9999975e12, two_pi * 300.0000025e12),
        )
        assert classify_image_band_case(fp) is ImageBandCase.SHARED_IMAGE_BAND


class TestGeneralTimeDependence:
    def test_time_independent_when_detunings_opposite(self):
        p = SqueezeParams(s=0.8, theta=0.5)
        fp = dyadic_plan(0.125, -0.125)
        lo1, lo2 = tone(2.0, 0.3), tone(2.0, 1.0)
        values = [blo_variance_general(p, lo1, lo2, fp, t)
                  for t in np.linspace(0.0, 1e-3, 200)]
        spread = (max(values) - min(values)) / abs(np.mean(values))
        assert spread < 1e-10

    def test_oscillation_period(self):
        p = SqueezeParams(s=0.5, theta=0.0)
        omega_minus = float(2**50)
        delta = float(2**23)
        fp = FrequencyPlan(omega_plus=omega_minus + delta, omega_minus=omega_minus,
                           lo_frequencies=(omega_minus + 2.0 * math.pi * 1000.0,
                                           omega_minus + delta))
        lo1, lo2 = tone(1.0, 0.0), tone(1.0, 0.0)
        n = 4096
        times = np.arange(n) / n * 1e-3  # exactly one period of 1 kHz
        values = np.array([blo_variance_general(p, lo1, lo2, fp, t) for t in times])
        spectrum = np.abs(np.fft.rfft(values - values.mean()))
        assert int(np.argmax(spectrum[1:])) + 1 == 1

    def test_zero_squeeze_always_time_independent(self):
        p = SqueezeParams(s=0.0)
        fp = dyadic_plan(0.1, 0.05)
        vals = {blo_variance_general(p, tone(1.0, 0.2), tone(1.0, 0.4), fp, t)
                for t in (0.0, 1e-4, 7e-4)}
        assert len(vals) == 1

    def test_time_dependent_otherwise(self):
        p = SqueezeParams(s=0.5, theta=0.0)
        fp = dyadic_plan(0.125, -0.0625)
        v0 = blo_variance_general(p, tone(1.0, 0.0), tone(1.0, 0.0), fp, 0.0)
        quarter = 0.5 * math.pi / (fp.delta1 + fp.delta2)
        v1 = blo_variance_general(p, tone(1.0, 0.0), tone(1.0, 0.0), fp, quarter)
        assert abs(v0 - v1) > 1e-6 * abs(v0)

    @pytest.mark.parametrize("d1_frac, d2_frac", OPPOSITE_DETUNINGS)
    def test_deep_squeezing_floor_matches_blo_variance(self, d1_frac, d2_frac):
        # at s = 10 the floor is ~e^{-20} of terms ~e^{20}: a flux-plus-
        # interference sum cancels to a negative value without image bands
        p = SqueezeParams(s=10.0, theta=0.0)
        lo1, lo2 = tone(1.0, math.pi), tone(1.0, 0.0)  # chi1+chi2 = theta + pi
        fp = dyadic_plan(d1_frac, d2_frac)
        expected = blo_variance(p, lo1, lo2, classify_image_band_case(fp)).variance
        assert blo_variance_general(p, lo1, lo2, fp, 0.0) == pytest.approx(expected,
                                                                            rel=1e-12)


@settings(max_examples=100, deadline=None)
@given(detunings=st.sampled_from(OPPOSITE_DETUNINGS + [(0.125, -0.0625), (0.3, 0.1)]),
       s=st.floats(0.0, 12.0), theta=st.floats(0.0, 2.0 * math.pi),
       b1=st.floats(0.5, 20.0), b2=st.floats(0.5, 20.0),
       chi1=st.floats(-10.0, 10.0), chi2=st.floats(-10.0, 10.0),
       t=st.floats(0.0, 1e-3))
def test_general_variance_is_the_unbalanced_evaluator(detunings, s, theta, b1, b2,
                                                      chi1, chi2, t):
    p = SqueezeParams(s=s, theta=theta)
    lo1, lo2 = tone(b1, chi1), tone(b2, chi2)
    fp = dyadic_plan(*detunings)
    value = blo_variance_general(p, lo1, lo2, fp, t)
    assert math.isfinite(value) and value >= 0.0
    at_zero = blo_variance_unbalanced(p, b1, b2 - b1, lo1.phase, lo2.phase,
                                      classify_image_band_case(fp)).variance
    assert blo_variance_general(p, lo1, lo2, fp, 0.0) == at_zero


class TestBloVariance:
    def test_shot_noise_limit(self):
        rep = blo_variance(SqueezeParams(s=0.0), tone(1.0, 0.7), tone(1.0, 1.9),
                           ImageBandCase.NO_IMAGE_BANDS)
        assert rep.variance == pytest.approx(4.0, rel=1e-12)
        assert rep.baseline == 8.0
        assert rep.case_baseline == 4.0

    def test_equivalence_with_standard(self):
        p = SqueezeParams(s=1.2, theta=0.9)
        for chi1, chi2 in [(0.1, 0.4), (2.0, 5.0), (3.3, 3.3)]:
            rep = blo_variance(p, tone(1.7, chi1), tone(1.7, chi2),
                               ImageBandCase.NO_IMAGE_BANDS)
            std = standard_heterodyne_variance(p, tone(1.7, (chi1 + chi2) / 2.0))
            assert rep.variance == pytest.approx(2.0 * std.variance, rel=1e-12)

    def test_infinite_squeezing_floors(self):
        p = SqueezeParams(s=10.0, theta=0.0)
        lo1, lo2 = tone(1.0, math.pi), tone(1.0, 0.0)  # chi1+chi2 = theta + pi
        rep_no = blo_variance(p, lo1, lo2, ImageBandCase.NO_IMAGE_BANDS)
        rep_sh = blo_variance(p, lo1, lo2, ImageBandCase.SHARED_IMAGE_BAND)
        rep_two = blo_variance(p, lo1, lo2, ImageBandCase.TWO_IMAGE_BANDS)
        assert rep_no.variance == pytest.approx(4.0 * math.exp(-20.0), rel=1e-9)
        assert rep_sh.variance == pytest.approx(2.0 * (1.0 + 2.0 * math.exp(-20.0)),
                                                rel=1e-12)
        assert rep_two.variance == pytest.approx(4.0 * (1.0 + math.exp(-20.0)), rel=1e-12)
        assert rep_no.relative_db < -80.0
        assert rep_sh.relative_db == pytest.approx(-6.02, abs=0.01)
        assert rep_two.relative_db == pytest.approx(-3.01, abs=0.01)
        # the shared case against its own squeezing-free level reads differently
        assert rep_sh.case_relative_db == pytest.approx(-4.77, abs=0.01)

    def test_case_ordering_and_gaps(self):
        p = SqueezeParams(s=0.7, theta=1.1)
        beta = 1.3
        lo1, lo2 = tone(beta, 0.5), tone(beta, 2.0)
        v_no = blo_variance(p, lo1, lo2, ImageBandCase.NO_IMAGE_BANDS).variance
        v_sh = blo_variance(p, lo1, lo2, ImageBandCase.SHARED_IMAGE_BAND).variance
        v_two = blo_variance(p, lo1, lo2, ImageBandCase.TWO_IMAGE_BANDS).variance
        assert v_no <= v_sh <= v_two
        assert v_sh - v_no == pytest.approx(2.0 * beta**2, rel=1e-12)
        assert v_two - v_no == pytest.approx(4.0 * beta**2, rel=1e-12)

    def test_mismatched_amplitudes_rejected(self):
        with pytest.raises(ValueError, match="blo_variance_unbalanced"):
            blo_variance(SqueezeParams(s=0.1), tone(1.0, 0.0), tone(1.1, 0.0),
                         ImageBandCase.NO_IMAGE_BANDS)


@settings(max_examples=40, deadline=None)
@given(phi=st.floats(-10.0, 10.0), s=st.floats(0.0, 2.0),
       theta=st.floats(0.0, 2.0 * math.pi, exclude_max=True))
def test_phase_dependence_through_sum_only(phi, s, theta):
    p = SqueezeParams(s=s, theta=theta)
    chi1, chi2 = 0.8, 1.7
    base = blo_variance(p, tone(1.0, chi1), tone(1.0, chi2),
                        ImageBandCase.SHARED_IMAGE_BAND).variance
    shifted = blo_variance(p, tone(1.0, chi1 + phi), tone(1.0, chi2 - phi),
                           ImageBandCase.SHARED_IMAGE_BAND).variance
    assert shifted == pytest.approx(base, rel=1e-9)


class TestUnbalanced:
    def test_zero_mismatch_bitwise(self):
        p = SqueezeParams(s=0.6, theta=0.4)
        rep0 = blo_variance(p, tone(1.4, 0.2), tone(1.4, 1.0),
                            ImageBandCase.TWO_IMAGE_BANDS)
        rep = blo_variance_unbalanced(p, 1.4, 0.0, 0.2, 1.0,
                                      ImageBandCase.TWO_IMAGE_BANDS)
        assert rep.variance == rep0.variance  # identical evaluation order

    def test_worked_value(self):
        rep = blo_variance_unbalanced(SqueezeParams(s=0.0), 1.0, 0.1, 0.0, 0.0,
                                      ImageBandCase.TWO_IMAGE_BANDS)
        assert rep.variance == pytest.approx(8.84, rel=1e-12)

    def test_excess_phase_independent_and_second_order(self):
        p = SqueezeParams(s=0.9, theta=0.3)
        beta = 2.0
        for frac in (0.01, 0.02, 0.05, 0.1):
            excesses = []
            for phase_sum in np.linspace(0.0, 2.0 * math.pi, 37, endpoint=False):
                v = blo_variance_unbalanced(p, beta, frac * beta, phase_sum, 0.0,
                                            ImageBandCase.SHARED_IMAGE_BAND).variance
                v0 = blo_variance_unbalanced(p, beta, 0.0, phase_sum, 0.0,
                                             ImageBandCase.SHARED_IMAGE_BAND).variance
                excesses.append(v - (1.0 + frac) * v0)
            spread = max(excesses) - min(excesses)
            assert spread <= 1e-10 * abs(np.mean(excesses))
            expected = 4.0 * beta**2 * 0.5 * frac**2 * (math.cosh(2 * p.s) + 0.5)
            assert np.mean(excesses) == pytest.approx(expected, rel=1e-10)


# each two-tone form given a zero tone, and the two amplitudes it reports
_NONE, _PLAN = ImageBandCase.NO_IMAGE_BANDS, dyadic_plan(0.0, 0.0)
ZERO_TONE_CALLS = {
    "matched": ((blo_variance, tone(0.0, 0.1), tone(0.0, 0.2), _NONE), (0.0, 0.0)),
    "unbalanced_first": ((blo_variance_unbalanced, 0.0, 2.0, 0.1, 0.2, _NONE), (0.0, 2.0)),
    "unbalanced_second": ((blo_variance_unbalanced, 2.0, -2.0, 0.1, 0.2, _NONE), (2.0, 0.0)),
    "general_first": ((blo_variance_general, tone(0.0, 0.1), tone(2.0, 0.2), _PLAN, 0.0),
                      (0.0, 2.0)),
    "general_second": ((blo_variance_general, tone(2.0, 0.1), tone(0.0, 0.2), _PLAN, 0.0),
                       (2.0, 0.0)),
    # 1 + (2^-60 - 1) is 0: the evaluator sees the difference of the amplitudes
    "general_rounds_away": ((blo_variance_general, tone(1.0, 0.1), tone(2.0**-60, 0.2), _PLAN,
                             0.0), (1.0, 0.0)),
}


@pytest.mark.parametrize("name", ZERO_TONE_CALLS)
def test_two_tone_forms_refuse_a_zero_tone_alike(name):
    (form, *args), amplitudes = ZERO_TONE_CALLS[name]
    with pytest.raises(ValueError) as exc:
        form(SqueezeParams(s=0.1), *args)
    assert str(exc.value) == "both LO tone amplitudes must be > 0, got %r and %r" % amplitudes


class TestPhaseScan:
    def test_flat_at_zero_squeeze(self):
        points = phase_scan(SqueezeParams(s=0.0), (tone(1.0, 0.0), tone(1.0, 0.0)),
                            ImageBandCase.NO_IMAGE_BANDS, n_points=16)
        values = {rep.variance for _, rep in points}
        assert len(values) == 1

    def test_extrema_locations(self):
        p = SqueezeParams(s=1.0, theta=0.0)
        points = phase_scan(p, (tone(1.0, 0.0), tone(1.0, 0.0)),
                            ImageBandCase.NO_IMAGE_BANDS, n_points=64)
        phases = [ph for ph, _ in points]
        values = [rep.variance for _, rep in points]
        assert phases == sorted(phases)
        assert phases[int(np.argmin(values))] == pytest.approx(math.pi)
        assert phases[int(np.argmax(values))] == pytest.approx(0.0)
        assert min(values) == pytest.approx(4.0 * math.exp(-2.0), rel=1e-12)
        assert max(values) == pytest.approx(4.0 * math.exp(2.0), rel=1e-12)

    def test_min_max_product_phase_free(self):
        # the product of the variances at the exact extremal phases is
        # 16 |beta|^4 for the image-free configuration, independent of theta
        beta = 1.7
        for theta in (0.0, 1.0, 2.5):
            p = SqueezeParams(s=0.8, theta=theta)
            v_min = blo_variance(p, tone(beta, theta + math.pi), tone(beta, 0.0),
                                 ImageBandCase.NO_IMAGE_BANDS).variance
            v_max = blo_variance(p, tone(beta, theta), tone(beta, 0.0),
                                 ImageBandCase.NO_IMAGE_BANDS).variance
            assert v_min * v_max == pytest.approx(16.0 * beta**4, rel=1e-12)
            points = phase_scan(p, (tone(beta, 0.0), tone(beta, 0.0)),
                                ImageBandCase.NO_IMAGE_BANDS, n_points=720)
            values = [rep.variance for _, rep in points]
            assert min(values) >= v_min * (1.0 - 1e-12)
            assert max(values) <= v_max * (1.0 + 1e-12)

    def test_standard_tone_scan(self):
        points = phase_scan(SqueezeParams(s=0.5, theta=0.0), tone(1.0, 0.0), None,
                            n_points=8)
        assert len(points) == 8
        assert all(rep.case is None for _, rep in points)

    @pytest.mark.parametrize("n", [2, 3, 72, 1000])
    def test_grid_matches_numpy_linspace(self, n):
        # the grid is i * (2 pi / n): bit for bit the numpy grid of earlier outputs
        points = phase_scan(SqueezeParams(s=0.5, theta=0.0), tone(1.0, 0.0), None,
                            n_points=n)
        expected = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
        assert np.array_equal(np.array([ph for ph, _ in points]), expected)

    @pytest.mark.parametrize("n", [2, 3, 72, 1000, 2**20])
    def test_phase_grid_matches_numpy_linspace(self, n):
        # phase_scan sweeps this grid; a million points check it without
        # building a million variance reports
        expected = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
        assert np.array_equal(np.array(phase_grid(n)), expected)


class TestLoQuantization:
    def test_absolute_correction(self):
        p = SqueezeParams(s=0.8)
        assert lo_quantization_correction(p, 2) == pytest.approx(
            4.0 * math.sinh(0.8) ** 2, rel=1e-12)
        assert lo_quantization_correction(p, 1) == pytest.approx(
            2.0 * math.sinh(0.8) ** 2, rel=1e-12)

    def test_negligible_in_strong_lo_regime(self):
        # at |beta|^2 = 4000 sinh^2 s the correction is below 0.1% of the
        # variance at a generic phase, and of the image-band floors
        for s in (0.3, 0.5, 0.75):
            p = SqueezeParams(s=s, theta=0.0)
            beta = math.sqrt(4000.0) * math.sinh(s)
            corr = lo_quantization_correction(p, 2)
            generic = blo_variance(p, tone(beta, math.pi / 4), tone(beta, math.pi / 4),
                                   ImageBandCase.NO_IMAGE_BANDS).variance
            assert corr / generic < 1e-3
            floor_sh = blo_variance(p, tone(beta, math.pi), tone(beta, 0.0),
                                    ImageBandCase.SHARED_IMAGE_BAND).variance
            assert corr / floor_sh < 1e-3

    def test_report_carries_flux_ratio(self):
        p = SqueezeParams(s=0.5)
        rep = blo_variance(p, tone(4.0, 0.0), tone(4.0, 0.0),
                           ImageBandCase.NO_IMAGE_BANDS)
        assert rep.lo_flux_ratio == pytest.approx(math.sinh(0.5) ** 2 / 16.0, rel=1e-12)


@settings(max_examples=200, deadline=None)
@given(variance=st.floats(1e-100, 1e100), baseline=st.floats(1e-100, 1e100),
       case_baseline=st.floats(1e-100, 1e100))
def test_report_derives_its_db_values(variance, baseline, case_baseline):
    rep = VarianceReport(variance, baseline, None, case_baseline, 0.0)
    assert rep.relative_db == 10.0 * math.log10(variance / baseline)
    assert rep.case_relative_db == 10.0 * math.log10(variance / case_baseline)


# (variance, baseline, case_baseline, lo_flux_ratio) and the refusal
REPORT_REFUSALS = {
    "zero-variance": ((0.0, 1.0, 1.0, 0.0), "variance must be finite and > 0"),
    "negative-variance": ((-1.0, 1.0, 1.0, 0.0), "variance must be finite and > 0"),
    "inf-variance": ((math.inf, 1.0, 1.0, 0.0), "variance must be finite and > 0"),
    "nan-variance": ((math.nan, 1.0, 1.0, 0.0), "variance must be finite and > 0"),
    "zero-baseline": ((1.0, 0.0, 1.0, 0.0), "baselines must be positive"),
    "nan-baseline": ((1.0, math.nan, 1.0, 0.0), "baselines must be positive"),
    "negative-case-baseline": ((1.0, 1.0, -2.0, 0.0), "baselines must be positive"),
    "inf-flux-ratio": ((1.0, 1.0, 1.0, math.inf), "lo_flux_ratio must be finite"),
    "nan-flux-ratio": ((1.0, 1.0, 1.0, math.nan), "lo_flux_ratio must be finite"),
}


@pytest.mark.parametrize("fields,message", REPORT_REFUSALS.values(), ids=REPORT_REFUSALS)
def test_report_refuses_invalid_fields(fields, message):
    variance, baseline, case_baseline, ratio = fields
    with pytest.raises(ValueError, match=message):
        VarianceReport(variance, baseline, None, case_baseline, ratio)


_PLAN = dict(omega_plus=3.0, omega_minus=1.0, lo_frequencies=(1.5, 2.5))

# (type, constructor keywords, the fields they store, one field and another
# value for it, whether records of the type hash)
RECORD_CASES = [
    # -1e-20 + 2 pi rounds to 2 pi, which lies outside [0, 2 pi): reduced to 0
    (SqueezeParams, dict(s=0.5, theta=-1e-20), dict(s=0.5, theta=0.0),
     ("s", 0.6), True),
    (LoTone, dict(amplitude=2.0, phase=7.0),
     dict(amplitude=2.0, phase=7.0 - 2.0 * math.pi),
     ("amplitude", 3.0), True),
    (FrequencyPlan, dict(omega_plus=3, omega_minus=1, lo_frequencies=[2]),
     dict(omega_plus=3, omega_minus=1, lo_frequencies=(2.0,)),
     ("omega_plus", 4.0), True),
    (VarianceReport, dict(variance=1.0, baseline=1.0, case=None, case_baseline=1.0,
                          lo_flux_ratio=0.5),
     None, ("lo_flux_ratio", 0.25), True),
    (TruncationPolicy, dict(target_leakage=1e-6, max_dimension=1000), None,
     ("max_dimension", 999), True),
    (BeatPairing, dict(signal_freqs=(0.0, 1.0), lo_freqs=(0.5,)), None,
     ("lo_freqs", (0.25,)), True),
    # the dict fields make a config unhashable
    (ExperimentConfig, dict(plan=FrequencyPlan(**_PLAN), squeeze=SqueezeParams(s=0.5),
                            tones=(tone(2.0, 0.0), tone(2.0, 1.0)),
                            case=ImageBandCase.TWO_IMAGE_BANDS, seed=3, scan_points=8,
                            imbalance_fractions=(0.1,), spectrum={"profile": "flat_top"},
                            oracle={"draws": 0}, resolved={"seed": 3}),
     None, ("seed", 4), False),
    # profile left at its default, then given
    (SpectralModel, dict(center_frequency=1e5, squeezing_bandwidth=5e4, noise_floor=8.0,
                         dip_or_peak_level=4.0),
     dict(center_frequency=1e5, squeezing_bandwidth=5e4, noise_floor=8.0,
          dip_or_peak_level=4.0, profile="lorentzian"),
     ("noise_floor", 6.0), True),
    (SpectralModel, dict(center_frequency=0.0, squeezing_bandwidth=5e4, noise_floor=4.0,
                         dip_or_peak_level=8.0, profile="flat_top"), None,
     ("profile", "lorentzian"), True),
    (SqueezingFeature, dict(center=1e5, depth_db=-3.0), None, ("depth_db", -2.5), True),
    (ModeLabel, dict(id="plus", angular_frequency=CARRIER), None,
     ("angular_frequency", 2.0 * CARRIER), True),
    (BeamSplitterSpec, dict(t=1.0, r=0j), None, ("t", -1.0), True),
    (UnitaryOracleResult, dict(variance=9.5, norm_before=1.0, norm_after=1.0,
                               photons_in=8.25, photons_out=8.25), None,
     ("variance", 9.0), True),
]


@pytest.mark.parametrize("cls,kwargs,stored,change,hashable", RECORD_CASES,
                         ids=[case[0].__name__ + ("-profile" if "profile" in case[1] else "")
                              for case in RECORD_CASES])
def test_value_type_record_semantics(cls, kwargs, stored, change, hashable):
    record = cls(**kwargs)
    stored = kwargs if stored is None else stored
    for name, value in stored.items():
        got = getattr(record, name)
        assert got == value and type(got) is type(value)
    for name in stored:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))
        with pytest.raises(AttributeError):
            delattr(record, name)

    twin = cls(**kwargs)
    other = cls(**dict(kwargs, **dict([change])))
    assert record == twin and not record != twin
    assert record != other and not record == other
    assert record != tuple(stored.values())
    if hashable:
        assert hash(record) == hash(twin)
    else:
        with pytest.raises(TypeError):
            hash(record)
    assert copy.copy(record) == record
    assert pickle.loads(pickle.dumps(record)) == record

    with pytest.raises(TypeError):
        cls(**kwargs, bogus=1)
    assert repr(record).startswith(f"{cls.__name__}({next(iter(stored))}=")
    assert not any(f"{name}=" in repr(record) for name in cls._repr_omit)


_MODEL = SpectralModel(1e5, 5e4, 8.0, 4.0)
_SYNTHESIZED = synthesize_difference_current(_MODEL, 4e-6, 2.097152e6, 3, 4)
# each array record type with arguments to build one from; the SynthesizedRecord
# row builds one directly, as pickle and copy do
ARRAY_CASES = [
    (SpectrumEstimate, (np.arange(5.0), np.linspace(8.0, 4.0, 5), 1.5, 7, 3.5)),
    (GaussianState, ((ModeLabel("plus", CARRIER),), np.array([0.5, -0.25]),
                     np.diag([0.125, 0.5]))),
    (FockStateVector, (np.array([0.6, 0.8j]),)),
    (SynthesizedRecord, _SYNTHESIZED._values()[:3] + (_SYNTHESIZED.taps.copy(),)),
]


@pytest.mark.parametrize("cls,args", ARRAY_CASES, ids=[cls.__name__ for cls, _ in ARRAY_CASES])
def test_array_records_are_frozen_and_round_trip(cls, args):
    # the caller's own arrays, which the record must leave writeable
    args = tuple(arg.copy() if isinstance(arg, np.ndarray) else arg for arg in args)
    record = cls(*args)
    assert all(arg.flags.writeable for arg in args if isinstance(arg, np.ndarray))
    names = cls.__slots__
    for name in names:
        value = getattr(record, name)
        with pytest.raises(AttributeError):
            setattr(record, name, value)
        with pytest.raises(AttributeError):
            delattr(record, name)
    arrays = [name for name in names if isinstance(getattr(record, name), np.ndarray)]
    assert arrays
    # a synthesized record equals only itself (test_synthesized_record_equals_only_itself)
    by_value = cls is not SynthesizedRecord
    for twin in (record, copy.copy(record), copy.deepcopy(record),
                 pickle.loads(pickle.dumps(record))):
        assert type(twin) is cls
        for name in names:
            got, want = getattr(twin, name), getattr(record, name)
            if name in arrays:
                assert not got.flags.writeable
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes()
            else:
                assert got == want
        if by_value:
            assert twin == record and not twin != record
    if by_value:
        # the stored arrays view the caller's, which stay writeable: no hash
        with pytest.raises(TypeError):
            hash(record)
        # the first array reversed: same shape and dtype, other bytes
        first = next(i for i, arg in enumerate(args) if isinstance(arg, np.ndarray))
        other = cls(*args[:first], args[first][::-1].copy(), *args[first + 1:])
        assert record != other and not record == other


def test_gaussian_state_repr_leaves_out_the_moments():
    state = GaussianState(*ARRAY_CASES[1][1])
    assert repr(state) == f"GaussianState(modes=({ModeLabel('plus', CARRIER)!r},))"


def test_synthesized_record_equals_only_itself():
    record = _SYNTHESIZED
    twin = SynthesizedRecord(*record._values())
    assert record == record and record != twin and record != copy.copy(record)
    assert len({record, record, twin}) == 2 and hash(record) == hash(record)


# a tiny negative angle, whose remainder plus 2 pi rounds to 2 pi, and
# angles whose remainder is -0.0
@example(angle=-1e-20)
@example(angle=-0.0)
@example(angle=-2.0 * math.pi)
@settings(max_examples=500, deadline=None)
@given(angle=st.floats(allow_nan=False, allow_infinity=False))
def test_reduced_angle_lies_in_range_and_stays(angle):
    reduced = _reduce_angle(angle)
    assert 0.0 <= reduced < 2.0 * math.pi
    assert math.copysign(1.0, reduced) == 1.0
    assert _reduce_angle(reduced) == reduced
