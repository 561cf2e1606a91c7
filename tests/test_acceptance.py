"""Acceptance suite: every release criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines as they complete. Tolerances are pinned here and nowhere else.
"""

import functools
import math

import numpy as np
import pytest

from blodyne import detection, fock
from blodyne.detection import FrequencyPlan, ImageBandCase, LoTone
from blodyne.gaussian import (SqueezeParams, apply_two_mode_squeeze,
                              ModeLabel, quadrature_variance, vacuum_state)
from blodyne.timeseries import (SpectralModel, estimate_psd,
                                locate_squeezing_feature,
                                synthesize_difference_current)

CARRIER = 2.0e15
SEED = 20260808


def tone(amplitude, phase):
    return LoTone(amplitude=amplitude, phase=phase, frequency=CARRIER)


def criterion(num, desc):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\nACCEPTANCE {num}: FAIL - {desc}")
                raise
            print(f"\nACCEPTANCE {num}: PASS - {desc}")
        return wrapper
    return deco


@criterion(1, "shot-noise limits 2|b|^2 (single tone) and 4|b|^2 (two tones), "
              "100 random draws, 1e-12 relative")
def test_criterion_1_shot_noise_limits():
    rng = np.random.default_rng(SEED)
    for _ in range(100):
        theta = float(rng.uniform(0.0, 2.0 * math.pi))
        chi = float(rng.uniform(0.0, 2.0 * math.pi))
        beta = float(rng.uniform(0.5, 20.0))
        p0 = SqueezeParams(s=0.0, theta=theta)
        std = detection.standard_heterodyne_variance(p0, tone(beta, chi))
        assert std.variance == pytest.approx(2.0 * beta**2, rel=1e-12)
        blo = detection.blo_variance(p0, tone(beta, chi),
                                     tone(beta, float(rng.uniform(0, 2 * math.pi))),
                                     ImageBandCase.NO_IMAGE_BANDS)
        assert blo.variance == pytest.approx(4.0 * beta**2, rel=1e-12)


@criterion(2, "two-tone image-free variance equals twice the single-tone value "
              "at the mean phase, 100x100 grid, 1e-12 relative")
def test_criterion_2_equivalence():
    theta = 0.7
    chi2 = 0.4
    for s in np.linspace(0.0, 2.0, 100):
        p = SqueezeParams(s=float(s), theta=theta)
        for chi1 in np.linspace(0.0, 2.0 * math.pi, 100, endpoint=False):
            blo = detection.blo_variance(p, tone(1.3, float(chi1)), tone(1.3, chi2),
                                         ImageBandCase.NO_IMAGE_BANDS)
            std = detection.standard_heterodyne_variance(
                p, tone(1.3, (float(chi1) + chi2) / 2.0))
            assert abs(blo.variance / (2.0 * std.variance) - 1.0) < 1e-12


@criterion(3, "deep-squeezing floors at s=10: <-80 dB / -6.02 dB / -3.01 dB "
              "against the 8|b|^2 reference")
def test_criterion_3_squeezing_floors():
    p = SqueezeParams(s=10.0, theta=0.0)
    lo1, lo2 = tone(1.0, math.pi), tone(1.0, 0.0)  # chi1 + chi2 = theta + pi
    rep_no = detection.blo_variance(p, lo1, lo2, ImageBandCase.NO_IMAGE_BANDS)
    rep_sh = detection.blo_variance(p, lo1, lo2, ImageBandCase.SHARED_IMAGE_BAND)
    rep_two = detection.blo_variance(p, lo1, lo2, ImageBandCase.TWO_IMAGE_BANDS)
    assert rep_no.variance == pytest.approx(4.0 * math.exp(-20.0), rel=1e-12)
    assert rep_sh.variance == pytest.approx(2.0 * (1.0 + 2.0 * math.exp(-20.0)),
                                            rel=1e-12)
    assert rep_two.variance == pytest.approx(4.0 * (1.0 + math.exp(-20.0)), rel=1e-12)
    assert rep_no.relative_db < -80.0
    assert rep_sh.relative_db == pytest.approx(-6.02, abs=0.01)
    assert rep_two.relative_db == pytest.approx(-3.01, abs=0.01)


@criterion(4, "time independence iff opposite detunings; oscillation at "
              "(delta1+delta2)/2pi otherwise")
def test_criterion_4_time_independence():
    omega_minus = float(2**50)
    delta = float(2**23)
    p = SqueezeParams(s=0.8, theta=0.4)
    lo1, lo2 = tone(1.5, 0.3), tone(1.5, 1.1)

    fp_opposite = FrequencyPlan(
        omega_plus=omega_minus + delta, omega_minus=omega_minus,
        lo_frequencies=(omega_minus + 2**20, omega_minus + delta - 2**20))
    times = np.linspace(0.0, 1e-3, 10_000)
    values = np.array([detection.blo_variance_general(p, lo1, lo2, fp_opposite, t)
                       for t in times])
    assert (values.max() - values.min()) < 1e-10 * abs(values.mean())

    f_beat = 1000.0
    fp_osc = FrequencyPlan(
        omega_plus=omega_minus + delta, omega_minus=omega_minus,
        lo_frequencies=(omega_minus + 2.0 * math.pi * f_beat, omega_minus + delta))
    n = 10_000
    times = np.arange(n) / n / f_beat  # exactly one period
    values = np.array([detection.blo_variance_general(p, lo1, lo2, fp_osc, t)
                       for t in times])
    spectrum = np.abs(np.fft.rfft(values - values.mean()))
    assert int(np.argmax(spectrum[1:])) + 1 == 1  # dominant bin within one bin of f_beat

    flat = np.array([detection.blo_variance_general(SqueezeParams(s=0.0), lo1, lo2,
                                                    fp_osc, t) for t in times[:100]])
    assert flat.max() == flat.min()


BETA_CAPS = {
    ImageBandCase.NO_IMAGE_BANDS: 14.0,
    ImageBandCase.SHARED_IMAGE_BAND: 11.0,
    ImageBandCase.TWO_IMAGE_BANDS: 9.0,
}


def _analytic(p, beta, chi1, chi2, case, include_lo_term):
    rep = detection.blo_variance(p, tone(beta, chi1), tone(beta, chi2), case)
    if include_lo_term:
        return rep.variance + detection.lo_quantization_correction(p, 2)
    return rep.variance


@criterion(5, "Fock oracle matches the two-tone variance (with the LO "
              "quantization term) within 1% over 50 random configurations; "
              "residual against the bare formula scales as 1/|b|^2")
def test_criterion_5_oracle_equivalence():
    rng = np.random.default_rng(SEED)
    cases = list(ImageBandCase)
    for _ in range(50):
        case = cases[int(rng.integers(0, 3))]
        p = SqueezeParams(s=float(rng.uniform(0.1, 0.75)),
                          theta=float(rng.uniform(0.0, 2.0 * math.pi)))
        beta = float(np.exp(rng.uniform(np.log(5.0), np.log(BETA_CAPS[case]))))
        chi1 = float(rng.uniform(0.0, 2.0 * math.pi))
        chi2 = float(rng.uniform(0.0, 2.0 * math.pi))
        measured = fock.oracle_blo_run(p, beta, chi1, chi2, case)
        expected = _analytic(p, beta, chi1, chi2, case, include_lo_term=True)
        assert abs(measured / expected - 1.0) < 1e-2

    # residual against the formula without the LO quantization term falls as
    # 1/|b|^2: consecutive ratios of 4 for beta doublings
    p = SqueezeParams(s=0.5, theta=0.9)
    chi1, chi2 = 0.3, 1.2
    case = ImageBandCase.NO_IMAGE_BANDS
    residuals = []
    for beta in (5.0, 10.0, 20.0):
        measured = fock.oracle_blo_run(p, beta, chi1, chi2, case)
        bare = _analytic(p, beta, chi1, chi2, case, include_lo_term=False)
        residuals.append(abs(measured - bare) / bare)
    assert residuals[0] / residuals[1] == pytest.approx(4.0, rel=0.05)
    assert residuals[1] / residuals[2] == pytest.approx(4.0, rel=0.05)


@criterion(6, "amplitude-imbalance excess noise is phase independent to 1e-10 "
              "and quadratic in delta_beta/|beta| within 2%")
def test_criterion_6_imbalance():
    p = SqueezeParams(s=0.9, theta=0.3)
    beta = 2.0
    case = ImageBandCase.SHARED_IMAGE_BAND
    normalized = []
    for frac in (0.01, 0.02, 0.05, 0.1):
        excesses = []
        for phase_sum in np.linspace(0.0, 2.0 * math.pi, 100, endpoint=False):
            v = detection.blo_variance_unbalanced(p, beta, frac * beta,
                                                  float(phase_sum), 0.0, case).variance
            v0 = detection.blo_variance_unbalanced(p, beta, 0.0,
                                                   float(phase_sum), 0.0, case).variance
            excesses.append(v - (1.0 + frac) * v0)
        spread = max(excesses) - min(excesses)
        assert spread <= 1e-10 * abs(np.mean(excesses))
        normalized.append(np.mean(excesses) / frac**2)
    for value in normalized[1:]:
        assert value == pytest.approx(normalized[0], rel=2e-2)


@criterion(7, "synthesized spectra place the squeezing dip at 5 MHz (single "
              "tone) and 100 kHz (two tones) within 2 bins and 0.5 dB, "
              ">= 256 Welch averages")
def test_criterion_7_spectral_relocation():
    # single tone: beat note at 5 MHz
    omega_minus = 2.0 * math.pi * 299.999995e12
    delta = 2.0 * math.pi * 10.0e6
    fp_std = FrequencyPlan(omega_plus=omega_minus + delta, omega_minus=omega_minus,
                           lo_frequencies=(omega_minus + 0.5 * delta,))
    p_std = SqueezeParams(s=1.0, theta=0.0)
    lo_std = LoTone(amplitude=1.0, phase=math.pi / 2.0,
                    frequency=fp_std.lo_frequencies[0])
    model = SpectralModel.for_standard(p_std, lo_std, fp_std, bandwidth=1.0e5)
    # carrier-scale rounding leaves the center a few mHz off the nominal value
    assert model.center_frequency == pytest.approx(5.0e6, abs=1.0)
    rec = synthesize_difference_current(model, 0.5, 16.777216e6, seed=SEED,
                                        segment_length=8192)
    est = estimate_psd(rec, 8192, 0.5)
    assert est.n_averages >= 256
    feat = locate_squeezing_feature(est, model.noise_floor)
    assert feat is not None
    assert abs(feat.center - 5.0e6) <= 2.0 * est.resolution
    predicted_db = 10.0 * math.log10(model.dip_or_peak_level / model.noise_floor)
    assert feat.depth_db == pytest.approx(predicted_db, abs=0.5)

    # two tones, opposite 100 kHz detunings: dip relocated to 100 kHz
    d1 = 2.0 * math.pi * 1.0e5
    fp_blo = FrequencyPlan(omega_plus=omega_minus + delta, omega_minus=omega_minus,
                           lo_frequencies=(omega_minus + d1, omega_minus + delta - d1))
    p_blo = SqueezeParams(s=10.0, theta=0.0)
    lo1 = LoTone(amplitude=1.0, phase=math.pi, frequency=fp_blo.lo_frequencies[0])
    lo2 = LoTone(amplitude=1.0, phase=0.0, frequency=fp_blo.lo_frequencies[1])
    case = detection.classify_image_band_case(fp_blo)
    assert case is ImageBandCase.TWO_IMAGE_BANDS
    model = SpectralModel.for_blo(p_blo, lo1, lo2, fp_blo, case, bandwidth=5.0e4)
    assert model.center_frequency == pytest.approx(1.0e5, abs=1.0)
    rec = synthesize_difference_current(model, 1.0, 2.0971520e6, seed=SEED + 1,
                                        segment_length=2048)
    est = estimate_psd(rec, 2048, 0.5)
    assert est.n_averages >= 256
    feat = locate_squeezing_feature(est, model.noise_floor)
    assert feat is not None
    assert abs(feat.center - 1.0e5) <= 2.0 * est.resolution
    assert feat.depth_db == pytest.approx(-3.0103, abs=0.5)


@criterion(8, "quadrature identities: variance sum cosh(2s)/2 to 1e-12 and "
              "uncertainty product >= 1/16 over the (s, theta) grid")
def test_criterion_8_quadrature_identities():
    m1, m2 = ModeLabel("plus", CARRIER + 5.0e7), ModeLabel("minus", CARRIER - 5.0e7)
    base = vacuum_state([m1, m2])
    for s in np.linspace(0.0, 3.0, 61):
        for theta in np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False):
            state = apply_two_mode_squeeze(base, m1, m2,
                                           SqueezeParams(s=float(s), theta=float(theta)))
            vx = quadrature_variance(state, (m1, m2), 0.0)
            vy = quadrature_variance(state, (m1, m2), math.pi / 2.0)
            assert vx + vy == pytest.approx(math.cosh(2.0 * float(s)) / 2.0, rel=1e-12)
            # IEEE evaluation wobbles ~1e-11 where the product touches 1/16
            assert vx * vy >= 1.0 / 16.0 - 1e-12
