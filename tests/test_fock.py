import ast
import json
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blodyne import config, detection
from blodyne.detection import ImageBandCase, LoTone
from blodyne.fock import (BeatPairing, TruncationPolicy, coherent_cutoff,
                          coherent_product_gram, ladder_gram, oracle_blo_run,
                          oracle_from_grams, oracle_standard_run, reference_plan,
                          signal_gram, tmss_cutoff_for_leakage)
from blodyne._kernels import (FockStateVector, _ladder_gram, apply_balanced_bs,
                              balanced_bs_unitary, build_blo_signal_state,
                              build_coherent_product, build_tmss, build_tmss_via_expm,
                              covariance_matrix, lowered, oracle_difference_variance,
                              oracle_difference_variance_unitary, pad_amplitudes)
from blodyne.gaussian import (BeamSplitterSpec, ModeLabel, SqueezeParams,
                              apply_beam_splitter, apply_displacement,
                              apply_two_mode_squeeze, vacuum_state)
from blodyne import _kernels
from shared import analytic_blo


def n_image_modes(case):
    """Image vacua the pairing derives on the case's reference plan."""
    return len(BeatPairing.for_plan(reference_plan(case)).signal_freqs) - 2


def parse_plan(plan_hz):
    """The two-tone plan ``config`` builds from Hz, and the case it classifies."""
    cfg = config.parse_config({"frequency_plan": plan_hz, "squeeze": {"s": 0.5},
                               "lo_tones": [{"amplitude": 1.0}, {"amplitude": 1.0}]})
    return cfg.plan, cfg.case


def plan_hz(lower, split, fraction):
    """Signal modes ``split`` Hz apart from ``lower`` Hz, each tone detuned
    by ``fraction`` of the splitting toward the other mode (delta1 = -delta2)."""
    return {"omega_minus_hz": lower, "omega_plus_hz": lower + split,
            "lo_hz": [lower + fraction * split, lower + split - fraction * split]}


# the benchmark's two-tone plan (perfbench/workloads.py PLAN_TWO_TONE): delta1 +
# delta2 rounds to -0.25 rad/s, 4x the 1e-9 delta the oracle once grouped
# beats within, and far inside the stationarity tolerance of 13.4 rad/s
BENCHMARK_TWO_TONE_HZ = {"omega_plus_hz": 300.000005e12, "omega_minus_hz": 299.999995e12,
                         "lo_hz": [299.9999951e12, 300.0000049e12]}
# the shared-image-band plan of the installed-script check in CI
SHARED_TONE_HZ = {"omega_plus_hz": 300.000005e12, "omega_minus_hz": 299.999995e12,
                  "lo_hz": [299.9999975e12, 300.0000025e12]}


class TestTmssBuilder:
    def test_zero_squeeze_is_double_vacuum(self):
        state = build_tmss(SqueezeParams(s=0.0), cutoff=5)
        expected = np.zeros((6, 6))
        expected[0, 0] = 1.0
        assert np.array_equal(state.amplitudes, expected)

    def test_norm_is_geometric_tail(self):
        # norm^2 = 1 - tanh^(2(N+1))(s)
        for s, cutoff in [(0.5, 3), (0.8, 10), (0.3, 2)]:
            state = build_tmss(SqueezeParams(s=s), cutoff=cutoff)
            expected = 1.0 - math.tanh(s) ** (2 * (cutoff + 1))
            assert state.norm_sq == pytest.approx(expected, abs=1e-12)

    def test_mean_photon_number(self):
        state = build_tmss(SqueezeParams(s=0.5), cutoff=20)
        expected = math.sinh(0.5) ** 2
        gram = _ladder_gram(state)
        assert gram[1, 1].real == pytest.approx(expected, abs=1e-9)
        assert gram[3, 3].real == pytest.approx(expected, abs=1e-9)

    def test_pair_moment_convention(self):
        p = SqueezeParams(s=0.5, theta=math.pi / 2)
        state = build_tmss(p, cutoff=25)
        mom = complex(_ladder_gram(state)[2, 3])  # <a_0^dag psi|a_1 psi> = <a_0 a_1>
        sc = math.sinh(0.5) * math.cosh(0.5)
        assert mom == pytest.approx(-1j * sc, rel=1e-10)
        assert abs(mom) == pytest.approx(0.587600, abs=1e-6)

    def test_cutoff_validation(self):
        with pytest.raises(ValueError):
            build_tmss(SqueezeParams(s=0.5), cutoff=0)

    def test_expm_route_agrees(self):
        # The truncated-generator exponential reflects at the basis boundary
        # with an error of the order of the boundary amplitude itself, so the
        # comparison cutoff is chosen to push that amplitude below 1e-10.
        for s, theta in [(0.6, 1.3), (0.4, 0.0), (0.8, 4.5)]:
            cutoff = tmss_cutoff_for_leakage(s, 1e-22)
            direct = build_tmss(SqueezeParams(s=s, theta=theta), cutoff)
            viaexp = build_tmss_via_expm(SqueezeParams(s=s, theta=theta), cutoff)
            assert np.max(np.abs(direct.amplitudes - viaexp.amplitudes)) < 1e-10


class TestTruncationPolicy:
    def test_leakage_rule(self):
        n = tmss_cutoff_for_leakage(0.5, 1e-8)
        assert math.tanh(0.5) ** (2 * (n + 1)) <= 1e-8
        assert math.tanh(0.5) ** (2 * n) > 1e-8

    def test_dimension_guard(self):
        policy = TruncationPolicy(max_dimension=1000)
        with pytest.raises(ValueError, match="guard"):
            policy.check_factors((10, 10, 10))

    def test_guard_pads_each_factor_and_holds_each_alone(self):
        policy = TruncationPolicy(max_dimension=1000)
        # padded by one level per mode, 10^3 sits at the bound
        policy.check_factors((9, 9, 9))
        with pytest.raises(ValueError, match="^signal state dimension 1100 exceeds the "
                                             "guard 1000; lower squeeze.s"):
            policy.check_factors((9, 9, 10))
        # the second factor alone, 32^2 = 1024, is over; the product of the
        # two factors is never formed
        with pytest.raises(ValueError, match="^LO state dimension 1024 exceeds the guard "
                                             "1000; lower the tone amplitude"):
            policy.check_factors((9, 9, 9), (31, 31))
        policy.check_factors((9, 9, 9), (30, 30))


class TestCoherentBuilder:
    def test_zero_amplitude_is_vacuum(self):
        state = build_coherent_product([(0.0, 0.0)], cutoff=4)
        expected = np.zeros(5)
        expected[0] = 1.0
        assert np.array_equal(state.amplitudes, expected)

    def test_mean_photon(self):
        state = build_coherent_product([(2.0, 0.0)], cutoff=40)
        assert _ladder_gram(state)[1, 1].real == pytest.approx(4.0, abs=1e-9)

    def test_annihilation_eigenvalue(self):
        chi = math.pi / 3.0
        state = build_coherent_product([(2.0, chi)], cutoff=40)
        mean_a = _kernels.vdot(state.amplitudes, lowered(state.amplitudes, 0))
        assert mean_a == pytest.approx(2.0 * np.exp(1j * chi), abs=1e-9)

    def test_product_of_tones(self):
        state = build_coherent_product([(1.0, 0.1), (2.0, 0.2)], cutoff=40)
        assert state.dims == (41, 41)
        gram = _ladder_gram(state)
        assert gram[1, 1].real == pytest.approx(1.0, abs=1e-9)
        assert gram[3, 3].real == pytest.approx(4.0, abs=1e-9)

    def test_cutoff_rule_leakage(self):
        for beta in (1.0, 5.0, 10.0):
            state = build_coherent_product([(beta, 0.0)], coherent_cutoff(beta))
            assert state.leakage < 1e-8


class TestGaussianEquivalence:
    """Every second moment of the Gaussian module matches the Fock route."""

    def test_tmss_covariance(self):
        # the squeezed pair alone, then with one and two image vacua appended
        modes = [ModeLabel("a", 2.0e15), ModeLabel("b", 2.1e15),
                 ModeLabel("image1", 2.05e15), ModeLabel("image2", 2.15e15)]
        m1, m2 = modes[:2]
        for case in ImageBandCase:
            for s, theta in [(0.3, 0.0), (0.7, 1.2), (1.0, 4.0)]:
                p = SqueezeParams(s=s, theta=theta)
                fockside = build_blo_signal_state(p, case, tmss_cutoff_for_leakage(s, 1e-12))
                mean_f, cov_f = covariance_matrix(_ladder_gram(fockside))
                gauss = apply_two_mode_squeeze(vacuum_state(modes[:fockside.n_modes]),
                                               m1, m2, p)
                assert np.max(np.abs(mean_f - gauss.mean)) < 1e-10
                assert np.max(np.abs(cov_f - gauss.cov)) < 1e-9

    def test_displaced_state_moments(self):
        beta = 1.0 + 1.5j  # |beta| < 3 keeps the truncation tiny
        state = build_coherent_product([(abs(beta), math.atan2(beta.imag, beta.real))],
                                       cutoff=45)
        mean_f, cov_f = covariance_matrix(_ladder_gram(state))
        m = ModeLabel("c", 2.0e15)
        gauss = apply_displacement(vacuum_state([m]), m, beta)
        assert np.max(np.abs(mean_f - gauss.mean)) < 1e-9
        assert np.max(np.abs(cov_f - gauss.cov)) < 1e-9

    @pytest.mark.parametrize("case", list(ImageBandCase))
    @pytest.mark.parametrize("s, theta", [(2.0, 0.7), (3.0, 4.0)])
    def test_structured_signal_gram_covariance(self, case, s, theta):
        # leakage 1e-16 puts the truncation error below rounding (measured
        # <= 3.4e-15 relative; 1e-12 would leave 2.8e-11)
        p = SqueezeParams(s=s, theta=theta)
        modes = [ModeLabel("a", 2.0e15), ModeLabel("b", 2.1e15),
                 ModeLabel("image1", 2.05e15), ModeLabel("image2", 2.15e15)]
        n_images = n_image_modes(case)
        mean_f, cov_f = covariance_matrix(
            signal_gram(p, tmss_cutoff_for_leakage(s, 1e-16), n_images))
        gauss = apply_two_mode_squeeze(vacuum_state(modes[:2 + n_images]),
                                       modes[0], modes[1], p)
        assert np.max(np.abs(mean_f - gauss.mean)) == 0.0
        assert np.max(np.abs(cov_f - gauss.cov)) <= 1e-13 * np.max(np.abs(gauss.cov))

    @pytest.mark.parametrize("tones, cov_rel", [
        # the 1/4 vacuum covariance is what is left of <x^2> ~ 900 after
        # subtracting the mean's square (measured 4.5e-13 relative)
        ([(30.0, 0.9)], 2e-12),
        ([(3.0, 0.4), (3.0, 2.5)], 1e-13),  # measured 1.8e-14
    ])
    def test_structured_coherent_gram_moments(self, tones, cov_rel):
        modes = [ModeLabel(f"lo{k}", 2.0e15 + k * 1e8) for k in range(len(tones))]
        mean_f, cov_f = covariance_matrix(
            coherent_product_gram(tones, coherent_cutoff(max(a for a, _ in tones))))
        gauss = vacuum_state(modes)
        for m, (amplitude, phase) in zip(modes, tones):
            gauss = apply_displacement(gauss, m, amplitude * np.exp(1j * phase))
        assert np.max(np.abs(mean_f - gauss.mean)) <= 1e-14 * np.max(np.abs(gauss.mean))
        assert np.max(np.abs(cov_f - gauss.cov)) <= cov_rel * np.max(np.abs(gauss.cov))

    def test_beam_splitter_conjugation_entrywise(self):
        m1, m2 = ModeLabel("a", 2.0e15), ModeLabel("b", 2.1e15)
        p = SqueezeParams(s=0.3, theta=0.8)
        fockside = apply_balanced_bs(build_tmss(p, cutoff=25), 0, 1)
        mean_f, cov_f = covariance_matrix(_ladder_gram(fockside))
        gauss = apply_beam_splitter(
            apply_two_mode_squeeze(vacuum_state([m1, m2]), m1, m2, p),
            m1, m2, BeamSplitterSpec.balanced())
        assert np.max(np.abs(cov_f - gauss.cov)) < 1e-8
        assert np.max(np.abs(mean_f - gauss.mean)) < 1e-10


class TestOracle:
    def test_vacuum_shot_noise(self):
        value = oracle_standard_run(SqueezeParams(s=0.0), beta=10.0, chi=0.3)
        assert value == pytest.approx(200.0, rel=5e-3)

    def test_standard_heterodyne_agreement(self):
        p = SqueezeParams(s=0.4, theta=0.7)
        value = oracle_standard_run(p, beta=10.0, chi=1.1)
        rep = detection.standard_heterodyne_variance(
            p, LoTone(amplitude=10.0, phase=1.1))
        analytic = rep.variance + detection.lo_quantization_correction(p, 1)
        assert value == pytest.approx(analytic, rel=1e-4)

    @pytest.mark.parametrize("case", list(ImageBandCase))
    def test_blo_agreement_all_cases(self, case):
        p = SqueezeParams(s=0.4, theta=0.0)
        value = oracle_blo_run(p, beta=10.0, chi1=0.0, chi2=0.0, case=case)
        assert value == pytest.approx(analytic_blo(p, 10.0, 0.0, 0.0, case), rel=1e-2)

    @pytest.mark.parametrize("case", list(ImageBandCase))
    @pytest.mark.parametrize("s,beta,frac", [(0.5, 3.0, 0.1), (0.3, 4.0, 0.3),
                                             (0.7, 2.0, -0.4)])
    def test_unbalanced_agreement(self, case, s, beta, frac):
        # tones |beta| and |beta| + delta_beta, with delta_beta = frac * |beta|
        p = SqueezeParams(s=s, theta=0.7)
        chi1, chi2 = 0.4, 1.1
        delta_beta = frac * beta
        beta2 = beta + delta_beta
        plan = reference_plan(case)
        g_sig = signal_gram(p, TruncationPolicy().tmss_cutoff(s), n_image_modes(case))
        g_lo = coherent_product_gram([(beta, chi1), (beta2, chi2)],
                                     coherent_cutoff(max(beta, beta2)))
        value = oracle_from_grams(g_sig, g_lo, BeatPairing.for_blo(plan, case), plan)
        rep = detection.blo_variance_unbalanced(p, beta, delta_beta, chi1, chi2, case)
        expected = rep.variance + detection.lo_quantization_correction(p, 2)
        assert value == pytest.approx(expected, rel=1e-6)

    def test_case_gap_at_optimal_phase(self):
        p = SqueezeParams(s=0.4, theta=0.0)
        beta = 5.0
        v_no = oracle_blo_run(p, beta, math.pi, 0.0, ImageBandCase.NO_IMAGE_BANDS)
        v_two = oracle_blo_run(p, beta, math.pi, 0.0, ImageBandCase.TWO_IMAGE_BANDS)
        assert v_two - v_no == pytest.approx(4.0 * beta**2, rel=1e-2)

    def test_leaky_input_rejected(self):
        plan = reference_plan(ImageBandCase.NO_IMAGE_BANDS)
        signal = build_tmss(SqueezeParams(s=0.75), cutoff=2)  # heavy truncation
        lo = build_coherent_product([(2.0, 0.0), (2.0, 0.0)], 40)
        pairing = BeatPairing.for_blo(plan, ImageBandCase.NO_IMAGE_BANDS)
        with pytest.raises(ValueError, match="leakage"):
            oracle_difference_variance(signal, lo, pairing, plan)

    def test_dimension_guard_rejected(self):
        policy = TruncationPolicy(max_dimension=10_000)
        with pytest.raises(ValueError, match="guard"):
            oracle_blo_run(SqueezeParams(s=0.3), 10.0, 0.0, 0.0,
                           ImageBandCase.NO_IMAGE_BANDS, policy=policy)

    def test_pairing_mode_count_mismatch(self):
        plan = reference_plan(ImageBandCase.TWO_IMAGE_BANDS)
        signal = build_tmss(SqueezeParams(s=0.3), cutoff=8)  # images missing
        lo = build_coherent_product([(2.0, 0.0), (2.0, 0.0)], 40)
        pairing = BeatPairing.for_blo(plan, ImageBandCase.TWO_IMAGE_BANDS)
        with pytest.raises(ValueError, match="modes"):
            oracle_difference_variance(signal, lo, pairing, plan)

    def test_pairing_case_mismatch_rejected(self):
        plan = reference_plan(ImageBandCase.SHARED_IMAGE_BAND)
        with pytest.raises(ValueError, match="classifies"):
            BeatPairing.for_blo(plan, ImageBandCase.TWO_IMAGE_BANDS)
        with pytest.raises(ValueError, match="two-tone"):
            BeatPairing.for_blo(reference_plan(None), ImageBandCase.NO_IMAGE_BANDS)

    def test_convergence_under_cutoff_doubling(self):
        p = SqueezeParams(s=0.6, theta=0.9)
        case = ImageBandCase.NO_IMAGE_BANDS
        plan = reference_plan(case)
        pairing = BeatPairing.for_blo(plan, case)
        beta = 5.0
        values = []
        base_tmss = tmss_cutoff_for_leakage(0.6, 1e-8)
        base_lo = coherent_cutoff(beta)
        for factor in (1, 2):
            signal = build_blo_signal_state(p, case, base_tmss * factor)
            lo = build_coherent_product([(beta, 0.2), (beta, 0.7)], base_lo * factor)
            values.append(oracle_difference_variance(signal, lo, pairing, plan))
        assert abs(values[1] / values[0] - 1.0) < 1e-3

    def test_randomized_cross_validation(self):
        # compressed version of the acceptance sweep: a handful of draws here
        rng = np.random.default_rng(7)
        cases = list(ImageBandCase)
        for _ in range(6):
            case = cases[int(rng.integers(0, 3))]
            p = SqueezeParams(s=float(rng.uniform(0.1, 0.6)),
                              theta=float(rng.uniform(0, 2 * math.pi)))
            beta = float(rng.uniform(5.0, 8.0))
            chi1 = float(rng.uniform(0, 2 * math.pi))
            chi2 = float(rng.uniform(0, 2 * math.pi))
            value = oracle_blo_run(p, beta, chi1, chi2, case)
            assert value == pytest.approx(analytic_blo(p, beta, chi1, chi2, case),
                                          rel=1e-2)


def dense_joint_variance(signal, lo, pairing, fp):
    """Reference: the grouped observable applied to the dense joint tensor."""
    n_sig, n_lo = signal.n_modes, lo.n_modes
    joint = pad_amplitudes(np.multiply.outer(signal.amplitudes, lo.amplitudes))
    nrm = _kernels.norm_sq(joint)
    beats = [(k, j, pairing.signal_freqs[k] - pairing.lo_freqs[j])
             for k in range(n_sig) for j in range(n_lo)]
    tol = 1e-9 * max(fp.delta, max(abs(b[2]) for b in beats))

    def applied(pos, neg):
        comp = np.zeros_like(joint)
        for k, j, _ in pos:
            _kernels.pair_ladder_acc(comp, joint, axis_up=k, axis_dn=n_sig + j, coeff=1j)
        for k, j, _ in neg:
            _kernels.pair_ladder_acc(comp, joint, axis_up=n_sig + j, axis_dn=k, coeff=-1j)
        return comp

    mus = []
    for b in beats:
        if all(abs(abs(b[2]) - mu) > tol for mu in mus):
            mus.append(abs(b[2]))
    variance = 0.0
    for mu in mus:
        plus = [b for b in beats if abs(b[2] - mu) <= tol]
        minus = [b for b in beats if abs(b[2] + mu) <= tol]
        if mu <= tol:
            x = applied(plus, plus)
            mean = (_kernels.vdot(joint, x) / nrm).real
            variance += _kernels.norm_sq(x) / nrm - mean * mean
            continue
        for x in (applied(plus, minus), applied(minus, plus)):
            variance += _kernels.norm_sq(x) / nrm - abs(_kernels.vdot(joint, x)) ** 2 / nrm**2
    return variance


class TestFactorizedOracle:
    @pytest.mark.parametrize("case", list(ImageBandCase))
    def test_matches_dense_joint_reference(self, case):
        p = SqueezeParams(s=0.4, theta=1.1)
        plan = reference_plan(case)
        signal = build_blo_signal_state(p, case, tmss_cutoff_for_leakage(0.4, 1e-8))
        lo = build_coherent_product([(2.5, 0.3), (2.5, 2.0)], coherent_cutoff(2.5))
        pairing = BeatPairing.for_blo(plan, case)
        value = oracle_difference_variance(signal, lo, pairing, plan)
        assert value == pytest.approx(dense_joint_variance(signal, lo, pairing, plan),
                                      rel=1e-12)

    def test_standard_matches_dense_joint_reference(self):
        p = SqueezeParams(s=0.6, theta=0.2)
        plan = reference_plan(None)
        signal = build_tmss(p, tmss_cutoff_for_leakage(0.6, 1e-8))
        lo = build_coherent_product([(4.0, 0.9)], coherent_cutoff(4.0))
        pairing = BeatPairing.for_plan(plan)
        value = oracle_difference_variance(signal, lo, pairing, plan)
        assert value == pytest.approx(dense_joint_variance(signal, lo, pairing, plan),
                                      rel=1e-12)

    def test_guard_bounds_each_factor(self):
        # padded signal 10 x 10 and LO 22 x 22: each fits, their product does not
        plan = reference_plan(ImageBandCase.NO_IMAGE_BANDS)
        signal = build_tmss(SqueezeParams(s=0.3), 8)
        lo = build_coherent_product([(0.5, 0.0), (0.5, 0.0)], 20)
        pairing = BeatPairing.for_blo(plan, ImageBandCase.NO_IMAGE_BANDS)
        value = oracle_difference_variance(signal, lo, pairing, plan,
                                           policy=TruncationPolicy(max_dimension=484))
        assert value > 0.0
        with pytest.raises(ValueError, match="guard"):
            oracle_difference_variance(signal, lo, pairing, plan,
                                       policy=TruncationPolicy(max_dimension=483))


def dense_run(p, tones, case, policy=None):
    """The dense route at the cutoffs the oracle runs pick; case None is the
    single-tone scheme."""
    policy = policy if policy is not None else TruncationPolicy()
    n_sig, n_lo = policy.tmss_cutoff(p.s), policy.coherent_cutoff(tones[0][0])
    plan = reference_plan(case)
    if case is None:
        signal, pairing = build_tmss(p, n_sig), BeatPairing.for_plan(plan)
    else:
        signal = build_blo_signal_state(p, case, n_sig)
        pairing = BeatPairing.for_blo(plan, case)
    return oracle_difference_variance(signal, build_coherent_product(tones, n_lo), pairing,
                                      plan, policy=policy)


def structured_run(p, tones, case, policy=None):
    """``oracle_standard_run`` or ``oracle_blo_run`` on the same point."""
    if case is None:
        return oracle_standard_run(p, *tones[0], policy=policy)
    (beta, chi1), (_, chi2) = tones
    return oracle_blo_run(p, beta, chi1, chi2, case, policy=policy)


ALL_SCHEMES = [None] + list(ImageBandCase)


class TestStructuredGrams:
    """The oracle runs build their Grams in pure Python from explicit
    truncated vectors; the dense route over full tensors is the reference."""

    @pytest.mark.parametrize("case", ALL_SCHEMES)
    def test_grams_match_dense_ladder_gram(self, case):
        p = SqueezeParams(s=0.7, theta=2.3)
        tones = [(3.5, 0.4)] if case is None else [(3.5, 0.4), (3.5, 5.1)]
        signal = build_tmss(p, 30) if case is None else build_blo_signal_state(p, case, 30)
        pairs = [(signal_gram(p, 30, signal.n_modes - 2), signal),
                 (coherent_product_gram(tones, 50), build_coherent_product(tones, 50))]
        for gram, state in pairs:
            dense = _kernels._ladder_gram(state)
            assert np.max(np.abs(np.array(gram) - dense)) <= 1e-14 * np.max(np.abs(dense))

    @pytest.mark.parametrize("p,tones,case", [
        *[(SqueezeParams(s=0.4, theta=1.1), [(2.5, 0.3), (2.5, 2.0)], case)
          for case in ImageBandCase],
        (SqueezeParams(s=0.6, theta=0.2), [(4.0, 0.9)], None),
    ])
    def test_runs_match_dense_route_at_factorized_points(self, p, tones, case):
        assert structured_run(p, tones, case) == pytest.approx(dense_run(p, tones, case),
                                                               rel=1e-12)

    def test_runs_match_dense_route_over_seeded_sweep(self):
        rng = np.random.default_rng(2024)
        for case in ALL_SCHEMES:
            for _ in range(6):
                p = SqueezeParams(s=float(rng.uniform(0.1, 1.2)),
                                  theta=float(rng.uniform(0.0, 2.0 * math.pi)))
                beta = float(rng.uniform(1.0, 10.0))
                tones = [(beta, float(rng.uniform(0.0, 2.0 * math.pi)))
                         for _ in range(1 if case is None else 2)]
                assert structured_run(p, tones, case) == pytest.approx(
                    dense_run(p, tones, case), rel=1e-12)

    @pytest.mark.parametrize("policy,match", [
        (TruncationPolicy(target_leakage=1e-4), "leakage"),
        (TruncationPolicy(max_dimension=10_000), "guard"),
    ])
    @pytest.mark.parametrize("case", ALL_SCHEMES)
    def test_failures_match_the_dense_route(self, policy, match, case):
        # padded LO: 10812 levels for one tone at 100, 192^2 for two at 10
        p = SqueezeParams(s=0.5, theta=0.3)
        tones = [(100.0, 0.1)] if case is None else [(10.0, 0.1), (10.0, 0.6)]
        with pytest.raises(ValueError, match=match) as structured:
            structured_run(p, tones, case, policy=policy)
        with pytest.raises(ValueError) as dense:
            dense_run(p, tones, case, policy=policy)
        assert str(structured.value) == str(dense.value)

    def test_unphysical_norm_matches_the_dense_message(self):
        plan = reference_plan(ImageBandCase.NO_IMAGE_BANDS)
        signal = ladder_gram({(0, 0): 1.0 + 0j, (1, 1): 0.5 + 0j})
        lo = coherent_product_gram([(2.0, 0.0), (2.0, 0.0)], 40)
        with pytest.raises(ValueError, match="norm") as structured:
            oracle_from_grams(signal, lo, BeatPairing.for_blo(plan, ImageBandCase.NO_IMAGE_BANDS),
                              plan)
        with pytest.raises(ValueError) as dense:
            FockStateVector(np.diag([1.0, 0.5]))
        assert str(structured.value) == str(dense.value)


REPO = pathlib.Path(__file__).resolve().parents[1]


def names_taken_from(module):
    """Names the tests and the benchmark child take from ``blodyne.<module>``,
    by ``from`` import or by attribute on the module."""
    names = set()
    for path in [*sorted((REPO / "tests").glob("*.py")), REPO / "perfbench" / "child.py"]:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.module == f"blodyne.{module}":
                names.update(alias.name for alias in node.names)
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id == module):
                names.add(node.attr)
    return names


def test_fock_loads_no_numpy_and_every_used_name_resolves():
    # the benchmark's tracer also wraps these by name
    used = {"fock": names_taken_from("fock") | {"oracle_blo_run"},
            "_kernels": names_taken_from("_kernels") | {"pair_ladder_acc", "vdot", "norm_sq"}}
    probe = """
import json, sys
import blodyne.fock as fock
assert 'numpy' not in sys.modules
used = json.loads(sys.argv[1])
missing = [name for name in used['fock'] if not hasattr(fock, name)]
import blodyne._kernels as kernels
missing += [name for name in used['_kernels'] if not hasattr(kernels, name)]
assert not missing, missing
assert all(getattr(fock, name) is getattr(kernels, name) for name in fock._DENSE_NAMES)
assert fock._DENSE_NAMES <= set(dir(fock))
"""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(REPO / "src"), os.environ.get("PYTHONPATH")) if p))
    result = subprocess.run([sys.executable, "-c", probe,
                             json.dumps({k: sorted(v) for k, v in used.items()})],
                            capture_output=True, text=True, env=env)
    assert result.returncode == 0, result.stderr


class TestPlanPairing:
    """The oracle derives its image modes from the plan's own frequencies;
    ``detection``'s classifier is the independent route to the same case."""

    @pytest.mark.parametrize("case", ALL_SCHEMES)
    def test_reference_plans_keep_their_modes(self, case):
        plan = reference_plan(case)
        d = plan.delta
        if case is None:
            expected = (0.0, d), (plan.lo_frequencies[0] - plan.omega_minus,)
        elif case is ImageBandCase.NO_IMAGE_BANDS:
            expected = (0.0, d), (0.0, d)
        elif case is ImageBandCase.SHARED_IMAGE_BAND:
            expected = (0.0, d, 0.5 * d), (0.25 * d, d - 0.25 * d)
        else:
            d1, d2 = plan.delta1, plan.delta2
            expected = (0.0, d, 2.0 * d1, d + 2.0 * d2), (d1, d + d2)
        pairing = BeatPairing.for_plan(plan)
        assert (pairing.signal_freqs, pairing.lo_freqs) == expected

    # The detunings are the cases as a plan states them in Hz: zero, a
    # quarter of the splitting, or at least 2% of the splitting away from
    # both.
    @settings(max_examples=300, deadline=None)
    @given(lower=st.floats(1e14, 6e14), log_split=st.floats(6.0, 9.0),
           fraction=st.one_of(st.sampled_from([0.0, 0.25]), st.floats(-0.48, -0.02),
                              st.floats(0.02, 0.23), st.floats(0.27, 0.48)))
    def test_image_modes_count_the_classified_case(self, lower, log_split, fraction):
        plan, case = parse_plan(plan_hz(lower, 10.0 ** log_split, fraction))
        assert abs(plan.delta1 + plan.delta2) <= detection.detuning_tolerance(plan)
        n_images = len(BeatPairing.for_plan(plan).signal_freqs) - 2
        assert n_images == detection.IMAGE_VACUUM_UNITS[case]

    # Stationary plans whose detuning lies within a factor of 4 of the
    # tolerance from zero or from a quarter of the splitting: the two routes
    # draw the case boundaries inside the tolerance alike
    @settings(max_examples=300, deadline=None)
    @given(lower=st.floats(1e14, 6e14), log_split=st.floats(6.0, 9.0),
           quarter=st.booleans(), sign=st.sampled_from([-1.0, 1.0]),
           log4_offset=st.floats(-1.0, 1.0))
    def test_classifier_draws_the_pairings_boundaries(self, lower, log_split, quarter, sign,
                                                      log4_offset):
        omega_minus = 2.0 * math.pi * lower
        omega_plus = omega_minus + 2.0 * math.pi * 10.0 ** log_split
        base = detection.FrequencyPlan(omega_plus, omega_minus, (omega_minus, omega_plus))
        d = (0.25 * base.delta if quarter else 0.0) + sign * (
            detection.detuning_tolerance(base) * 4.0 ** log4_offset)
        plan = detection.FrequencyPlan(omega_plus, omega_minus,
                                       (omega_minus + d, omega_plus - d))
        n_images = len(BeatPairing.for_plan(plan).signal_freqs) - 2
        case = detection.classify_image_band_case(plan)
        assert n_images == detection.IMAGE_VACUUM_UNITS[case]

    def test_oracle_matches_the_closed_form_on_config_built_plans(self):
        # the benchmark's plan, then seeded plans of each case: omega_minus
        # 1e14-6e14 Hz, splitting log-uniform over 1-1000 MHz
        rng = np.random.default_rng(23)
        plans = [BENCHMARK_TWO_TONE_HZ]
        for fraction in (0.0, 0.25, None):
            for _ in range(40):
                f = fraction if fraction is not None else float(
                    rng.choice([-1.0, 1.0]) * rng.choice([rng.uniform(0.02, 0.23),
                                                          rng.uniform(0.27, 0.48)]))
                plans.append(plan_hz(float(rng.uniform(1e14, 6e14)),
                                     float(10.0 ** rng.uniform(6.0, 9.0)), f))
        p = SqueezeParams(s=0.5, theta=0.3)
        g_lo = coherent_product_gram([(3.0, 0.2), (3.0, 1.0)], coherent_cutoff(3.0))
        for hz in plans:
            plan, case = parse_plan(hz)
            pairing = BeatPairing.for_blo(plan, case)
            g_sig = signal_gram(p, TruncationPolicy().tmss_cutoff(p.s),
                                len(pairing.signal_freqs) - 2)
            assert oracle_from_grams(g_sig, g_lo, pairing, plan) == pytest.approx(
                analytic_blo(p, 3.0, 0.2, 1.0, case), rel=1e-6), hz


def test_oracle_takes_only_value_types_from_detection():
    allowed = {"FrequencyPlan", "ImageBandCase", "SqueezeParams", "_Record"}
    for module in ("fock", "_kernels"):
        tree = ast.parse((REPO / "src" / "blodyne" / f"{module}.py").read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                names = {alias.name for alias in node.names}
                if node.module in ("detection", "blodyne.detection"):
                    assert names <= allowed, (module, sorted(names - allowed))
                else:
                    assert "detection" not in names, module
            elif isinstance(node, ast.Import):
                assert "blodyne.detection" not in {alias.name for alias in node.names}, module


class TestUnitaryRoute:
    @pytest.mark.parametrize("hz", [BENCHMARK_TWO_TONE_HZ, SHARED_TONE_HZ])
    def test_config_built_plan_matches_the_reference_plan(self, hz):
        # cutoffs 1 and 2: the route needs no leakage bound of its own
        plan, case = parse_plan(hz)
        signal = build_blo_signal_state(SqueezeParams(s=0.2, theta=0.8), case, 1)
        lo = build_coherent_product([(0.3, 0.2), (0.3, 1.0)], 2)
        variances = [oracle_difference_variance_unitary(signal, lo, BeatPairing.for_blo(fp, case),
                                                        fp).variance
                     for fp in (plan, reference_plan(case))]
        assert variances[0] == pytest.approx(variances[1], rel=1e-9)

    def test_standard_route_equality(self):
        p = SqueezeParams(s=0.5, theta=0.9)
        plan = reference_plan(None)
        signal = build_tmss(p, 11)
        lo = build_coherent_product([(0.8, 0.7)], 10)
        pairing = BeatPairing.for_plan(plan)
        grouped = oracle_difference_variance(signal, lo, pairing, plan)
        unitary = oracle_difference_variance_unitary(signal, lo, pairing, plan)
        assert grouped == pytest.approx(unitary.variance, rel=1e-10)
        assert abs(unitary.norm_after - unitary.norm_before) < 1e-10
        assert unitary.photons_out == pytest.approx(unitary.photons_in, abs=1e-10)

    def test_no_image_route_equality(self):
        p = SqueezeParams(s=0.5, theta=0.9)
        case = ImageBandCase.NO_IMAGE_BANDS
        plan = reference_plan(case)
        signal = build_blo_signal_state(p, case, 11)
        lo = build_coherent_product([(0.9, 0.2), (0.9, 1.0)], 11)
        pairing = BeatPairing.for_blo(plan, case)
        grouped = oracle_difference_variance(signal, lo, pairing, plan)
        unitary = oracle_difference_variance_unitary(signal, lo, pairing, plan)
        assert grouped == pytest.approx(unitary.variance, rel=1e-10)
        assert abs(unitary.norm_after - unitary.norm_before) < 1e-10

    def test_shared_image_route_equality(self):
        p = SqueezeParams(s=0.15, theta=0.8)
        case = ImageBandCase.SHARED_IMAGE_BAND
        plan = reference_plan(case)
        signal = build_blo_signal_state(p, case, 3)
        lo = build_coherent_product([(0.35, 0.2), (0.35, 1.0)], 4)
        pairing = BeatPairing.for_blo(plan, case)
        grouped = oracle_difference_variance(signal, lo, pairing, plan)
        unitary = oracle_difference_variance_unitary(signal, lo, pairing, plan)
        assert grouped == pytest.approx(unitary.variance, rel=1e-10)
        assert unitary.photons_out == pytest.approx(unitary.photons_in, abs=1e-10)

    def test_two_image_route_equality(self):
        # six frequencies at cutoffs 2 and 2: 1.05e6 amplitudes, under the
        # route's guard, and both states leak under 1e-6
        p = SqueezeParams(s=0.1, theta=0.8)
        case = ImageBandCase.TWO_IMAGE_BANDS
        plan = reference_plan(case)
        signal = build_blo_signal_state(p, case, 2)
        lo = build_coherent_product([(0.1, 0.2), (0.1, 1.0)], 2)
        pairing = BeatPairing.for_blo(plan, case)
        grouped = oracle_difference_variance(signal, lo, pairing, plan)
        unitary = oracle_difference_variance_unitary(signal, lo, pairing, plan)
        assert grouped == pytest.approx(unitary.variance, rel=1e-10)
        assert abs(unitary.norm_after - unitary.norm_before) < 1e-10
        assert unitary.photons_out == pytest.approx(unitary.photons_in, abs=1e-10)

    @pytest.mark.parametrize("dim", [2, 3, 6])
    def test_splitter_matches_dense_generator_exponential(self, dim):
        # reference: one eigendecomposition of the whole dim^2 x dim^2
        # generator, no photon-number blocks
        ladder = np.sqrt(np.arange(1.0, dim))
        ad, a = np.diag(ladder, -1), np.diag(ladder, 1)
        w, v = np.linalg.eigh(np.kron(ad, a) + np.kron(a, ad))
        reference = (v * np.exp(1j * (math.pi / 4.0) * w)) @ v.T
        u = balanced_bs_unitary(dim)
        assert np.max(np.abs(u - reference)) <= 1e-13
        assert np.max(np.abs(u.conj().T @ u - np.eye(dim * dim))) <= 1e-13

    def test_single_pair_splitter_photon_split(self):
        state = build_coherent_product([(1.2, 0.3)], 18)
        joint = FockStateVector(np.multiply.outer(
            state.amplitudes, build_coherent_product([(0.0, 0.0)], 0).amplitudes))
        mixed = apply_balanced_bs(joint, 0, 1)
        half = 1.2**2 / 2.0
        gram = _ladder_gram(mixed)
        assert gram[1, 1].real == pytest.approx(half, abs=1e-8)
        assert gram[3, 3].real == pytest.approx(half, abs=1e-8)
        assert mixed.norm_sq == pytest.approx(joint.norm_sq, abs=1e-12)


def test_norm_above_one_rejected():
    amp = np.ones((2, 2), dtype=complex)
    with pytest.raises(ValueError, match="norm"):
        FockStateVector(amp)


def test_self_check_routes_run_without_scipy():
    # the self-check routes need numpy only: they run with scipy made
    # unimportable
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    probe = """
import sys
sys.modules['scipy'] = None
from blodyne import ImageBandCase
from blodyne.fock import BeatPairing, reference_plan
from blodyne._kernels import (apply_balanced_bs, build_blo_signal_state,
                              build_coherent_product, build_tmss_via_expm,
                              oracle_difference_variance_unitary)
from blodyne.gaussian import SqueezeParams
p = SqueezeParams(s=0.3, theta=0.8)
apply_balanced_bs(build_tmss_via_expm(p, 4), 0, 1)
case = ImageBandCase.NO_IMAGE_BANDS
plan = reference_plan(case)
oracle_difference_variance_unitary(
    build_blo_signal_state(p, case, 3), build_coherent_product([(0.5, 0.2), (0.5, 1.0)], 4),
    BeatPairing.for_blo(plan, case), plan)
"""
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                            env=env)
    assert result.returncode == 0, result.stderr
