import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blodyne.gaussian import (BeamSplitterSpec, GaussianState, ModeLabel,
                              PhysicalityError, SqueezeParams,
                              apply_beam_splitter, apply_displacement,
                              apply_two_mode_squeeze, mean_photon,
                              quadrature_variance, symplectic_form,
                              vacuum_state)

M1 = ModeLabel("plus", 2.0e15 + 5.0e7)
M2 = ModeLabel("minus", 2.0e15 - 5.0e7)
M3 = ModeLabel("aux1", 2.0e15 + 1.0e8)
M4 = ModeLabel("aux2", 2.0e15 + 2.0e8)


def pair_annihilation_moment(state, ma, mb):
    """<a_ma a_mb> from the covariance blocks (zero-mean states)."""
    i, j = state.mode_index(ma), state.mode_index(mb)
    c = state.cov
    re = c[2 * i, 2 * j] - c[2 * i + 1, 2 * j + 1]
    im = c[2 * i, 2 * j + 1] + c[2 * i + 1, 2 * j]
    return complex(re, im)


class TestVacuum:
    def test_single_mode(self):
        st_ = vacuum_state([M1])
        assert np.array_equal(st_.cov, 0.25 * np.eye(2))
        assert np.array_equal(st_.mean, np.zeros(2))

    def test_four_modes(self):
        st_ = vacuum_state([M1, M2, M3, M4])
        assert np.array_equal(st_.cov, 0.25 * np.eye(8))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            vacuum_state([])

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            vacuum_state([M1, ModeLabel("plus", 1.0e15)])

    def test_nonpositive_frequency_rejected(self):
        with pytest.raises(ValueError):
            ModeLabel("bad", 0.0)


class TestSqueezeParams:
    def test_theta_reduced(self):
        assert SqueezeParams(s=0.1, theta=-math.pi).theta == pytest.approx(math.pi)
        assert SqueezeParams(s=0.1, theta=5.0 * math.pi).theta == pytest.approx(math.pi)

    def test_negative_s_rejected(self):
        with pytest.raises(ValueError):
            SqueezeParams(s=-0.1)


class TestTwoModeSqueeze:
    def test_identity_at_zero(self):
        st_ = vacuum_state([M1, M2])
        out = apply_two_mode_squeeze(st_, M1, M2, SqueezeParams(s=0.0, theta=1.0))
        assert np.allclose(out.cov, st_.cov, atol=1e-15)

    def test_squeezed_sum_quadrature(self):
        st_ = vacuum_state([M1, M2])
        out = apply_two_mode_squeeze(st_, M1, M2, SqueezeParams(s=1.0, theta=0.0))
        var = quadrature_variance(out, (M1, M2), 0.0)
        assert var == pytest.approx(math.exp(-2.0) / 4.0, rel=1e-12)

    def test_pair_moment_magnitude(self):
        st_ = vacuum_state([M1, M2])
        out = apply_two_mode_squeeze(st_, M1, M2, SqueezeParams(s=0.5, theta=math.pi / 2))
        mom = pair_annihilation_moment(out, M1, M2)
        sc = math.sinh(0.5) * math.cosh(0.5)
        assert abs(mom) == pytest.approx(sc, rel=1e-12)
        # convention check: <a1 a2> = -e^{i theta} sinh s cosh s
        assert mom == pytest.approx(-1j * sc, rel=1e-12)

    def test_same_mode_rejected(self):
        st_ = vacuum_state([M1, M2])
        with pytest.raises(ValueError):
            apply_two_mode_squeeze(st_, M1, M1, SqueezeParams(s=0.1))

    def test_unknown_mode_rejected(self):
        st_ = vacuum_state([M1, M2])
        with pytest.raises(ValueError, match="not part"):
            apply_two_mode_squeeze(st_, M1, M3, SqueezeParams(s=0.1))


class TestDisplacement:
    def test_zero_is_identity(self):
        st_ = vacuum_state([M1])
        out = apply_displacement(st_, M1, 0.0)
        assert np.array_equal(out.mean, st_.mean)

    def test_mean_photon_number(self):
        st_ = vacuum_state([M1])
        assert mean_photon(apply_displacement(st_, M1, 2.0), M1) == pytest.approx(4.0)
        assert mean_photon(apply_displacement(st_, M1, 1.0 + 1.0j), M1) == pytest.approx(2.0)

    def test_cov_unchanged(self):
        st_ = vacuum_state([M1, M2])
        out = apply_displacement(st_, M2, 3.0 - 2.0j)
        assert np.array_equal(out.cov, st_.cov)


class TestBeamSplitter:
    def test_identity_spec(self):
        st_ = apply_displacement(vacuum_state([M1, M2]), M1, 1.5)
        out = apply_beam_splitter(st_, M1, M2, BeamSplitterSpec(t=1.0, r=0.0))
        assert np.allclose(out.mean, st_.mean, atol=1e-15)
        assert np.allclose(out.cov, st_.cov, atol=1e-15)

    def test_balanced_splits_coherent(self):
        st_ = apply_displacement(vacuum_state([M1, M2]), M1, 3.0)
        out = apply_beam_splitter(st_, M1, M2, BeamSplitterSpec.balanced())
        assert mean_photon(out, M1) == pytest.approx(4.5, rel=1e-12)
        assert mean_photon(out, M2) == pytest.approx(4.5, rel=1e-12)

    def test_non_unitary_rejected(self):
        with pytest.raises(ValueError, match="non-unitary"):
            BeamSplitterSpec(t=0.9, r=0.1)

    def test_phase_convention_rejected(self):
        inv = 1.0 / math.sqrt(2.0)
        with pytest.raises(ValueError, match="phase convention"):
            BeamSplitterSpec(t=inv, r=inv)

    def test_flux_conserved(self):
        st_ = apply_two_mode_squeeze(vacuum_state([M1, M2]), M1, M2,
                                     SqueezeParams(s=0.8, theta=0.3))
        st_ = apply_displacement(st_, M1, 1.0 + 2.0j)
        out = apply_beam_splitter(st_, M1, M2, BeamSplitterSpec.balanced())
        flux_in = np.trace(st_.cov) + st_.mean @ st_.mean
        flux_out = np.trace(out.cov) + out.mean @ out.mean
        assert flux_out == pytest.approx(flux_in, rel=1e-12)


class TestQuadratureVariance:
    def test_vacuum_any_angle(self):
        st_ = vacuum_state([M1, M2])
        for angle in np.linspace(0.0, 2.0 * math.pi, 17):
            assert quadrature_variance(st_, (M1, M2), angle) == pytest.approx(0.25, rel=1e-12)

    def test_antisqueezed_value(self):
        out = apply_two_mode_squeeze(vacuum_state([M1, M2]), M1, M2,
                                     SqueezeParams(s=1.0, theta=math.pi))
        assert quadrature_variance(out, (M1, M2), 0.0) == pytest.approx(
            math.exp(2.0) / 4.0, rel=1e-12)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            quadrature_variance(vacuum_state([M1, M2]), (M1, M3), 0.0)


@settings(max_examples=60, deadline=None)
@given(s=st.floats(0.0, 3.0), theta=st.floats(0.0, 2.0 * math.pi, exclude_max=True))
def test_trace_identity(s, theta):
    out = apply_two_mode_squeeze(vacuum_state([M1, M2]), M1, M2,
                                 SqueezeParams(s=s, theta=theta))
    total = (quadrature_variance(out, (M1, M2), 0.0)
             + quadrature_variance(out, (M1, M2), math.pi / 2.0))
    assert total == pytest.approx(math.cosh(2.0 * s) / 2.0, rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(s=st.floats(0.0, 3.0), theta=st.floats(0.0, 2.0 * math.pi, exclude_max=True))
def test_uncertainty_product(s, theta):
    out = apply_two_mode_squeeze(vacuum_state([M1, M2]), M1, M2,
                                 SqueezeParams(s=s, theta=theta))
    prod = (quadrature_variance(out, (M1, M2), 0.0)
            * quadrature_variance(out, (M1, M2), math.pi / 2.0))
    # float evaluation of cosh^2 - sinh^2 wobbles ~1e-11 near theta = 0, pi
    assert prod >= 1.0 / 16.0 - 1e-12


def test_uncertainty_equality_at_axis_angles():
    for theta in (0.0, math.pi):
        out = apply_two_mode_squeeze(vacuum_state([M1, M2]), M1, M2,
                                     SqueezeParams(s=1.3, theta=theta))
        prod = (quadrature_variance(out, (M1, M2), 0.0)
                * quadrature_variance(out, (M1, M2), math.pi / 2.0))
        assert prod == pytest.approx(1.0 / 16.0, rel=1e-10)


def test_symplectic_preservation_randomized():
    # 1000 random squeeze/splitter application chains; the state constructor
    # enforces the Heisenberg eigenvalue condition, so surviving construction
    # is the assertion.
    rng = np.random.default_rng(42)
    modes = [M1, M2, M3]
    omega = symplectic_form(len(modes))
    for _ in range(1000):
        state = vacuum_state(modes)
        for _ in range(3):
            op = rng.integers(0, 3)
            a, b = rng.choice(len(modes), size=2, replace=False)
            if op == 0:
                state = apply_two_mode_squeeze(
                    state, modes[a], modes[b],
                    SqueezeParams(s=float(rng.uniform(0, 1.5)),
                                  theta=float(rng.uniform(0, 2 * math.pi))))
            elif op == 1:
                state = apply_beam_splitter(state, modes[a], modes[b],
                                            BeamSplitterSpec.balanced())
            else:
                state = apply_displacement(state, modes[a],
                                           complex(rng.normal(), rng.normal()))
        herm = state.cov + 0.25j * omega
        assert float(np.linalg.eigvalsh(herm)[0]) >= -1e-10


@pytest.mark.parametrize("s", [8.0, 10.0, 20.0])
def test_deep_two_mode_squeeze_is_physical(s):
    # cov entries reach cosh(2s)/4, so eigensolver noise on the Heisenberg
    # check scales with them; every angle must still build
    for theta in np.linspace(0.0, 2.0 * math.pi, 16, endpoint=False):
        out = apply_two_mode_squeeze(vacuum_state([M1, M2]), M1, M2,
                                     SqueezeParams(s=s, theta=float(theta)))
        # the anti-squeezed joint quadrature sits a quarter turn from theta/2
        assert quadrature_variance(out, (M1, M2), theta / 2.0 + math.pi / 2.0) == \
            pytest.approx(math.exp(2.0 * s) / 4.0, rel=1e-12)


def test_unphysical_cov_rejected():
    with pytest.raises(PhysicalityError):
        GaussianState(modes=(M1,), mean=np.zeros(2), cov=0.1 * np.eye(2))


def test_asymmetric_cov_rejected():
    cov = 0.25 * np.eye(2)
    cov[0, 1] = 1e-3
    with pytest.raises(ValueError, match="symmetric"):
        GaussianState(modes=(M1,), mean=np.zeros(2), cov=cov)


def test_states_are_immutable():
    st_ = vacuum_state([M1])
    with pytest.raises(ValueError):
        st_.cov[0, 0] = 1.0
