import numpy as np
import pytest

from blodyne import _kernels


def random_state(shape, seed=0):
    rng = np.random.default_rng(seed)
    amp = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return np.ascontiguousarray(amp / np.linalg.norm(amp))


def dense_pair_ladder(amp, axis_up, axis_dn, coeff):
    """Reference implementation via dense ladder matrices and tensordot."""
    d_up, d_dn = amp.shape[axis_up], amp.shape[axis_dn]
    raise_m = np.diag(np.sqrt(np.arange(1.0, d_up)), -1)
    lower_m = np.diag(np.sqrt(np.arange(1.0, d_dn)), 1)
    out = np.tensordot(raise_m, amp, axes=(1, axis_up))
    out = np.moveaxis(out, 0, axis_up)
    out = np.tensordot(lower_m, out, axes=(1, axis_dn))
    out = np.moveaxis(out, 0, axis_dn)
    return coeff * out


@pytest.mark.parametrize("axis_up,axis_dn", [(0, 2), (2, 0), (1, 3), (3, 1), (0, 3)])
def test_pair_ladder_matches_dense_reference(axis_up, axis_dn):
    amp = random_state((4, 5, 3, 6), seed=axis_up * 7 + axis_dn)
    coeff = 0.3 - 1.2j
    out = np.zeros_like(amp)
    _kernels.pair_ladder_acc(out, amp, axis_up, axis_dn, coeff)
    ref = dense_pair_ladder(amp, axis_up, axis_dn, coeff)
    assert np.max(np.abs(out - ref)) < 1e-14


def test_pair_ladder_accumulates():
    amp = random_state((3, 4, 5), seed=5)
    out = np.zeros_like(amp)
    _kernels.pair_ladder_acc(out, amp, 0, 2, 1.0)
    _kernels.pair_ladder_acc(out, amp, 2, 1, -2j)
    ref = dense_pair_ladder(amp, 0, 2, 1.0) + dense_pair_ladder(amp, 2, 1, -2j)
    assert np.max(np.abs(out - ref)) < 1e-14


def test_same_axis_rejected():
    amp = random_state((3, 3), seed=1)
    with pytest.raises(ValueError):
        _kernels.pair_ladder_acc(np.zeros_like(amp), amp, 1, 1, 1.0)


def test_reductions_against_numpy():
    x = random_state((50, 50), seed=2)
    y = random_state((50, 50), seed=3)
    assert _kernels.norm_sq(x) == pytest.approx(float(np.vdot(x, x).real), rel=1e-13)
    assert _kernels.vdot(x, y) == pytest.approx(complex(np.vdot(x, y)), rel=1e-13)

