"""The three tensor primitives behind the Fock state norms and self-checks.

The state norms and the explicit-unitary self-check route of
:mod:`blodyne.fock` use them (the grouped oracle and the moment helpers
work on per-factor ladder Gram matrices and need none of them), and the
benchmark probes them by these names, so they live in one small module:

* ``pair_ladder_acc``   accumulate  coeff * (raise one mode, lower another)
* ``vdot``              conjugated inner product of two state tensors
* ``norm_sq``           squared norm of a state tensor
"""

from __future__ import annotations

import numpy as np


def _canonical_5d(arr: np.ndarray, ax_a: int, ax_b: int) -> np.ndarray:
    """Reshape a C-contiguous tensor to (pre, dim_a, mid, dim_b, post)."""
    shape = arr.shape
    pre = int(np.prod(shape[:ax_a], dtype=np.int64))
    mid = int(np.prod(shape[ax_a + 1 : ax_b], dtype=np.int64))
    post = int(np.prod(shape[ax_b + 1 :], dtype=np.int64))
    return arr.reshape(pre, shape[ax_a], mid, shape[ax_b], post)


def pair_ladder_acc(out: np.ndarray, amp: np.ndarray, axis_up: int, axis_dn: int,
                    coeff: complex) -> None:
    """Accumulate ``coeff * (a_up^dag a_dn) |amp>`` into ``out`` in place.

    ``amp`` and ``out`` must share a shape whose top level along ``axis_up``
    is unused headroom (the raised component would otherwise be truncated).
    """
    if axis_up == axis_dn:
        raise ValueError("raise and lower axes must differ")
    if out.shape != amp.shape:
        raise ValueError("output and input tensors must share a shape")
    a, b = sorted((axis_up, axis_dn))
    amp5 = _canonical_5d(amp, a, b)
    out5 = _canonical_5d(out, a, b)
    coeff = complex(coeff)
    A, B = amp5.shape[1], amp5.shape[3]
    # sqrt(1..A-1) along the first axis times sqrt(1..B-1) along the second:
    # raising level n -> n+1 and lowering k+1 -> k carry the same factors
    ca = np.sqrt(np.arange(1, A)).reshape(1, A - 1, 1, 1, 1)
    cb = np.sqrt(np.arange(1, B)).reshape(1, 1, 1, B - 1, 1)
    if axis_up == a:
        out5[:, 1:, :, :-1, :] += coeff * ca * cb * amp5[:, :-1, :, 1:, :]
    else:
        out5[:, :-1, :, 1:, :] += coeff * ca * cb * amp5[:, 1:, :, :-1, :]


def vdot(x: np.ndarray, y: np.ndarray) -> complex:
    """Conjugated inner product <x|y>."""
    return complex(np.vdot(x, y))


def norm_sq(x: np.ndarray) -> float:
    """Squared two-norm <x|x>."""
    return float(np.vdot(x, x).real)
