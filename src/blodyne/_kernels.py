"""How ladder operators act on dense state tensors, and the state reductions.

This is the one module that knows how a ladder operator acts on an axis of
a dense complex tensor: each operator takes an ``np.moveaxis`` view with
the affected axis or axes last, shifts it by one level and multiplies by
sqrt(1..d-1). :mod:`blodyne.fock` builds its ladder Gram matrices, its
state norms and the explicit-unitary self-check on these, and the benchmark
probes them by name:

* ``lowered``           the annihilation operator along one axis
* ``raised``            the creation operator along one axis
* ``pair_ladder_acc``   accumulate  coeff * (raise one mode, lower another)
* ``vdot``              conjugated inner product of two state tensors
* ``norm_sq``           squared norm of a state tensor
"""

from __future__ import annotations

import numpy as np


def _ladder(d: int) -> np.ndarray:
    """sqrt(1..d-1): the factor of lowering level n to n-1, and of raising n-1 to n."""
    return np.sqrt(np.arange(1.0, d))


def lowered(amp: np.ndarray, axis: int) -> np.ndarray:
    """Apply the annihilation operator along one axis (shape preserved)."""
    out = np.zeros_like(amp)
    np.moveaxis(out, axis, -1)[..., :-1] = (np.moveaxis(amp, axis, -1)[..., 1:]
                                            * _ladder(amp.shape[axis]))
    return out


def raised(amp: np.ndarray, axis: int) -> np.ndarray:
    """Apply the creation operator along one axis.

    The top level is dropped, so callers must pad the axis with an unused
    zero level first for the result to be exact.
    """
    out = np.zeros_like(amp)
    np.moveaxis(out, axis, -1)[..., 1:] = (np.moveaxis(amp, axis, -1)[..., :-1]
                                           * _ladder(amp.shape[axis]))
    return out


def pair_ladder_acc(out: np.ndarray, amp: np.ndarray, axis_up: int, axis_dn: int,
                    coeff: complex) -> None:
    """Accumulate ``coeff * (a_up^dag a_dn) |amp>`` into ``out`` in place.

    For two axes, ``amp`` and ``out`` must share a shape whose top level
    along ``axis_up`` is unused headroom (the raised component would
    otherwise be truncated). On one axis the pair is the number operator,
    which is diagonal and exact without headroom.
    """
    if out.shape != amp.shape:
        raise ValueError("output and input tensors must share a shape")
    coeff = complex(coeff)
    if axis_up == axis_dn:
        dst = np.moveaxis(out, axis_up, -1)
        dst += (coeff * np.arange(amp.shape[axis_up])) * np.moveaxis(amp, axis_up, -1)
        return
    dst = np.moveaxis(out, (axis_up, axis_dn), (-2, -1))
    src = np.moveaxis(amp, (axis_up, axis_dn), (-2, -1))
    # the small factor grid is formed first, so the update makes one
    # full-size temporary
    dst[..., 1:, :-1] += (np.multiply.outer(coeff * _ladder(amp.shape[axis_up]),
                                            _ladder(amp.shape[axis_dn]))
                          * src[..., :-1, 1:])


def vdot(x: np.ndarray, y: np.ndarray) -> complex:
    """Conjugated inner product <x|y>."""
    return complex(np.vdot(x, y))


def norm_sq(x: np.ndarray) -> float:
    """Squared two-norm <x|x>."""
    return float(np.vdot(x, x).real)
