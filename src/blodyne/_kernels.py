"""Hot tensor kernels with a numba fast path and a pure-numpy fallback.

The state norms, the test-scale moment helpers and the explicit-unitary
self-check route of :mod:`blodyne.fock` use three primitives (the grouped
oracle works on per-factor inner products and needs none of them):

* ``pair_ladder_acc``   accumulate  coeff * (raise one mode, lower another)
* ``vdot``              conjugated inner product of two state tensors
* ``norm_sq``           squared norm of a state tensor

The numba implementations are compiled lazily on first use and use
compensated (Kahan) summation for the reductions, so results do not depend
on any reduction reordering. Set ``BLODYNE_DISABLE_NUMBA=1`` to force the
numpy implementations (numpy's pairwise ``sum``/BLAS ``vdot`` are used
there instead).
"""

from __future__ import annotations

import math
import os

import numpy as np

_ENV_FLAG = "BLODYNE_DISABLE_NUMBA"

try:
    from numba import njit

    _NUMBA_IMPORTED = True
except ImportError:  # pragma: no cover - exercised only without numba
    njit = None
    _NUMBA_IMPORTED = False


def numba_enabled() -> bool:
    """True when the numba fast path is active for this process."""
    if os.environ.get(_ENV_FLAG, "").strip().lower() in ("1", "true", "yes"):
        return False
    return _NUMBA_IMPORTED


# ---------------------------------------------------------------------------
# numba kernels (5-D canonical layout: pre, first, mid, second, post)
# ---------------------------------------------------------------------------

if _NUMBA_IMPORTED:

    @njit(cache=True)
    def _nb_ladder_first_up(out, amp, coeff):
        # out[p, n+1, m, k-1, q] += coeff * sqrt(n+1) * sqrt(k) * amp[p, n, m, k, q]
        P, A, M, B, Q = amp.shape
        for p in range(P):
            for n in range(A - 1):
                cu = math.sqrt(n + 1.0)
                for m in range(M):
                    for k in range(1, B):
                        c = coeff * (cu * math.sqrt(k))
                        for q in range(Q):
                            out[p, n + 1, m, k - 1, q] += c * amp[p, n, m, k, q]

    @njit(cache=True)
    def _nb_ladder_second_up(out, amp, coeff):
        # out[p, n-1, m, k+1, q] += coeff * sqrt(n) * sqrt(k+1) * amp[p, n, m, k, q]
        P, A, M, B, Q = amp.shape
        for p in range(P):
            for n in range(1, A):
                cd = math.sqrt(n)
                for m in range(M):
                    for k in range(B - 1):
                        c = coeff * (cd * math.sqrt(k + 1.0))
                        for q in range(Q):
                            out[p, n - 1, m, k + 1, q] += c * amp[p, n, m, k, q]

    @njit(cache=True)
    def _nb_vdot_kahan(x, y):
        sr = 0.0
        cr = 0.0
        si = 0.0
        ci = 0.0
        for i in range(x.size):
            v = np.conj(x[i]) * y[i]
            tr = v.real - cr
            t = sr + tr
            cr = (t - sr) - tr
            sr = t
            ti = v.imag - ci
            t = si + ti
            ci = (t - si) - ti
            si = t
        return complex(sr, si)

    @njit(cache=True)
    def _nb_norm_sq_kahan(x):
        s = 0.0
        c = 0.0
        for i in range(x.size):
            v = x[i].real * x[i].real + x[i].imag * x[i].imag
            t0 = v - c
            t = s + t0
            c = (t - s) - t0
            s = t
        return s


# ---------------------------------------------------------------------------
# numpy fallbacks
# ---------------------------------------------------------------------------


def _np_ladder_first_up(out, amp, coeff):
    A, B = amp.shape[1], amp.shape[3]
    cu = np.sqrt(np.arange(1, A)).reshape(1, A - 1, 1, 1, 1)
    cd = np.sqrt(np.arange(1, B)).reshape(1, 1, 1, B - 1, 1)
    out[:, 1:, :, :-1, :] += coeff * cu * cd * amp[:, :-1, :, 1:, :]


def _np_ladder_second_up(out, amp, coeff):
    A, B = amp.shape[1], amp.shape[3]
    cd = np.sqrt(np.arange(1, A)).reshape(1, A - 1, 1, 1, 1)
    cu = np.sqrt(np.arange(1, B)).reshape(1, 1, 1, B - 1, 1)
    out[:, :-1, :, 1:, :] += coeff * cd * cu * amp[:, 1:, :, :-1, :]


# ---------------------------------------------------------------------------
# public dispatchers
# ---------------------------------------------------------------------------


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
    if numba_enabled():
        if axis_up == a:
            _nb_ladder_first_up(out5, amp5, coeff)
        else:
            _nb_ladder_second_up(out5, amp5, coeff)
    else:
        if axis_up == a:
            _np_ladder_first_up(out5, amp5, coeff)
        else:
            _np_ladder_second_up(out5, amp5, coeff)


def vdot(x: np.ndarray, y: np.ndarray) -> complex:
    """Conjugated inner product <x|y> with order-stable accumulation."""
    if numba_enabled():
        return _nb_vdot_kahan(x.reshape(-1), y.reshape(-1))
    return complex(np.vdot(x, y))


def norm_sq(x: np.ndarray) -> float:
    """Squared two-norm <x|x>."""
    if numba_enabled():
        return float(_nb_norm_sq_kahan(x.reshape(-1)))
    return float(np.vdot(x, x).real)
