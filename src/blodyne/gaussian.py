"""Exact Gaussian-moment representation of multi-mode bosonic fields.

States carry a quadrature mean vector and covariance matrix in the ordering
(x1, p1, x2, p2, ...), with x = (a + a^dag)/2 and p = (a - a^dag)/2i, so the
vacuum has variance 1/4 on every quadrature axis. Optical carrier phases are
deliberately not tracked here: states hold envelope moments only, and every
operation in this module is time independent. All values are immutable after
construction and all operations are pure functions returning new states, so
they are safe to evaluate concurrently.
"""

import cmath
import math

import numpy as np

from .detection import SqueezeParams, _Record

_SYMMETRY_RTOL = 1e-12
_PHYSICALITY_SLACK = 1e-10
VACUUM_QUAD_VARIANCE = 0.25


class PhysicalityError(ValueError):
    """A covariance matrix violates the Heisenberg positivity condition."""


class ModeLabel(_Record):
    """An addressable bosonic mode: opaque id plus angular frequency in rad/s."""

    __slots__ = ("id", "angular_frequency")

    def __init__(self, id: str, angular_frequency: float):
        if not (angular_frequency > 0.0 and math.isfinite(angular_frequency)):
            raise ValueError(
                f"mode {id!r}: angular_frequency must be finite and positive, "
                f"got {angular_frequency!r}"
            )
        _Record.__init__(self, id, angular_frequency)


class BeamSplitterSpec(_Record):
    """Complex transmissivity/reflectivity pair of a lossless beam splitter.

    The pair must satisfy |t|^2 + |r|^2 = 1 and conj(t)*r = i|rt| (the phase
    convention under which the difference signal of a balanced splitter
    reduces to the pure interference term).
    """

    __slots__ = ("t", "r")

    def __init__(self, t: complex, r: complex):
        _Record.__init__(self, t, r)
        t, r = complex(t), complex(r)
        if abs(abs(t) ** 2 + abs(r) ** 2 - 1.0) > 1e-12:
            raise ValueError(
                f"non-unitary beam splitter: |t|^2 + |r|^2 = {abs(t)**2 + abs(r)**2!r}"
            )
        if abs(t.conjugate() * r - 1j * abs(r * t)) > 1e-12:
            raise ValueError(
                "beam splitter phase convention violated: conj(t)*r must equal i|rt|, "
                f"got {t.conjugate() * r!r}"
            )

    @classmethod
    def balanced(cls) -> "BeamSplitterSpec":
        """The 50/50 splitter t = 1/sqrt(2), r = i/sqrt(2)."""
        inv = 1.0 / math.sqrt(2.0)
        return cls(t=inv, r=1j * inv)


def symplectic_form(n_modes: int) -> np.ndarray:
    """The standard symplectic form for (x1, p1, ...) ordering."""
    omega = np.zeros((2 * n_modes, 2 * n_modes))
    for k in range(n_modes):
        omega[2 * k, 2 * k + 1] = 1.0
        omega[2 * k + 1, 2 * k] = -1.0
    return omega


class GaussianState(_Record):
    """Mean vector and symmetric covariance matrix over labeled modes.

    Invariants, enforced on construction:

    * mode ids are unique,
    * cov is symmetric to 1e-12 relative,
    * cov + (i/4) * Omega is positive semidefinite up to eigenvalue slack
      1e-10 * max(1, max|cov|) (Heisenberg physicality; the slack absorbs
      eigensolver noise, which grows with the entries of deeply squeezed
      states).
    """

    __slots__ = ("modes", "mean", "cov")
    _repr_omit = ("mean", "cov")

    def __init__(self, modes: tuple[ModeLabel, ...], mean: np.ndarray, cov: np.ndarray):
        modes = tuple(modes)
        if not modes:
            raise ValueError("a Gaussian state needs at least one mode")
        ids = [m.id for m in modes]
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate mode ids in state: {ids}")
        n = len(modes)
        mean = np.array(mean, dtype=float)
        cov = np.array(cov, dtype=float)
        if mean.shape != (2 * n,):
            raise ValueError(f"mean must have shape ({2 * n},), got {mean.shape}")
        if cov.shape != (2 * n, 2 * n):
            raise ValueError(f"cov must have shape ({2 * n}, {2 * n}), got {cov.shape}")
        asym = np.max(np.abs(cov - cov.T))
        if asym > _SYMMETRY_RTOL * (1.0 + np.max(np.abs(cov))):
            raise ValueError(f"covariance is not symmetric (max asymmetry {asym:g})")
        cov = 0.5 * (cov + cov.T)
        herm = cov + 0.25j * symplectic_form(n)
        min_eig = float(np.linalg.eigvalsh(herm)[0])
        if min_eig < -_PHYSICALITY_SLACK * max(1.0, float(np.max(np.abs(cov)))):
            raise PhysicalityError(
                f"covariance violates the Heisenberg condition: min eigenvalue of "
                f"cov + (i/4)*Omega is {min_eig:g}"
            )
        _Record.__init__(self, modes, mean, cov)

    @property
    def n_modes(self) -> int:
        return len(self.modes)

    def mode_index(self, m: ModeLabel) -> int:
        for k, mode in enumerate(self.modes):
            if mode.id == m.id:
                return k
        raise ValueError(f"mode {m.id!r} is not part of this state")


def vacuum_state(modes) -> GaussianState:
    """The multi-mode vacuum: zero mean, cov = (1/4) * identity."""
    modes = tuple(modes)
    if not modes:
        raise ValueError("vacuum_state needs a non-empty mode list")
    n = len(modes)
    return GaussianState(
        modes=modes,
        mean=np.zeros(2 * n),
        cov=VACUUM_QUAD_VARIANCE * np.eye(2 * n),
    )


def _conjugate(state: GaussianState, s_matrix: np.ndarray) -> GaussianState:
    return GaussianState(
        modes=state.modes,
        mean=s_matrix @ state.mean,
        cov=s_matrix @ state.cov @ s_matrix.T,
    )


def _rotation_block(c: complex) -> np.ndarray:
    """Real 2x2 block acting on (x, p) for multiplication of a by complex c."""
    return np.array([[c.real, -c.imag], [c.imag, c.real]])


def apply_two_mode_squeeze(state: GaussianState, m1: ModeLabel, m2: ModeLabel,
                           p: SqueezeParams) -> GaussianState:
    """Apply the two-mode squeeze that entangles m1 and m2.

    The convention is fixed by the envelope moment it produces from vacuum:
    <a1 a2> = -exp(i*theta) * sinh(s) * cosh(s), giving a joint-quadrature
    variance (e^{-2s}/4 along the squeezed axis) at angle theta/2.
    """
    i, j = state.mode_index(m1), state.mode_index(m2)
    if i == j:
        raise ValueError("two-mode squeezing needs two distinct modes")
    n = state.n_modes
    ch = math.cosh(p.s)
    zeta = -cmath.exp(1j * p.theta) * math.sinh(p.s)
    # a1 -> cosh(s) a1 + zeta a2^dag couples (x2, p2) through the conjugation
    # block [[Re z, Im z], [Im z, -Re z]].
    conj_block = np.array([[zeta.real, zeta.imag], [zeta.imag, -zeta.real]])
    s_matrix = np.eye(2 * n)
    for k in (i, j):
        s_matrix[2 * k : 2 * k + 2, 2 * k : 2 * k + 2] = ch * np.eye(2)
    s_matrix[2 * i : 2 * i + 2, 2 * j : 2 * j + 2] = conj_block
    s_matrix[2 * j : 2 * j + 2, 2 * i : 2 * i + 2] = conj_block
    return _conjugate(state, s_matrix)


def apply_displacement(state: GaussianState, m: ModeLabel, beta: complex) -> GaussianState:
    """Displace mode m so that <a_m> shifts by beta; covariance is unchanged."""
    i = state.mode_index(m)
    mean = np.array(state.mean)
    mean[2 * i] += complex(beta).real
    mean[2 * i + 1] += complex(beta).imag
    return GaussianState(modes=state.modes, mean=mean, cov=state.cov)


def apply_beam_splitter(state: GaussianState, m1: ModeLabel, m2: ModeLabel,
                        bs: BeamSplitterSpec) -> GaussianState:
    """Mix modes m1, m2 on a beam splitter: d1 = t a1 + r a2, d2 = r a1 + t a2.

    The map is symplectic and orthogonal, so physicality and the total
    symmetric-ordered photon flux are both preserved.
    """
    i, j = state.mode_index(m1), state.mode_index(m2)
    if i == j:
        raise ValueError("beam splitter needs two distinct modes")
    n = state.n_modes
    t, r = complex(bs.t), complex(bs.r)
    s_matrix = np.eye(2 * n)
    s_matrix[2 * i : 2 * i + 2, 2 * i : 2 * i + 2] = _rotation_block(t)
    s_matrix[2 * i : 2 * i + 2, 2 * j : 2 * j + 2] = _rotation_block(r)
    s_matrix[2 * j : 2 * j + 2, 2 * i : 2 * i + 2] = _rotation_block(r)
    s_matrix[2 * j : 2 * j + 2, 2 * j : 2 * j + 2] = _rotation_block(t)
    return _conjugate(state, s_matrix)


def quadrature_variance(state: GaussianState, pair, quad_angle: float) -> float:
    """Variance of the rotated joint quadrature of a mode pair.

    The joint quadrature at angle 0 is (x1 + x2)/sqrt(2); rotating by
    quad_angle replaces each single-mode x with cos(angle) x + sin(angle) p.
    At angle 0 this is the joint X of the pair, at pi/2 the joint Y.
    """
    m1, m2 = pair
    i, j = state.mode_index(m1), state.mode_index(m2)
    if i == j:
        raise ValueError("joint quadrature needs two distinct modes")
    u = np.zeros(2 * state.n_modes)
    c, s = math.cos(quad_angle) / math.sqrt(2.0), math.sin(quad_angle) / math.sqrt(2.0)
    for k in (i, j):
        u[2 * k] = c
        u[2 * k + 1] = s
    return float(u @ state.cov @ u)


def mean_photon(state: GaussianState, m: ModeLabel) -> float:
    """Mean photon number <a^dag a> of one mode."""
    i = state.mode_index(m)
    sub = state.cov[2 * i : 2 * i + 2, 2 * i : 2 * i + 2]
    mu = state.mean[2 * i : 2 * i + 2]
    return float(sub[0, 0] + sub[1, 1] + mu @ mu - 0.5)
