"""Dense numpy Fock states: ladder operators on tensor axes, the dense state
builders, and the dense oracle routes built on them.

:mod:`blodyne.fock` is standard library only and runs ``verify`` on
structured Grams. This module holds the dense form of the same objects, for
the tests and the benchmark to check that route against, and nothing on the
command line imports it. ``fock`` resolves four of its names on first
access, ``build_blo_signal_state``, ``build_coherent_product`` and the two
``oracle_difference_variance`` routes, so ``from blodyne.fock import
build_coherent_product`` works; every other name is imported from here.

This is the one module that knows how a ladder operator acts on an axis of
a dense complex tensor: each operator takes an ``np.moveaxis`` view with
the affected axis or axes last, shifts it by one level and multiplies by
sqrt(1..d-1). The benchmark probes the last three by name:

* ``lowered``           the annihilation operator along one axis
* ``raised``            the creation operator along one axis
* ``pair_ladder_acc``   accumulate  coeff * (raise one mode, lower another)
* ``vdot``              conjugated inner product of two state tensors
* ``norm_sq``           squared norm of a state tensor

On top of them:

* ``FockStateVector`` and the dense builders ``build_tmss``,
  ``build_tmss_via_expm``, ``build_coherent_product`` and
  ``build_blo_signal_state``, whose amplitudes come from ``fock``;
* ``_ladder_gram``, the dense ladder Gram, and ``covariance_matrix``,
  which reads quadrature moments from any ladder Gram, dense or ``fock``'s;
* ``oracle_difference_variance``, which feeds dense Grams to
  ``fock.oracle_from_grams``, the core ``verify`` runs;
* ``oracle_difference_variance_unitary``, which applies the splitter per
  frequency as the exponential of its truncated generator, taken one
  conserved photon-number block at a time, and evaluates the same grouped
  observable on the output state. It is an independent self-check of the
  interference reduction (plus unitarity and photon conservation), meant
  for small truncations only.

Norm deficits from truncation are reported as leakage and never silently
renormalized.
"""

import math
from functools import reduce

import numpy as np

from . import fock
from .detection import FrequencyPlan, ImageBandCase, SqueezeParams, _Record

_UNITARY_MAX_DIMENSION = 10_000_000


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


# ---------------------------------------------------------------------------
# dense states
# ---------------------------------------------------------------------------


class FockStateVector(_Record):
    """Dense complex amplitudes over a truncated multi-mode number basis.

    The array shape is (N_0 + 1, ..., N_{K-1} + 1) for per-mode cutoffs N_k.
    The squared norm may fall short of one; the deficit is the truncation
    leakage and is exposed, not hidden.
    """

    __slots__ = ("amplitudes",)

    def __init__(self, amplitudes: np.ndarray):
        amp = np.ascontiguousarray(amplitudes, dtype=np.complex128)
        fock._check_norm(norm_sq(amp))
        _Record.__init__(self, amp)

    @property
    def dims(self) -> tuple[int, ...]:
        return self.amplitudes.shape

    @property
    def n_modes(self) -> int:
        return self.amplitudes.ndim

    @property
    def norm_sq(self) -> float:
        return norm_sq(self.amplitudes)

    @property
    def leakage(self) -> float:
        return 1.0 - self.norm_sq


def build_tmss(p: SqueezeParams, cutoff: int) -> FockStateVector:
    """Two-mode squeezed vacuum on the diagonal |n, n> basis, with the
    amplitudes of :func:`blodyne.fock.tmss_diagonal`."""
    return FockStateVector(np.diag(np.array(fock.tmss_diagonal(p, cutoff))))


def _expi(h: np.ndarray) -> np.ndarray:
    """exp(i h) of a Hermitian matrix through its eigendecomposition."""
    w, v = np.linalg.eigh(h)
    return (v * np.exp(1j * w)) @ v.conj().T


def build_tmss_via_expm(p: SqueezeParams, cutoff: int) -> FockStateVector:
    """Two-mode squeezed vacuum via the squeeze-generator matrix exponential.

    Applies exp(K), K = xi a1^dag a2^dag - conj(xi) a1 a2 with
    xi = -s e^{i theta}, to |0, 0> on the truncated two-mode space. K
    conserves n1 - n2, so from |0, 0> it stays on the diagonal |n, n>, where
    -i K is Hermitian tridiagonal with entries -i xi n below the diagonal.
    Independent of the closed-form amplitude route, hence useful as a
    self-check.
    """
    if cutoff < 1:
        raise ValueError("build_tmss_via_expm needs cutoff >= 1")
    n = np.arange(1.0, cutoff + 1)
    xi = -p.s * complex(math.cos(p.theta), math.sin(p.theta))
    diag = _expi(np.diag(-1j * xi * n, -1) + np.diag(1j * np.conj(xi) * n, 1))[:, 0]
    return FockStateVector(np.diag(diag))


def build_coherent_product(tones, cutoff: int) -> FockStateVector:
    """Product of truncated coherent states, one mode per (amplitude, phase).

    Every tone shares the one ``cutoff``; the amplitudes are those of
    :func:`blodyne.fock.coherent_amplitudes`.
    """
    tones = list(tones)
    if not tones:
        raise ValueError("build_coherent_product needs at least one tone")
    vecs = [np.array(fock.coherent_amplitudes(amplitude, phase, cutoff))
            for amplitude, phase in tones]
    return FockStateVector(reduce(np.multiply.outer, vecs))


def build_blo_signal_state(p: SqueezeParams, case: ImageBandCase,
                           cutoff: int) -> FockStateVector:
    """Signal-side state for the two-tone scheme: squeezed pair plus one
    vacuum per image mode of the case's reference plan.

    Mode order matches :meth:`BeatPairing.for_plan`: (lower squeezed mode,
    upper squeezed mode, then image modes). Each image vacuum is a size-1
    axis (cutoff 0).
    """
    n_images = len(fock.BeatPairing.for_plan(fock.reference_plan(case)).signal_freqs) - 2
    amp = build_tmss(p, cutoff).amplitudes
    return FockStateVector(amp.reshape(amp.shape + (1,) * n_images))


# ---------------------------------------------------------------------------
# dense ladder moments
# ---------------------------------------------------------------------------


def pad_amplitudes(amp: np.ndarray) -> np.ndarray:
    """Copy with one unused zero level appended to every mode."""
    return np.pad(amp, [(0, 1)] * amp.ndim)


def _ladder_gram(state: FockStateVector) -> np.ndarray:
    """Inner products among a factor state and its single-ladder images.

    Index 0 is the state, 1 + 2m its image under a_m and 2 + 2m its image
    under a_m^dag. Every mode is padded by one unused level first, so the
    raised images are exact.
    """
    padded = pad_amplitudes(state.amplitudes)
    images = np.empty((1 + 2 * state.n_modes, padded.size), dtype=np.complex128)
    images[0] = padded.reshape(-1)
    for mode in range(state.n_modes):
        images[1 + 2 * mode] = lowered(padded, mode).reshape(-1)
        images[2 + 2 * mode] = raised(padded, mode).reshape(-1)
    # pairwise vdot conjugates in place; images.conj() @ images.T would copy
    # every image once more
    gram = np.empty((len(images), len(images)), dtype=np.complex128)
    for p in range(len(images)):
        for q in range(p, len(images)):
            gram[p, q] = np.vdot(images[p], images[q])
            gram[q, p] = np.conj(gram[p, q])
    return gram


def covariance_matrix(gram):
    """Quadrature mean and covariance in the (x1, p1, x2, p2, ...) convention.

    ``gram`` is a ladder Gram (array or nested lists) indexed as
    :func:`blodyne.fock.ladder_gram`, dense or structured alike.
    x_m = (a_m + a_m^dag)/2 and p_m = -i (a_m - a_m^dag)/2 are fixed
    combinations C of the ladder images, so mean = Re(G[0] C) / n and
    cov = Re(C^dag G C) / n - mean mean^T for n = G[0, 0]. Normalizing by
    the state's squared norm leaves small truncation leakage only at second
    order.
    """
    gram = np.asarray(gram, dtype=np.complex128)
    n_modes = (len(gram) - 1) // 2
    comb = np.zeros((len(gram), 2 * n_modes), dtype=np.complex128)
    for m in range(n_modes):
        comb[1 + 2 * m, 2 * m] = comb[2 + 2 * m, 2 * m] = 0.5
        comb[1 + 2 * m, 2 * m + 1] = -0.5j
        comb[2 + 2 * m, 2 * m + 1] = 0.5j
    nrm = gram[0, 0].real
    mean = (gram[0] @ comb).real / nrm
    cov = (comb.conj().T @ gram @ comb).real / nrm - np.outer(mean, mean)
    return mean, cov


# ---------------------------------------------------------------------------
# dense oracle routes
# ---------------------------------------------------------------------------


def oracle_difference_variance(signal: FockStateVector, lo: FockStateVector,
                               pairing: fock.BeatPairing, fp: FrequencyPlan, *,
                               policy: fock.TruncationPolicy | None = None) -> float:
    """:func:`blodyne.fock.oracle_from_grams` on the dense ladder Grams of
    two explicit factor states; the ``max_dimension`` guard is applied to
    each padded factor first."""
    policy = policy if policy is not None else fock.TruncationPolicy()
    policy.check_factors(signal.dims, lo.dims)
    return fock.oracle_from_grams(_ladder_gram(signal).tolist(), _ladder_gram(lo).tolist(),
                                  pairing, fp)


def balanced_bs_unitary(dim: int) -> np.ndarray:
    """Dense 50/50 splitter unitary on a dim x dim two-mode space.

    Realizes the mode map d1 = (a + i b)/sqrt(2), d2 = (i a + b)/sqrt(2),
    the same convention as gaussian.BeamSplitterSpec.balanced(), as
    exp(i pi/4 (a^dag b + a b^dag)) of the truncated generator. The generator
    conserves the total photon number N, so it is exponentiated one block
    {|n, N - n>} at a time: real tridiagonal with entries sqrt(n (N - n + 1))
    (a spin-N/2 rotation where the truncation leaves the block whole).
    """
    u = np.zeros((dim * dim, dim * dim), dtype=np.complex128)
    for total in range(2 * dim - 1):
        n = np.arange(max(0, total - dim + 1), min(total, dim - 1) + 1)
        off = np.sqrt(n[1:] * (total - n[1:] + 1.0))
        idx = n * dim + (total - n)
        u[np.ix_(idx, idx)] = _expi((math.pi / 4.0) * (np.diag(off, 1) + np.diag(off, -1)))
    return u


def apply_balanced_bs(state: FockStateVector, mode_a: int, mode_b: int) -> FockStateVector:
    """Mix two modes of a Fock state on the balanced splitter.

    Both axes are enlarged to hold the full redistributed photon range, so
    the map is exactly unitary on the retained space.
    """
    if mode_a == mode_b:
        raise ValueError("beam splitter needs two distinct modes")
    amp = state.amplitudes
    d = amp.shape[mode_a] + amp.shape[mode_b] - 1
    pad = [(0, 0)] * amp.ndim
    pad[mode_a] = (0, d - amp.shape[mode_a])
    pad[mode_b] = (0, d - amp.shape[mode_b])
    moved = np.moveaxis(np.pad(amp, pad), (mode_a, mode_b), (0, 1))
    mixed = (balanced_bs_unitary(d) @ moved.reshape(d * d, -1)).reshape(moved.shape)
    return FockStateVector(np.moveaxis(mixed, (0, 1), (mode_a, mode_b)))


class UnitaryOracleResult(_Record):
    __slots__ = ("variance", "norm_before", "norm_after", "photons_in", "photons_out")


def oracle_difference_variance_unitary(signal: FockStateVector, lo: FockStateVector,
                                       pairing: fock.BeatPairing, fp: FrequencyPlan
                                       ) -> UnitaryOracleResult:
    """Same observable as :func:`oracle_difference_variance`, but through the
    explicit splitter unitary applied per frequency.

    Every frequency carries a signal-port and an LO-port mode (vacuum where
    the inputs are silent); after mixing, the grouped difference observable
    is evaluated on the output state. Dimensions grow quadratically per
    frequency, so this route is for small cross-checks only.
    """
    n_sig, n_lo = signal.n_modes, lo.n_modes
    if n_sig != len(pairing.signal_freqs) or n_lo != len(pairing.lo_freqs):
        raise ValueError("pairing does not match the state mode counts")

    all_freqs = list(pairing.signal_freqs) + list(pairing.lo_freqs)
    tol = fock.beat_tolerance(fp)
    clusters = fock._cluster(all_freqs, tol)

    freq_entries = []  # (frequency, signal mode index or None, lo mode index or None)
    for freq, members in clusters:
        sig_idx = [m for m in members if m < n_sig]
        lo_idx = [m - n_sig for m in members if m >= n_sig]
        if len(sig_idx) > 1 or len(lo_idx) > 1:
            raise ValueError("unitary route cannot host two same-port modes at one frequency")
        freq_entries.append((freq, sig_idx[0] if sig_idx else None,
                             lo_idx[0] if lo_idx else None))

    # Port order (a_f0, b_f0, a_f1, b_f1, ...): the input axes in that order,
    # a size-1 axis for each silent port
    axes, port_dims = [], []
    for _, si, li in freq_entries:
        axes += ([si] if si is not None else []) + ([n_sig + li] if li is not None else [])
        port_dims += [signal.dims[si] if si is not None else 1,
                      lo.dims[li] if li is not None else 1]
    # each mixed port holds da + db - 1 levels plus one headroom level
    total = math.prod((da + db) ** 2 for da, db in zip(port_dims[::2], port_dims[1::2]))
    if total > _UNITARY_MAX_DIMENSION:
        raise ValueError(
            f"unitary-route dimension {total} exceeds {_UNITARY_MAX_DIMENSION}; "
            "this route is for small self-checks"
        )

    ports = FockStateVector(np.multiply.outer(signal.amplitudes, lo.amplitudes)
                            .transpose(axes).reshape(port_dims))

    def _total_photons(arr):
        return sum(norm_sq(lowered(arr, axis)) for axis in range(arr.ndim))

    norm_before = ports.norm_sq
    photons_in = _total_photons(ports.amplitudes) / norm_before

    for f_idx in range(len(freq_entries)):
        ports = apply_balanced_bs(ports, 2 * f_idx, 2 * f_idx + 1)
    joint = pad_amplitudes(ports.amplitudes)

    norm_after = norm_sq(joint)
    photons_out = _total_photons(joint) / norm_after

    # Grouped difference observable on the output state, restricted to the
    # beat bands the pairing declares (a band and its mirror): frequency
    # pairs outside those bands are not part of the measurement.
    declared = []
    for k in range(n_sig):
        for j in range(n_lo):
            declared.append(pairing.signal_freqs[k] - pairing.lo_freqs[j])
    declared += [-d for d in declared]
    freqs = [entry[0] for entry in freq_entries]
    nF = len(freqs)
    beats = [(i, j, freqs[i] - freqs[j]) for i in range(nF) for j in range(nF)
             if any(abs((freqs[i] - freqs[j]) - d) <= tol for d in declared)]

    def _component(members):
        comp = np.zeros_like(joint)
        for i, j, _ in members:
            pair_ladder_acc(comp, joint, axis_up=2 * i, axis_dn=2 * j, coeff=1.0)  # d1 port
            pair_ladder_acc(comp, joint, axis_up=2 * i + 1, axis_dn=2 * j + 1,
                            coeff=-1.0)  # d2 port
        return comp

    # Each signed beat cluster is a note of its own: a band and its mirror
    # fold together as the sum of both notes' powers.
    variance = 0.0
    for _, members in fock._cluster([b[2] for b in beats], tol):
        x = _component([beats[m] for m in members])
        variance += (norm_sq(x) / norm_after
                     - abs(vdot(joint, x)) ** 2 / norm_after**2)

    return UnitaryOracleResult(
        variance=float(variance),
        norm_before=float(norm_before),
        norm_after=float(norm_after),
        photons_in=float(photons_in),
        photons_out=float(photons_out),
    )
