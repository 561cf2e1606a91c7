"""Brute-force verification in a truncated multi-mode number basis.

This module rebuilds the detection problem from scratch: the two-mode
squeezed signal and the coherent local-oscillator tones are constructed as
explicit state vectors, the balanced mixing is applied, and the variance of
the difference photon-number observable is evaluated exactly on the
truncated space. Nothing here shares code with the closed-form expressions
in :mod:`blodyne.detection`; agreement between the two routes is the
strongest check the package offers.

Two evaluation routes exist:

* :func:`oracle_difference_variance` works in the input picture. For a
  balanced splitter the difference signal reduces operator-identically to
  the interference form i (a_k^dag b_j - b_j^dag a_k) summed over mode
  pairs, each oscillating at its beat frequency. The measured (stationary)
  variance is obtained exactly by grouping terms of equal beat frequency
  and summing the folded power of every group; cross terms between groups
  time-average to zero. The input is the product signal (x) LO and every
  term is one signal ladder operator times one LO ladder operator, so each
  group power is a finite sum of products of two-point moments, each taken
  on its own factor state. The joint tensor is never built; this is the
  route that scales to strong tones.

* :func:`oracle_difference_variance_unitary` applies the splitter per
  frequency as the exponential of its truncated generator, taken one
  conserved photon-number block at a time, and evaluates the same grouped
  observable on the output state. It exists as an independent self-check of
  the reduction above (plus unitarity and photon conservation) and is only
  meant for small truncations.

Each state is a dense complex tensor; norm deficits from truncation are
reported as leakage and never silently renormalized. Both routes apply
ladder operators through :mod:`blodyne._kernels`, the one module that knows
how they act on a tensor axis; ``lowered`` and ``raised`` are re-exported
here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from ._kernels import lowered, raised
from .detection import FrequencyPlan, ImageBandCase, classify_image_band_case
from .gaussian import SqueezeParams

_INPUT_LEAKAGE_LIMIT = 1e-6
_UNITARY_MAX_DIMENSION = 10_000_000


@dataclass(frozen=True)
class FockStateVector:
    """Dense complex amplitudes over a truncated multi-mode number basis.

    The array shape is (N_0 + 1, ..., N_{K-1} + 1) for per-mode cutoffs N_k.
    The squared norm may fall short of one; the deficit is the truncation
    leakage and is exposed, not hidden.
    """

    amplitudes: np.ndarray

    def __post_init__(self):
        amp = np.ascontiguousarray(self.amplitudes, dtype=np.complex128)
        nsq = _kernels.norm_sq(amp)
        if nsq > 1.0 + 1e-9:
            raise ValueError(f"state norm^2 = {nsq!r} exceeds 1; amplitudes are not physical")
        amp.setflags(write=False)
        object.__setattr__(self, "amplitudes", amp)

    @property
    def dims(self) -> tuple[int, ...]:
        return self.amplitudes.shape

    @property
    def n_modes(self) -> int:
        return self.amplitudes.ndim

    @property
    def norm_sq(self) -> float:
        return _kernels.norm_sq(self.amplitudes)

    @property
    def leakage(self) -> float:
        return 1.0 - self.norm_sq


@dataclass(frozen=True)
class TruncationPolicy:
    """How to pick cutoffs: a target truncation leakage for the squeezed
    pair, the coherent-state rule for the LO tones.

    ``max_dimension`` caps the amplitude count of each padded factor state
    (the signal, and the LO product) the oracle works on. The oracle never
    forms the product of the two factors, so the guard does not bound it.
    """

    target_leakage: float = 1e-8
    max_dimension: int = 100_000_000

    def tmss_cutoff(self, s: float) -> int:
        return tmss_cutoff_for_leakage(s, self.target_leakage)

    def coherent_cutoff(self, amplitude: float) -> int:
        return coherent_cutoff(amplitude)

    def check_dimension(self, dims) -> None:
        total = math.prod(int(d) for d in dims)
        if total > self.max_dimension:
            raise ValueError(
                f"state dimension {total} exceeds the guard {self.max_dimension}; "
                "reduce the tone amplitude or raise max_dimension"
            )


def tmss_cutoff_for_leakage(s: float, eps: float) -> int:
    """Smallest cutoff N with tanh^(2(N+1))(s) <= eps (geometric tail)."""
    if not 0.0 < eps < 1.0:
        raise ValueError("target leakage must lie in (0, 1)")
    if s <= 0.0:
        return 1
    t2 = math.tanh(s) ** 2
    if t2 >= 1.0:
        raise ValueError(f"tanh(s) rounds to 1 at s = {s:g}; no finite cutoff reaches "
                         "a leakage below 1")
    n = math.ceil(math.log(eps) / math.log(t2)) - 1
    return max(1, n)


def coherent_cutoff(amplitude: float) -> int:
    """Cutoff rule N = ceil(|beta|^2 + 8 |beta| + 10), leakage well below 1e-8."""
    b = abs(amplitude)
    return int(math.ceil(b * b + 8.0 * b + 10.0))


# ---------------------------------------------------------------------------
# state builders
# ---------------------------------------------------------------------------


def build_tmss(p: SqueezeParams, cutoff: int) -> FockStateVector:
    """Two-mode squeezed vacuum on the diagonal |n, n> basis.

    Amplitudes are sech(s) (-e^{i theta} tanh s)^n for n <= cutoff. The same
    state is reachable through the squeeze-generator matrix exponential; see
    :func:`build_tmss_via_expm`, which the tests hold to 1e-10 agreement.
    """
    if cutoff < 1:
        raise ValueError("build_tmss needs cutoff >= 1")
    n = np.arange(cutoff + 1)
    if p.s == 0.0:
        diag = np.zeros(cutoff + 1, dtype=np.complex128)
        diag[0] = 1.0
    else:
        th = math.tanh(p.s)
        diag = (1.0 / math.cosh(p.s)) * np.exp(
            n * math.log(th) + 1j * n * (p.theta + math.pi)
        )
    amp = np.zeros((cutoff + 1, cutoff + 1), dtype=np.complex128)
    amp[n, n] = diag
    return FockStateVector(amp)


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

    Every tone shares the one ``cutoff``. Amplitudes follow the Poissonian
    e^{-|b|^2/2} b^n / sqrt(n!) with b = |b| e^{i chi}.
    """
    tones = list(tones)
    if not tones:
        raise ValueError("build_coherent_product needs at least one tone")
    if cutoff < 0:
        raise ValueError("cutoff must be >= 0")
    n = np.arange(cutoff + 1)
    half_log_fact = 0.5 * np.array([math.lgamma(k + 1.0) for k in n])
    vecs = []
    for amplitude, phase in tones:
        if amplitude < 0.0:
            raise ValueError("tone amplitudes must be >= 0")
        if amplitude == 0.0:
            vec = np.zeros(cutoff + 1, dtype=np.complex128)
            vec[0] = 1.0
        else:
            log_mag = -0.5 * amplitude**2 + n * math.log(amplitude)
            log_mag -= half_log_fact
            vec = np.exp(log_mag + 1j * n * phase)
        vecs.append(vec)
    amp = vecs[0]
    for vec in vecs[1:]:
        amp = np.multiply.outer(amp, vec)
    return FockStateVector(amp)


_N_IMAGES = {ImageBandCase.NO_IMAGE_BANDS: 0,
             ImageBandCase.SHARED_IMAGE_BAND: 1,
             ImageBandCase.TWO_IMAGE_BANDS: 2}


def build_blo_signal_state(p: SqueezeParams, case: ImageBandCase,
                           cutoff: int) -> FockStateVector:
    """Signal-side state for the two-tone scheme: squeezed pair plus the
    explicit image-band vacua the configuration calls for.

    Mode order matches :meth:`BeatPairing.for_blo`: (lower squeezed mode,
    upper squeezed mode, then image modes). Each image vacuum is a size-1
    axis (cutoff 0).
    """
    amp = build_tmss(p, cutoff).amplitudes
    return FockStateVector(amp.reshape(amp.shape + (1,) * _N_IMAGES[case]))


# ---------------------------------------------------------------------------
# mode operators and ladder moments (dense numpy throughout)
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


def mean_photon(state: FockStateVector, mode: int) -> float:
    """Occupation expectation <a_m psi|a_m psi> (unnormalized state as is)."""
    return float(_ladder_gram(state)[1 + 2 * mode, 1 + 2 * mode].real)


def pair_annihilation_moment(state: FockStateVector, mode_a: int, mode_b: int) -> complex:
    """<a_{mode_a} a_{mode_b}> = <a_{mode_a}^dag psi|a_{mode_b} psi> (unnormalized)."""
    return complex(_ladder_gram(state)[2 + 2 * mode_a, 1 + 2 * mode_b])


def covariance_matrix(state: FockStateVector):
    """Quadrature mean and covariance in the (x1, p1, x2, p2, ...) convention.

    x_m = (a_m + a_m^dag)/2 and p_m = -i (a_m - a_m^dag)/2 are fixed
    combinations C of the ladder images, so mean = Re(G[0] C) / n and
    cov = Re(C^dag G C) / n - mean mean^T for the Gram matrix G and
    n = G[0, 0]. Normalizing by the state's squared norm leaves small
    truncation leakage only at second order.
    """
    gram = _ladder_gram(state)
    comb = np.zeros((len(gram), 2 * state.n_modes), dtype=np.complex128)
    for m in range(state.n_modes):
        comb[1 + 2 * m, 2 * m] = comb[2 + 2 * m, 2 * m] = 0.5
        comb[1 + 2 * m, 2 * m + 1] = -0.5j
        comb[2 + 2 * m, 2 * m + 1] = 0.5j
    nrm = gram[0, 0].real
    mean = (gram[0] @ comb).real / nrm
    cov = (comb.conj().T @ gram @ comb).real / nrm - np.outer(mean, mean)
    return mean, cov


# ---------------------------------------------------------------------------
# beat-frequency pairing
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BeatPairing:
    """Frequency assignment of every signal mode and every LO mode (rad/s).

    The order of ``signal_freqs`` must match the mode order of the signal
    state handed to the oracle, and likewise for the LO product state. Every
    (signal mode, LO tone) combination beats at the difference of its
    frequencies; the oracle groups equal beats exactly.
    """

    signal_freqs: tuple[float, ...]
    lo_freqs: tuple[float, ...]

    @classmethod
    def for_standard(cls, fp: FrequencyPlan) -> "BeatPairing":
        """Single-tone scheme: signal modes (minus, plus) against one tone.

        Frequencies are stored relative to the lower signal mode: only
        differences enter the oracle, and optical-carrier magnitudes would
        otherwise cost more rounding than the beat-grouping tolerance.
        """
        if len(fp.lo_frequencies) != 1:
            raise ValueError("for_standard needs a single-tone frequency plan")
        return cls(signal_freqs=(0.0, fp.delta),
                   lo_freqs=(fp.lo_frequencies[0] - fp.omega_minus,))

    @classmethod
    def for_blo(cls, fp: FrequencyPlan, case: ImageBandCase) -> "BeatPairing":
        """Two-tone scheme with the image modes the configuration requires.

        Signal mode order is (minus, plus, images...). Frequencies are
        anchored to the lower signal mode, and sub-tolerance detunings of
        the degenerate configurations are absorbed into exact values so that
        coincident beats group exactly.
        """
        found = classify_image_band_case(fp)
        if found is not case:
            raise ValueError(
                f"frequency plan classifies as {found.value}, not {case.value}"
            )
        delta = fp.delta
        if case is ImageBandCase.NO_IMAGE_BANDS:
            return cls(signal_freqs=(0.0, delta), lo_freqs=(0.0, delta))
        if case is ImageBandCase.SHARED_IMAGE_BAND:
            quarter = 0.25 * delta
            return cls(
                signal_freqs=(0.0, delta, 2.0 * quarter),
                lo_freqs=(quarter, delta - quarter),
            )
        d1, d2 = fp.delta1, fp.delta2
        return cls(
            signal_freqs=(0.0, delta, 2.0 * d1, delta + 2.0 * d2),
            lo_freqs=(d1, delta + d2),
        )


def _cluster(values, tol: float):
    """Group scalar values within tol; returns (representatives, member ids)."""
    order = sorted(range(len(values)), key=lambda k: values[k])
    groups = []
    for idx in order:
        if groups and abs(values[idx] - groups[-1][0][-1]) <= tol:
            groups[-1][0].append(values[idx])
            groups[-1][1].append(idx)
        else:
            groups.append(([values[idx]], [idx]))
    return [(float(np.mean(vals)), members) for vals, members in groups]


# ---------------------------------------------------------------------------
# the oracle
# ---------------------------------------------------------------------------


def _check_factor_dims(policy: TruncationPolicy, *factor_dims) -> None:
    """Apply the guard to each factor state padded by one level per mode, as
    the oracle holds it."""
    for dims in factor_dims:
        policy.check_dimension(d + 1 for d in dims)


def oracle_difference_variance(signal: FockStateVector, lo: FockStateVector,
                               pairing: BeatPairing, fp: FrequencyPlan, *,
                               policy: TruncationPolicy | None = None) -> float:
    """Exact stationary variance of the balanced difference photocurrent.

    Reduces the balanced splitter to the interference observable on the
    product state psi = signal (x) LO, groups its terms by beat frequency,
    and returns the sum of folded group powers: the time average of the
    instantaneous variance, which is what a spectrum analyzer accumulates
    across the beat notes. Each group is X = sum_t c_t A_t (x) B_t with one
    ladder operator per factor, so

        <X psi|X psi> = sum_{t,u} conj(c_t) c_u <A_t s|A_u s> <B_t l|B_u l>,
        <psi|X psi>   = sum_t c_t <s|A_t s> <l|B_t l>,

    and only the two factors' ladder inner products are ever computed.
    Inputs with truncation leakage above 1e-6 are rejected, since the
    variance would no longer be trustworthy.
    """
    policy = policy if policy is not None else TruncationPolicy()
    n_sig, n_lo = signal.n_modes, lo.n_modes
    if n_sig != len(pairing.signal_freqs):
        raise ValueError(
            f"signal has {n_sig} modes but the pairing lists {len(pairing.signal_freqs)}"
        )
    if n_lo != len(pairing.lo_freqs):
        raise ValueError(
            f"LO has {n_lo} modes but the pairing lists {len(pairing.lo_freqs)}"
        )
    for state, name in ((signal, "signal"), (lo, "lo")):
        leak = state.leakage
        if leak > _INPUT_LEAKAGE_LIMIT:
            raise ValueError(
                f"{name} state leakage {leak:g} exceeds {_INPUT_LEAKAGE_LIMIT:g}; "
                "raise the cutoff"
            )

    _check_factor_dims(policy, signal.dims, lo.dims)
    g_sig = _ladder_gram(signal)
    g_lo = _ladder_gram(lo)
    nrm = (g_sig[0, 0] * g_lo[0, 0]).real

    beats = [(k, j, pairing.signal_freqs[k] - pairing.lo_freqs[j])
             for k in range(n_sig) for j in range(n_lo)]
    tol = 1e-9 * max(fp.delta, max(abs(b[2]) for b in beats))

    def _component(pos, neg):
        # C = sum_pos i a_k^dag b_j  +  sum_neg (-i) b_j^dag a_k; returns
        # (<psi|C psi>, <C psi|C psi>) from the factors' ladder Gram matrices
        coeff = np.array([1j] * len(pos) + [-1j] * len(neg))
        i_sig = [2 + 2 * k for k, _, _ in pos] + [1 + 2 * k for k, _, _ in neg]
        i_lo = [1 + 2 * j for _, j, _ in pos] + [2 + 2 * j for _, j, _ in neg]
        mean = coeff @ (g_sig[0, i_sig] * g_lo[0, i_lo])
        gram = g_sig[np.ix_(i_sig, i_sig)] * g_lo[np.ix_(i_lo, i_lo)]
        return mean, (coeff.conj() @ gram @ coeff).real

    # One note per cluster of |beat|, its terms in signed-beat order; the
    # notes are summed in order of their lowest signed beat.
    notes = [(mu <= tol, sorted((beats[m] for m in members), key=lambda b: b[2]))
             for mu, members in _cluster([abs(b[2]) for b in beats], tol)]
    variance = 0.0
    for is_dc, terms in sorted(notes, key=lambda note: note[1][0][2]):
        if is_dc:
            # Each DC pair contributes its term and the conjugate at the same
            # (zero) beat, so the component is Hermitian.
            mean_x, power_x = _component(terms, terms)
            mean = (mean_x / nrm).real
            variance += power_x / nrm - mean * mean
            continue
        plus = [b for b in terms if b[2] > 0.0]
        minus = [b for b in terms if b[2] <= 0.0]
        mean_x, power_x = _component(plus, minus)
        mean_y, power_y = _component(minus, plus)
        variance += (power_x + power_y) / nrm
        variance -= (abs(mean_x) ** 2 + abs(mean_y) ** 2) / nrm**2
    return float(variance)


# ---------------------------------------------------------------------------
# explicit-unitary self-check route
# ---------------------------------------------------------------------------


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


@dataclass(frozen=True)
class UnitaryOracleResult:
    variance: float
    norm_before: float
    norm_after: float
    photons_in: float
    photons_out: float


def oracle_difference_variance_unitary(signal: FockStateVector, lo: FockStateVector,
                                       pairing: BeatPairing, fp: FrequencyPlan
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
    tol = 1e-9 * max(fp.delta, max(abs(f - g) for f in all_freqs for g in all_freqs))
    clusters = _cluster(all_freqs, tol)

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
        return sum(_kernels.norm_sq(lowered(arr, axis)) for axis in range(arr.ndim))

    norm_before = ports.norm_sq
    photons_in = _total_photons(ports.amplitudes) / norm_before

    for f_idx in range(len(freq_entries)):
        ports = apply_balanced_bs(ports, 2 * f_idx, 2 * f_idx + 1)
    joint = pad_amplitudes(ports.amplitudes)

    norm_after = _kernels.norm_sq(joint)
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
            _kernels.pair_ladder_acc(comp, joint, axis_up=2 * i, axis_dn=2 * j,
                                     coeff=1.0)  # d1 port
            _kernels.pair_ladder_acc(comp, joint, axis_up=2 * i + 1, axis_dn=2 * j + 1,
                                     coeff=-1.0)  # d2 port
        return comp

    # Each signed beat cluster is a note of its own: a band and its mirror
    # fold together as the sum of both notes' powers.
    variance = 0.0
    for _, members in _cluster([b[2] for b in beats], tol):
        x = _component([beats[m] for m in members])
        variance += (_kernels.norm_sq(x) / norm_after
                     - abs(_kernels.vdot(joint, x)) ** 2 / norm_after**2)

    return UnitaryOracleResult(
        variance=float(variance),
        norm_before=float(norm_before),
        norm_after=float(norm_after),
        photons_in=float(photons_in),
        photons_out=float(photons_out),
    )


# ---------------------------------------------------------------------------
# convenience runs against reference frequency plans
# ---------------------------------------------------------------------------


def reference_plan(case: ImageBandCase | None) -> FrequencyPlan:
    """A concrete frequency plan realizing a detection configuration.

    The lower signal mode sits at 2e15 rad/s and the modes are 2pi * 10 MHz
    apart. ``case=None`` gives the single-tone plan with the tone centered
    between the signal modes. The two-image-band plan uses opposite
    detunings of delta/8.
    """
    omega_minus = 2.0e15
    delta = 2.0 * math.pi * 10.0e6
    omega_plus = omega_minus + delta
    if case is None:
        return FrequencyPlan(omega_plus=omega_plus, omega_minus=omega_minus,
                             lo_frequencies=(omega_minus + 0.5 * delta,))
    if case is ImageBandCase.NO_IMAGE_BANDS:
        lo = (omega_minus, omega_plus)
    elif case is ImageBandCase.SHARED_IMAGE_BAND:
        lo = (omega_minus + 0.25 * delta, omega_plus - 0.25 * delta)
    else:
        lo = (omega_minus + 0.125 * delta, omega_plus - 0.125 * delta)
    return FrequencyPlan(omega_plus=omega_plus, omega_minus=omega_minus, lo_frequencies=lo)


def oracle_blo_run(p: SqueezeParams, beta: float, chi1: float, chi2: float,
                   case: ImageBandCase, *,
                   policy: TruncationPolicy | None = None) -> float:
    """Build states for a two-tone configuration and run the oracle on the
    case's reference plan. The guard refuses oversized states before any is
    built."""
    policy = policy if policy is not None else TruncationPolicy()
    plan = reference_plan(case)
    n_sig, n_lo = policy.tmss_cutoff(p.s), policy.coherent_cutoff(beta)
    _check_factor_dims(policy, (n_sig + 1,) * 2 + (1,) * _N_IMAGES[case], (n_lo + 1,) * 2)
    signal = build_blo_signal_state(p, case, n_sig)
    lo = build_coherent_product([(beta, chi1), (beta, chi2)], n_lo)
    pairing = BeatPairing.for_blo(plan, case)
    return oracle_difference_variance(signal, lo, pairing, plan, policy=policy)


def oracle_standard_run(p: SqueezeParams, beta: float, chi: float, *,
                        policy: TruncationPolicy | None = None) -> float:
    """Build states for the single-tone configuration and run the oracle on
    the single-tone reference plan. The guard refuses oversized states
    before any is built."""
    policy = policy if policy is not None else TruncationPolicy()
    plan = reference_plan(None)
    n_sig, n_lo = policy.tmss_cutoff(p.s), policy.coherent_cutoff(beta)
    _check_factor_dims(policy, (n_sig + 1,) * 2, (n_lo + 1,))
    signal = build_tmss(p, n_sig)
    lo = build_coherent_product([(beta, chi)], n_lo)
    pairing = BeatPairing.for_standard(plan)
    return oracle_difference_variance(signal, lo, pairing, plan, policy=policy)
