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

* :func:`oracle_difference_variance_unitary` applies the splitter as an
  explicit matrix exponential per frequency and evaluates the same grouped
  observable on the output state. It exists as an independent self-check of
  the reduction above (plus unitarity and photon conservation) and is only
  meant for small truncations.

Each state is a dense complex tensor; norm deficits from truncation are
reported as leakage and never silently renormalized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .detection import FrequencyPlan, ImageBandCase, classify_image_band_case
from .gaussian import SqueezeParams

_INPUT_LEAKAGE_LIMIT = 1e-6


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
    def cutoffs(self) -> tuple[int, ...]:
        return tuple(d - 1 for d in self.amplitudes.shape)

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


def coherent_leakage(amplitude: float, cutoff: int) -> float:
    """Exact Poissonian tail mass above the cutoff."""
    from scipy.stats import poisson

    return float(poisson.sf(cutoff, abs(amplitude) ** 2))


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


def build_tmss_via_expm(p: SqueezeParams, cutoff: int) -> FockStateVector:
    """Two-mode squeezed vacuum via the squeeze-generator matrix exponential.

    Applies exp(xi a1^dag a2^dag - conj(xi) a1 a2) with xi = -s e^{i theta}
    to |0, 0> on the truncated two-mode space. Independent of the closed-form
    amplitude route, hence useful as a self-check.
    """
    if cutoff < 1:
        raise ValueError("build_tmss_via_expm needs cutoff >= 1")
    from scipy.sparse import diags, kron
    from scipy.sparse.linalg import expm_multiply

    d = cutoff + 1
    ladder = np.sqrt(np.arange(1, d))
    ad = diags(ladder, -1)
    a = diags(ladder, 1)
    xi = -p.s * complex(math.cos(p.theta), math.sin(p.theta))
    gen = xi * kron(ad, ad) - np.conj(xi) * kron(a, a)
    v0 = np.zeros(d * d, dtype=np.complex128)
    v0[0] = 1.0
    out = expm_multiply(gen.tocsc(), v0)
    return FockStateVector(out.reshape(d, d))


def build_coherent_product(tones, cutoff) -> FockStateVector:
    """Product of truncated coherent states, one mode per (amplitude, phase).

    ``cutoff`` is a single shared cutoff or a per-tone sequence. Amplitudes
    follow the Poissonian e^{-|b|^2/2} b^n / sqrt(n!) with b = |b| e^{i chi}.
    """
    tones = list(tones)
    if not tones:
        raise ValueError("build_coherent_product needs at least one tone")
    if isinstance(cutoff, (int, np.integer)):
        cutoffs = [int(cutoff)] * len(tones)
    else:
        cutoffs = [int(c) for c in cutoff]
        if len(cutoffs) != len(tones):
            raise ValueError("one cutoff per tone is required")
    vecs = []
    for (amplitude, phase), n_max in zip(tones, cutoffs):
        if amplitude < 0.0:
            raise ValueError("tone amplitudes must be >= 0")
        if n_max < 0:
            raise ValueError("cutoffs must be >= 0")
        n = np.arange(n_max + 1)
        if amplitude == 0.0:
            vec = np.zeros(n_max + 1, dtype=np.complex128)
            vec[0] = 1.0
        else:
            log_mag = -0.5 * amplitude**2 + n * math.log(amplitude)
            log_mag -= 0.5 * np.array([math.lgamma(k + 1.0) for k in n])
            vec = np.exp(log_mag + 1j * n * phase)
        vecs.append(vec)
    amp = vecs[0]
    for vec in vecs[1:]:
        amp = np.multiply.outer(amp, vec)
    return FockStateVector(amp)


def build_blo_signal_state(p: SqueezeParams, case: ImageBandCase,
                           cutoff: int) -> FockStateVector:
    """Signal-side state for the two-tone scheme: squeezed pair plus the
    explicit image-band vacua the configuration calls for.

    Mode order matches :meth:`BeatPairing.for_blo`: (lower squeezed mode,
    upper squeezed mode, then image modes). Each image vacuum is a size-1
    axis (cutoff 0).
    """
    amp = build_tmss(p, cutoff).amplitudes
    n_images = {ImageBandCase.NO_IMAGE_BANDS: 0,
                ImageBandCase.SHARED_IMAGE_BAND: 1,
                ImageBandCase.TWO_IMAGE_BANDS: 2}[case]
    return FockStateVector(amp.reshape(amp.shape + (1,) * n_images))


# ---------------------------------------------------------------------------
# mode operators and ladder moments (dense numpy throughout)
# ---------------------------------------------------------------------------


def _axis_coeff(values: np.ndarray, axis: int, ndim: int) -> np.ndarray:
    shape = [1] * ndim
    shape[axis] = values.size
    return values.reshape(shape)


def lowered(amp: np.ndarray, axis: int) -> np.ndarray:
    """Apply the annihilation operator along one axis (shape preserved)."""
    d = amp.shape[axis]
    out = np.zeros_like(amp)
    src = [slice(None)] * amp.ndim
    dst = [slice(None)] * amp.ndim
    src[axis] = slice(1, d)
    dst[axis] = slice(0, d - 1)
    out[tuple(dst)] = amp[tuple(src)] * _axis_coeff(np.sqrt(np.arange(1.0, d)), axis, amp.ndim)
    return out


def raised(amp: np.ndarray, axis: int) -> np.ndarray:
    """Apply the creation operator along one axis.

    The top level is dropped, so callers must pad the axis with an unused
    zero level first for the result to be exact.
    """
    d = amp.shape[axis]
    out = np.zeros_like(amp)
    src = [slice(None)] * amp.ndim
    dst = [slice(None)] * amp.ndim
    src[axis] = slice(0, d - 1)
    dst[axis] = slice(1, d)
    out[tuple(dst)] = amp[tuple(src)] * _axis_coeff(np.sqrt(np.arange(1.0, d)), axis, amp.ndim)
    return out


def _number_acc(out: np.ndarray, amp: np.ndarray, axis: int, coeff: complex) -> None:
    out += coeff * amp * _axis_coeff(np.arange(amp.shape[axis], dtype=float), axis, amp.ndim)


def pad_amplitudes(amp: np.ndarray) -> np.ndarray:
    """Copy with one unused zero level appended to every mode."""
    padded = np.zeros(tuple(d + 1 for d in amp.shape), dtype=np.complex128)
    padded[tuple(slice(0, d) for d in amp.shape)] = amp
    return padded


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

    for state in (signal, lo):
        policy.check_dimension(d + 1 for d in state.dims)
    g_sig = _ladder_gram(signal)
    g_lo = _ladder_gram(lo)
    nrm = (g_sig[0, 0] * g_lo[0, 0]).real

    beats = []
    for k in range(n_sig):
        for j in range(n_lo):
            beats.append((k, j, pairing.signal_freqs[k] - pairing.lo_freqs[j]))
    tol = 1e-9 * max(fp.delta, max(abs(b[2]) for b in beats))

    clusters = _cluster([b[2] for b in beats], tol)

    def _component(pos, neg):
        # C = sum_pos i a_k^dag b_j  +  sum_neg (-i) b_j^dag a_k; returns
        # (<psi|C psi>, <C psi|C psi>) from the factors' ladder Gram matrices
        coeff = np.array([1j] * len(pos) + [-1j] * len(neg))
        i_sig = [2 + 2 * k for k, _, _ in pos] + [1 + 2 * k for k, _, _ in neg]
        i_lo = [1 + 2 * j for _, j, _ in pos] + [2 + 2 * j for _, j, _ in neg]
        mean = coeff @ (g_sig[0, i_sig] * g_lo[0, i_lo])
        gram = g_sig[np.ix_(i_sig, i_sig)] * g_lo[np.ix_(i_lo, i_lo)]
        return mean, (coeff.conj() @ gram @ coeff).real

    handled: list[float] = []
    variance = 0.0
    for nu, members in clusters:
        if abs(nu) <= tol:
            # Each DC pair contributes its term and the conjugate at the same
            # (zero) beat, so the component is Hermitian.
            dc = [beats[m] for m in members]
            mean_x, power_x = _component(dc, dc)
            mean = (mean_x / nrm).real
            variance += power_x / nrm - mean * mean
            continue
        mu = abs(nu)
        if any(abs(h - mu) <= tol for h in handled):
            continue
        handled.append(mu)
        plus = [beats[m] for c_nu, ms in clusters if abs(c_nu - mu) <= tol for m in ms]
        minus = [beats[m] for c_nu, ms in clusters if abs(c_nu + mu) <= tol for m in ms]
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
    the same convention as gaussian.BeamSplitterSpec.balanced().
    """
    from scipy.linalg import expm

    ladder = np.sqrt(np.arange(1.0, dim))
    ad = np.diag(ladder, -1)
    a = np.diag(ladder, 1)
    gen = np.kron(ad, a) + np.kron(a, ad)
    return expm(1j * (math.pi / 4.0) * gen)


def apply_balanced_bs(state: FockStateVector, mode_a: int, mode_b: int) -> FockStateVector:
    """Mix two modes of a Fock state on the balanced splitter.

    Both axes are enlarged to hold the full redistributed photon range, so
    the map is exactly unitary on the retained space.
    """
    if mode_a == mode_b:
        raise ValueError("beam splitter needs two distinct modes")
    amp = state.amplitudes
    d_new = amp.shape[mode_a] + amp.shape[mode_b] - 1
    dims = list(amp.shape)
    dims[mode_a] = dims[mode_b] = d_new
    big = np.zeros(tuple(dims), dtype=np.complex128)
    big[tuple(slice(0, d) for d in amp.shape)] = amp
    out = _apply_pair_unitary(big, balanced_bs_unitary(d_new), mode_a, mode_b)
    return FockStateVector(out)


def _apply_pair_unitary(amp: np.ndarray, u: np.ndarray, axis_a: int, axis_b: int) -> np.ndarray:
    d = amp.shape[axis_a]
    if amp.shape[axis_b] != d or u.shape != (d * d, d * d):
        raise ValueError("unitary does not match the axis dimensions")
    moved = np.moveaxis(amp, (axis_a, axis_b), (0, 1))
    rest = moved.shape[2:]
    flat = moved.reshape(d * d, -1)
    mixed = (u @ flat).reshape((d, d) + rest)
    return np.ascontiguousarray(np.moveaxis(mixed, (0, 1), (axis_a, axis_b)))


@dataclass(frozen=True)
class UnitaryOracleResult:
    variance: float
    norm_before: float
    norm_after: float
    photons_in: float
    photons_out: float


def oracle_difference_variance_unitary(signal: FockStateVector, lo: FockStateVector,
                                       pairing: BeatPairing, fp: FrequencyPlan, *,
                                       max_total_dimension: int = 5_000_000
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
    tol = 1e-9 * max(fp.delta, max(abs(f - g) for f in all_freqs for g in all_freqs) or fp.delta)
    clusters = _cluster(all_freqs, tol)

    freq_entries = []  # (frequency, signal mode index or None, lo mode index or None)
    for freq, members in clusters:
        sig_idx = [m for m in members if m < n_sig]
        lo_idx = [m - n_sig for m in members if m >= n_sig]
        if len(sig_idx) > 1 or len(lo_idx) > 1:
            raise ValueError("unitary route cannot host two same-port modes at one frequency")
        freq_entries.append((freq, sig_idx[0] if sig_idx else None,
                             lo_idx[0] if lo_idx else None))

    dims = []
    for _, si, li in freq_entries:
        da = signal.dims[si] if si is not None else 1
        db = lo.dims[li] if li is not None else 1
        dims.extend([da + db, da + db])  # da + db - 1 occupied plus one headroom level
    total = math.prod(dims)
    if total > max_total_dimension:
        raise ValueError(
            f"unitary-route dimension {total} exceeds {max_total_dimension}; "
            "this route is for small self-checks"
        )

    # Embed the input product state: axis order (a_f0, b_f0, a_f1, b_f1, ...).
    core = np.multiply.outer(signal.amplitudes, lo.amplitudes)
    perm = []
    for _, si, li in freq_entries:
        perm.append(si if si is not None else None)
        perm.append(n_sig + li if li is not None else None)
    present_axes = [p for p in perm if p is not None]
    core = np.transpose(core, axes=present_axes)
    joint = np.zeros(tuple(dims), dtype=np.complex128)
    corner = [slice(0, 1)] * len(dims)
    it = iter(core.shape)
    for pos, p in enumerate(perm):
        if p is not None:
            corner[pos] = slice(0, next(it))
    joint[tuple(corner)] = core.reshape(tuple(s.stop for s in corner))

    def _total_photons(arr):
        probe = np.zeros_like(arr)
        for axis in range(arr.ndim):
            _number_acc(probe, arr, axis, 1.0)
        return (_kernels.vdot(arr, probe)).real

    norm_before = _kernels.norm_sq(joint)
    photons_in = _total_photons(joint) / norm_before

    for f_idx, (_, si, li) in enumerate(freq_entries):
        ax_a, ax_b = 2 * f_idx, 2 * f_idx + 1
        joint = _apply_pair_unitary(joint, balanced_bs_unitary(dims[ax_a]), ax_a, ax_b)

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
    bclusters = _cluster([b[2] for b in beats], tol)

    def _component(members):
        comp = np.zeros_like(joint)
        for i, j, _ in members:
            if i == j:
                _number_acc(comp, joint, 2 * i, 1.0)       # d1 port
                _number_acc(comp, joint, 2 * i + 1, -1.0)  # d2 port
            else:
                _kernels.pair_ladder_acc(comp, joint, axis_up=2 * i, axis_dn=2 * j,
                                         coeff=1.0)
                _kernels.pair_ladder_acc(comp, joint, axis_up=2 * i + 1,
                                         axis_dn=2 * j + 1, coeff=-1.0)
        return comp

    handled: list[float] = []
    variance = 0.0
    for nu, members in bclusters:
        if abs(nu) <= tol:
            x = _component([beats[m] for m in members])
            mean = (_kernels.vdot(joint, x) / norm_after).real
            variance += _kernels.norm_sq(x) / norm_after - mean * mean
            continue
        mu = abs(nu)
        if any(abs(h - mu) <= tol for h in handled):
            continue
        handled.append(mu)
        plus = [beats[m] for c_nu, ms in bclusters if abs(c_nu - mu) <= tol for m in ms]
        minus = [beats[m] for c_nu, ms in bclusters if abs(c_nu + mu) <= tol for m in ms]
        x = _component(plus)
        y = _component(minus)
        variance += (_kernels.norm_sq(x) + _kernels.norm_sq(y)) / norm_after
        variance -= (abs(_kernels.vdot(joint, x)) ** 2
                     + abs(_kernels.vdot(joint, y)) ** 2) / norm_after**2

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
    case's reference plan."""
    policy = policy if policy is not None else TruncationPolicy()
    plan = reference_plan(case)
    signal = build_blo_signal_state(p, case, policy.tmss_cutoff(p.s))
    lo = build_coherent_product([(beta, chi1), (beta, chi2)], policy.coherent_cutoff(beta))
    pairing = BeatPairing.for_blo(plan, case)
    return oracle_difference_variance(signal, lo, pairing, plan, policy=policy)


def oracle_standard_run(p: SqueezeParams, beta: float, chi: float, *,
                        policy: TruncationPolicy | None = None) -> float:
    """Build states for the single-tone configuration and run the oracle on
    the single-tone reference plan."""
    policy = policy if policy is not None else TruncationPolicy()
    plan = reference_plan(None)
    signal = build_tmss(p, policy.tmss_cutoff(p.s))
    lo = build_coherent_product([(beta, chi)], policy.coherent_cutoff(beta))
    pairing = BeatPairing.for_standard(plan)
    return oracle_difference_variance(signal, lo, pairing, plan, policy=policy)
