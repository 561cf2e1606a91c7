"""Brute-force verification in a truncated multi-mode number basis.

This module rebuilds the detection problem from scratch: the two-mode
squeezed signal and the coherent local-oscillator tones are explicit
truncated amplitude vectors, the balanced mixing is reduced to its
interference observable, and the variance of the difference photon-number
observable is evaluated exactly on the truncated space. Nothing here shares
code with :mod:`blodyne.detection`, whose value types are all it imports:
the image modes come from the plan's own frequencies, not from its case
classifier. Agreement between the two routes is the strongest check.

For a balanced splitter the difference signal reduces operator-identically
to the interference form i (a_k^dag b_j - b_j^dag a_k) summed over mode
pairs, each oscillating at its beat frequency. The measured (stationary)
variance is obtained exactly by grouping terms of equal beat frequency and
summing the folded power of every group; cross terms between groups
time-average to zero. The input is the product signal (x) LO and every term
is one signal ladder operator times one LO ladder operator, so each group
power is a finite sum of products of two ladder Grams: the inner products
among a factor state and its single-ladder images, one Gram per factor.
:func:`oracle_from_grams` does the grouping on those two Grams; the joint
state is never built.

This module is standard library only, so ``verify`` loads no numpy. The
Grams behind :func:`oracle_blo_run` and :func:`oracle_standard_run` are
structured. The LO is a product of coherent tones, so its Gram is assembled
by :func:`product_gram` from one 3x3 Gram per tone. The signal is the
squeezed pair on its |n, n> diagonal with the image vacua as explicit
modes, held as a sparse map. Each Gram entry is a ``math.fsum`` over an
explicit truncated vector, so the sum is rounded once at any cutoff.

The dense numpy form of the same objects lives in :mod:`blodyne._kernels`:
``FockStateVector``, the dense state builders, the dense
``oracle_difference_variance`` (the same core on dense Grams) and the
explicit-unitary self-check. The few of those names that the benchmark
takes from this module resolve here too, on first access.
"""

import cmath
import importlib
import math
import sys

from .detection import FrequencyPlan, ImageBandCase, SqueezeParams, _Record

_INPUT_LEAKAGE_LIMIT = 1e-6

# the dense names the benchmark child takes from this module; they are
# defined in _kernels and __getattr__ resolves them here on first access
_DENSE_NAMES = frozenset({
    "build_blo_signal_state", "build_coherent_product", "oracle_difference_variance",
    "oracle_difference_variance_unitary",
})


def __getattr__(name):
    if name not in _DENSE_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module("._kernels", __package__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | _DENSE_NAMES)


class TruncationPolicy(_Record):
    """How to pick cutoffs: a target truncation leakage for the squeezed
    pair, the coherent-state rule for the LO tones.

    ``max_dimension`` caps the amplitude count each factor state (the
    signal, and the LO product) would have as a dense tensor padded by one
    level per mode. The structured Grams hold far fewer amplitudes, so the
    guard bounds a notional dense size; it is applied before anything is
    built. It is the oracle's only size rule, applied by :func:`oracle_cutoffs`;
    at the defaults it admits s up to 3.49 (two image bands), 3.66 (shared)
    and 3.84 (none) with |beta| at the case's cap.
    """

    __slots__ = ("target_leakage", "max_dimension")

    def __init__(self, target_leakage: float = 1e-8, max_dimension: int = 100_000_000):
        _Record.__init__(self, target_leakage, max_dimension)

    def tmss_cutoff(self, s: float) -> int:
        return tmss_cutoff_for_leakage(s, self.target_leakage)

    def coherent_cutoff(self, amplitude: float) -> int:
        return coherent_cutoff(amplitude)

    def check_factors(self, signal_dims, lo_dims=()) -> None:
        """Raise ValueError where the signal or the LO product, by its per-mode
        dimensions, exceeds the guard once padded, naming what mends that."""
        for name, dims, remedy in (
                ("signal", signal_dims, "lower squeeze.s, raise oracle.target_leakage"),
                ("LO", lo_dims, "lower the tone amplitude")):
            total = math.prod(int(d) + 1 for d in dims)
            if total > self.max_dimension:
                raise ValueError(f"{name} state dimension {total} exceeds the guard "
                                 f"{self.max_dimension}; {remedy} or raise oracle.max_dimension")


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
# explicit truncated amplitudes
# ---------------------------------------------------------------------------


def tmss_diagonal(p: SqueezeParams, cutoff: int) -> list[complex]:
    """Two-mode squeezed vacuum amplitudes on |n, n>, n <= cutoff.

    They are sech(s) (-e^{i theta} tanh s)^n. The dense ``build_tmss_via_expm``
    reaches the same state through the squeeze-generator exponential; the
    tests hold the two to 1e-10.
    """
    if cutoff < 1:
        raise ValueError("the two-mode squeezed state needs cutoff >= 1")
    if p.s == 0.0:
        return [1.0 + 0j] + [0j] * cutoff
    log_t, angle, sech = math.log(math.tanh(p.s)), p.theta + math.pi, 1.0 / math.cosh(p.s)
    return [sech * cmath.exp(complex(n * log_t, n * angle)) for n in range(cutoff + 1)]


def coherent_amplitudes(amplitude: float, phase: float, cutoff: int) -> list[complex]:
    """Truncated coherent amplitudes e^{-|b|^2/2} b^n / sqrt(n!), n <= cutoff,
    with b = |b| e^{i phase}."""
    if amplitude < 0.0:
        raise ValueError("tone amplitudes must be >= 0")
    if cutoff < 0:
        raise ValueError("cutoff must be >= 0")
    if amplitude == 0.0:
        return [1.0 + 0j] + [0j] * cutoff
    head, log_b = -0.5 * amplitude**2, math.log(amplitude)
    return [cmath.exp(complex(head + n * log_b - 0.5 * math.lgamma(n + 1.0), n * phase))
            for n in range(cutoff + 1)]


# ---------------------------------------------------------------------------
# ladder Grams
# ---------------------------------------------------------------------------


def _csum(terms) -> complex:
    """Sum of complex terms; math.fsum rounds each part once."""
    terms = list(terms)
    return complex(math.fsum(t.real for t in terms), math.fsum(t.imag for t in terms))


def _vdot(x: dict, y: dict) -> complex:
    """<x|y> of two sparse states."""
    return _csum(a.conjugate() * y[key] for key, a in x.items() if key in y)


def ladder_gram(amplitudes: dict) -> list[list[complex]]:
    """Inner products among a state and its single-ladder images.

    ``amplitudes`` maps a tuple of levels, one per mode, to the amplitude
    there. Index 0 is the state, 1 + 2m its image under a_m and 2 + 2m its
    image under a_m^dag. A raised level is one more key, so the raised
    images are exact, as on a dense tensor padded by one level per mode.
    """
    images = [amplitudes]
    for m in range(len(next(iter(amplitudes)))):
        images.append({lv[:m] + (lv[m] - 1,) + lv[m + 1:]: a * math.sqrt(lv[m])
                       for lv, a in amplitudes.items() if lv[m] > 0})
        images.append({lv[:m] + (lv[m] + 1,) + lv[m + 1:]: a * math.sqrt(lv[m] + 1)
                       for lv, a in amplitudes.items()})
    gram = [[0j] * len(images) for _ in images]
    for p in range(len(images)):
        for q in range(p, len(images)):
            gram[p][q] = _vdot(images[p], images[q])
            gram[q][p] = gram[p][q].conjugate()
    return gram


def product_gram(factors) -> list[list[complex]]:
    """Ladder Gram of a product state from the ladder Grams of its factors.

    Each ladder image acts on one mode, so every entry is the product over
    factors of one factor-Gram entry: the image's own index on the factor
    it acts on, the state (index 0) on every other factor.
    """
    # for each product index: (factor it acts on, index in that factor's Gram)
    where = [(None, 0)] + [(f, i) for f, g in enumerate(factors) for i in range(1, len(g))]

    def entry(p, q):
        (fp, ip), (fq, iq) = where[p], where[q]
        value = 1.0 + 0j
        for f, g in enumerate(factors):
            value *= g[ip if fp == f else 0][iq if fq == f else 0]
        return value

    return [[entry(p, q) for q in range(len(where))] for p in range(len(where))]


def signal_gram(p: SqueezeParams, cutoff: int, n_images: int) -> list[list[complex]]:
    """Ladder Gram of the signal: the squeezed pair on |n, n> plus
    ``n_images`` image vacua as explicit modes, in :meth:`BeatPairing.for_plan`
    mode order."""
    vacua = (0,) * n_images
    return ladder_gram({(n, n) + vacua: a for n, a in enumerate(tmss_diagonal(p, cutoff))})


def coherent_product_gram(tones, cutoff: int) -> list[list[complex]]:
    """Ladder Gram of a product of coherent tones, one mode per
    (amplitude, phase), all truncated at ``cutoff``."""
    return product_gram([ladder_gram({(n,): a for n, a in
                                      enumerate(coherent_amplitudes(amp, phase, cutoff))})
                         for amp, phase in tones])


# ---------------------------------------------------------------------------
# beat-frequency pairing
# ---------------------------------------------------------------------------


def beat_tolerance(fp: FrequencyPlan) -> float:
    """Absolute tolerance (rad/s) within which two frequencies or two beats
    are equal: 1e-9 * delta, with a floor of 32 ulps of omega_plus for the
    carrier rounding a plan built from Hz carries in every frequency."""
    return max(1e-9 * fp.delta, 32.0 * sys.float_info.epsilon * fp.omega_plus)


class BeatPairing(_Record):
    """Frequency assignment of every signal mode and every LO mode (rad/s).

    The order of ``signal_freqs`` must match the mode order of the signal
    state handed to the oracle, and likewise for the LO product state. Every
    (signal mode, LO tone) combination beats at the difference of its
    frequencies; the oracle groups beats within :func:`beat_tolerance`.
    """

    __slots__ = ("signal_freqs", "lo_freqs")

    @classmethod
    def for_plan(cls, fp: FrequencyPlan) -> "BeatPairing":
        """The modes a plan's own frequencies call for.

        Frequencies are stored relative to the lower signal mode: only
        differences enter the oracle. Signal mode order is (minus, plus,
        images...). A tone at w beats a signal mode within delta/2 of it
        and the image band 2w minus that mode at the same frequency; each
        such image that lies within :func:`beat_tolerance` of no mode listed
        before it is one more vacuum mode.
        """
        tol = beat_tolerance(fp)
        lo = tuple(w - fp.omega_minus for w in fp.lo_frequencies)
        signal = [0.0, fp.delta]
        for tone in lo:
            for mode in (0.0, fp.delta):
                image = 2.0 * tone - mode
                if (abs(tone - mode) <= 0.5 * fp.delta
                        and all(abs(image - f) > tol for f in signal)):
                    signal.append(image)
        return cls(signal_freqs=tuple(signal), lo_freqs=lo)

    @classmethod
    def for_blo(cls, fp: FrequencyPlan, case: ImageBandCase) -> "BeatPairing":
        """:meth:`for_plan` on a two-tone plan that must have as many image
        modes as the case's reference plan."""
        if len(fp.lo_frequencies) != 2:
            raise ValueError("for_blo needs a two-tone frequency plan")
        pairing, expected = cls.for_plan(fp), cls.for_plan(reference_plan(case))
        n_images, n_expected = len(pairing.signal_freqs) - 2, len(expected.signal_freqs) - 2
        if n_images != n_expected:
            raise ValueError(f"frequency plan has {n_images} image modes, but a plan that "
                             f"classifies as {case.value} has {n_expected}")
        return pairing


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
    return [(math.fsum(vals) / len(vals), members) for vals, members in groups]


# ---------------------------------------------------------------------------
# the oracle
# ---------------------------------------------------------------------------


def _check_norm(nsq: float) -> None:
    if nsq > 1.0 + 1e-9:
        raise ValueError(f"state norm^2 = {nsq!r} exceeds 1; amplitudes are not physical")


def oracle_from_grams(g_sig, g_lo, pairing: BeatPairing, fp: FrequencyPlan) -> float:
    """Exact stationary variance of the balanced difference photocurrent.

    Takes the ladder Grams of the signal and the LO factor (nested lists,
    indexed as in :func:`ladder_gram`). Reduces the balanced splitter to
    the interference observable on the product state psi = signal (x) LO,
    groups its terms by beat frequency, and returns the sum of folded group
    powers: the time average of the instantaneous variance, which is what a
    spectrum analyzer accumulates across the beat notes. Each group is
    X = sum_t c_t A_t (x) B_t with one ladder operator per factor, so

        <X psi|X psi> = sum_{t,u} conj(c_t) c_u <A_t s|A_u s> <B_t l|B_u l>,
        <psi|X psi>   = sum_t c_t <s|A_t s> <l|B_t l>,

    and only the two factors' ladder inner products enter. A factor whose
    squared norm exceeds 1 + 1e-9 is refused, and so is one with truncation
    leakage above 1e-6, since the variance would no longer be trustworthy.
    """
    n_sig, n_lo = (len(g_sig) - 1) // 2, (len(g_lo) - 1) // 2
    for gram, name, n_modes, freqs in ((g_sig, "signal", n_sig, pairing.signal_freqs),
                                       (g_lo, "LO", n_lo, pairing.lo_freqs)):
        if n_modes != len(freqs):
            raise ValueError(f"{name} has {n_modes} modes but the pairing lists {len(freqs)}")
        nsq = gram[0][0].real
        _check_norm(nsq)
        leak = 1.0 - nsq
        if leak > _INPUT_LEAKAGE_LIMIT:
            raise ValueError(
                f"{name} state leakage {leak:g} exceeds {_INPUT_LEAKAGE_LIMIT:g}; "
                "raise the cutoff"
            )
    nrm = (g_sig[0][0] * g_lo[0][0]).real

    beats = [(k, j, pairing.signal_freqs[k] - pairing.lo_freqs[j])
             for k in range(n_sig) for j in range(n_lo)]
    tol = beat_tolerance(fp)

    def _component(pos, neg):
        # C = sum_pos i a_k^dag b_j  +  sum_neg (-i) b_j^dag a_k; returns
        # (<psi|C psi>, <C psi|C psi>) from the factors' ladder Grams
        ops = ([(1j, 2 + 2 * k, 1 + 2 * j) for k, j, _ in pos]
               + [(-1j, 1 + 2 * k, 2 + 2 * j) for k, j, _ in neg])
        mean = _csum(c * g_sig[0][a] * g_lo[0][b] for c, a, b in ops)
        power = math.fsum((ct.conjugate() * cu * g_sig[at][au] * g_lo[bt][bu]).real
                          for ct, at, bt in ops for cu, au, bu in ops)
        return mean, power

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
    """Run the oracle for a two-tone configuration on the case's reference
    plan. The guard refuses oversized states before any is built."""
    return _oracle_run(p, beta, (chi1, chi2), case, policy)


def oracle_standard_run(p: SqueezeParams, beta: float, chi: float, *,
                        policy: TruncationPolicy | None = None) -> float:
    """Run the oracle for the single-tone configuration on the single-tone
    reference plan. The guard refuses oversized states before any is
    built."""
    return _oracle_run(p, beta, (chi,), None, policy)


def _oracle_run(p: SqueezeParams, beta: float, phases: tuple, case: ImageBandCase | None,
                policy: TruncationPolicy | None) -> float:
    """The oracle with tones of amplitude ``beta`` at ``phases`` on the
    reference plan of ``case``, where ``None`` means one tone."""
    n_sig, n_lo, n_images = oracle_cutoffs(p.s, beta, case, policy or TruncationPolicy())
    plan = reference_plan(case)
    g_sig = signal_gram(p, n_sig, n_images)
    g_lo = coherent_product_gram([(beta, chi) for chi in phases], n_lo)
    return oracle_from_grams(g_sig, g_lo, BeatPairing.for_plan(plan), plan)


def oracle_cutoffs(s: float, beta: float, case: ImageBandCase | None,
                   policy: TruncationPolicy) -> tuple[int, int, int]:
    """The squeezed-pair cutoff, the LO cutoff and the image-mode count of
    the oracle at (s, |beta|) on the reference plan of ``case`` (``None``:
    one tone). This is the oracle's one reach rule: ValueError where tanh(s)
    rounds to 1 or a factor exceeds the policy's guard."""
    n_images = len(BeatPairing.for_plan(reference_plan(case)).signal_freqs) - 2
    n_sig, n_lo = policy.tmss_cutoff(s), policy.coherent_cutoff(beta)
    policy.check_factors((n_sig + 1,) * 2 + (1,) * n_images,
                         (n_lo + 1,) * (1 if case is None else 2))
    return n_sig, n_lo, n_images
