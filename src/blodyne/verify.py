"""The checks of the ``verify`` subcommand: the Fock-space oracle against the
closed forms.

Each check runs :func:`blodyne.fock.oracle_blo_run` at one (squeeze, |beta|,
chi1, chi2, case) point on the case's reference plan and compares the
result with the matched two-tone closed form plus the LO quantization
offset. The checks are the configured point, when the config has matched
tones and the oracle can reach it, and then ``oracle.draws`` points drawn
from the seed. With no check, :func:`check_points` raises ValueError
naming why the configured point was skipped, so ``verify`` exits 3.
:func:`check_lines` returns the CSV lines that ``blodyne.cli.cmd_verify``
writes, which also raises the exit-4 error.

Only ``verify`` imports this module, so the closed-form subcommands never
compile it. It imports nothing from ``blodyne.cli``: under
``python -m blodyne.cli`` that would compile and run the command line a
second time. The oracle and the closed forms are called through their
modules, so a wrapper set on ``fock.oracle_blo_run`` or on a
``detection`` function sees each call.
"""

import math

from . import detection, fock
from .config import ORACLE_DRAW_BETA_MIN, ExperimentConfig, fmt
from .detection import ImageBandCase, LoTone, SqueezeParams


def oracle_error(measured: float, p: SqueezeParams, beta: float, chi1: float,
                 chi2: float, case: ImageBandCase) -> float:
    """Relative error of an oracle variance against the closed form."""
    rep = detection.blo_variance(p, LoTone(beta, chi1), LoTone(beta, chi2), case)
    analytic = rep.variance + detection.lo_quantization_correction(p, n_tones=2)
    return abs(measured / analytic - 1.0)


def configured_point(cfg: ExperimentConfig, caps: dict) -> tuple[list, str | None]:
    """([the configured check], None), or ([], why the oracle cannot reach
    the configured point)."""
    if not cfg.two_tone:
        return [], "the config has one tone"
    t1, t2 = cfg.tones
    if t1.amplitude != t2.amplitude:
        return [], f"the tone amplitudes {t1.amplitude:g} and {t2.amplitude:g} differ"
    beta = min(t1.amplitude, caps[cfg.case])
    if beta < 1.0:
        return [], f"|beta| = {beta:g} after the cap is below 1"
    # the squeezed pair's cutoff at the target leakage exists (fock says why
    # not) and stays desk-sized
    try:
        cutoff = fock.tmss_cutoff_for_leakage(cfg.squeeze.s, cfg.oracle["target_leakage"])
    except ValueError as exc:
        return [], str(exc)
    if cutoff > 64:
        return [], f"the squeezed-pair cutoff {cutoff} at oracle.target_leakage exceeds 64"
    return [(cfg.squeeze, beta, t1.phase, t2.phase, cfg.case)], None


def check_points(cfg: ExperimentConfig, caps: dict) -> list:
    """The (squeeze, |beta|, chi1, chi2, case) of every check, in order;
    ValueError if there is none, since checking nothing is no pass."""
    checks, skipped = configured_point(cfg, caps)
    draws = int(cfg.oracle["draws"])
    if draws:
        # the oracle itself is pure Python; numpy only draws the points
        import numpy as np

        cases = list(ImageBandCase)
        rng = np.random.default_rng(cfg.seed)
        for _ in range(draws):
            case = cases[int(rng.integers(0, 3))]
            s = float(rng.uniform(0.1, 0.75))
            beta = float(np.exp(rng.uniform(np.log(ORACLE_DRAW_BETA_MIN), np.log(caps[case]))))
            p = SqueezeParams(s=s, theta=float(rng.uniform(0.0, 2.0 * math.pi)))
            checks.append((p, beta, float(rng.uniform(0.0, 2.0 * math.pi)),
                           float(rng.uniform(0.0, 2.0 * math.pi)), case))
    if not checks:
        raise ValueError(f"nothing was checked: oracle.draws is 0, and the configured "
                         f"point is out of the oracle's reach: {skipped}")
    return checks


def check_lines(cfg: ExperimentConfig, tolerance: float) -> tuple[list, float]:
    """The CSV lines of every check with the summary, and the largest relative error."""
    orc = cfg.oracle
    policy = fock.TruncationPolicy(target_leakage=orc["target_leakage"],
                                   max_dimension=int(orc["max_dimension"]))
    caps = {
        ImageBandCase.NO_IMAGE_BANDS: orc["beta_cap_no_image"],
        ImageBandCase.SHARED_IMAGE_BAND: orc["beta_cap_shared"],
        ImageBandCase.TWO_IMAGE_BANDS: orc["beta_cap_two"],
    }
    lines = ["draw,case,s,theta,beta,chi1,chi2,rel_error"]
    max_err = 0.0
    for i, (p, beta, chi1, chi2, case) in enumerate(check_points(cfg, caps)):
        measured = fock.oracle_blo_run(p, beta, chi1, chi2, case, policy=policy)
        err = oracle_error(measured, p, beta, chi1, chi2, case)
        max_err = max(max_err, err)
        numbers = ",".join(map(fmt, (p.s, p.theta, beta, chi1, chi2, err)))
        lines.append(f"{i},{case.value},{numbers}")
    lines += [f"max_relative_error: {fmt(max_err)}", f"tolerance: {fmt(tolerance)}"]
    return lines, max_err
