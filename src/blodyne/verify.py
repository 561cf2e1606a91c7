"""The checks of the ``verify`` subcommand: the Fock-space oracle against the
closed forms.

Each check runs :func:`blodyne.fock.oracle_blo_run` at one (squeeze, |beta|,
chi1, chi2, case) point on the case's reference plan and compares the
result with the matched two-tone closed form plus the LO quantization
offset. The checks are the configured point, when the config has matched
tones and :func:`blodyne.fock.oracle_cutoffs` admits it, and then
``oracle.draws`` points drawn from the seed. With no check,
:func:`check_points` raises ValueError naming why the configured point was
skipped, so ``verify`` exits 3. :func:`check_lines` returns the CSV lines
that ``blodyne.cli.cmd_verify`` writes, which also raises the exit-4 error.

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


def configured_point(cfg: ExperimentConfig, caps: dict,
                     policy: fock.TruncationPolicy) -> tuple[list, str | None]:
    """([the configured check], None), or ([], why it is skipped): the
    closed forms need matched tones of |beta| >= 1, and the oracle's own
    reach rule, :func:`blodyne.fock.oracle_cutoffs`, decides the rest."""
    if not cfg.two_tone:
        return [], "the config has one tone"
    t1, t2 = cfg.tones
    if t1.amplitude != t2.amplitude:
        return [], f"the tone amplitudes {t1.amplitude:g} and {t2.amplitude:g} differ"
    beta = min(t1.amplitude, caps[cfg.case])
    if beta < 1.0:
        return [], f"|beta| = {beta:g} after the cap is below 1"
    try:
        fock.oracle_cutoffs(cfg.squeeze.s, beta, cfg.case, policy)
    except ValueError as exc:
        return [], str(exc)
    return [(cfg.squeeze, beta, t1.phase, t2.phase, cfg.case)], None


def check_points(cfg: ExperimentConfig, caps: dict, policy: fock.TruncationPolicy) -> list:
    """The (squeeze, |beta|, chi1, chi2, case) of every check, in order;
    ValueError if there is none, since checking nothing is no pass."""
    checks, skipped = configured_point(cfg, caps, policy)
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
    for i, (p, beta, chi1, chi2, case) in enumerate(check_points(cfg, caps, policy)):
        measured = fock.oracle_blo_run(p, beta, chi1, chi2, case, policy=policy)
        rep = detection.blo_variance(p, LoTone(beta, chi1), LoTone(beta, chi2), case)
        analytic = rep.variance + detection.lo_quantization_correction(p, n_tones=2)
        err = abs(measured / analytic - 1.0)
        max_err = max(max_err, err)
        numbers = ",".join(map(fmt, (p.s, p.theta, beta, chi1, chi2, err)))
        lines.append(f"{i},{case.value},{numbers}")
    lines += [f"max_relative_error: {fmt(max_err)}", f"tolerance: {fmt(tolerance)}"]
    return lines, max_err
