"""Command-line front end.

Subcommands map one-to-one onto the package's capabilities; ``blodyne -h``
lists them with the three options (``_HELP``). Every output (stdout and
files) starts with a format-version line and the canonical resolved config,
so runs are reproducible byte for byte from their own headers. Exit codes:
0 success, 2 config or usage error, 3 physics invariant violation, 4 oracle
disagreement beyond tolerance.

``parse_args`` reads the command line by argparse's grammar without loading
argparse, which with the gettext and locale modules it pulls in costs a few
milliseconds of every process; the closed-form subcommands compute for
about one.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import sys

# numpy, fock and timeseries are imported inside the subcommands that use
# them, so the closed-form subcommands, and verify without random draws,
# run on the standard library alone.
from . import detection
from .config import (FORMAT_VERSION, ORACLE_DRAW_BETA_MIN, ConfigError,
                     ExperimentConfig, canonical_config_json, load_config)
from .detection import ImageBandCase, LoTone, SqueezeParams

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INVARIANT = 3
EXIT_ORACLE = 4


class OracleMismatch(RuntimeError):
    """Oracle and closed-form variances disagree beyond the tolerance."""


class OutputDirError(Exception):
    """An output file cannot be written under the output directory."""


def _g(x: float) -> str:
    return f"{x:.17g}"


def _header_lines(cfg: ExperimentConfig):
    return [f"format_version: {FORMAT_VERSION}", f"config: {canonical_config_json(cfg)}"]


@contextlib.contextmanager
def _output_file(out_dir: str, filename: str):
    """Open a file under out_dir for writing; any OSError becomes OutputDirError."""
    path = os.path.join(out_dir, filename)
    try:
        os.makedirs(out_dir, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            yield fh
    except OSError as exc:
        raise OutputDirError(f"cannot write {path!r}: {exc.strerror or exc}") from exc


def _emit(lines, cfg: ExperimentConfig, out_dir: str | None, filename: str):
    """Write the file first, so that a failed write leaves stdout empty."""
    full = [f"# {h}" for h in _header_lines(cfg)] + list(lines)
    text = "\n".join(full) + "\n"
    if out_dir:
        with _output_file(out_dir, filename) as fh:
            fh.write(text)
    sys.stdout.write(text)


def _standard_equivalent_tone(cfg: ExperimentConfig) -> LoTone:
    """Single tone matching a two-tone config: same amplitude, mean phase."""
    t1, t2 = cfg.tones
    return LoTone(amplitude=t1.amplitude, phase=0.5 * (t1.phase + t2.phase),
                  frequency=cfg.plan.omega_center)


def _report_lines(tag: str, rep: detection.VarianceReport):
    case = rep.case.value if rep.case is not None else "standard"
    return [
        f"{tag},{case},{_g(rep.variance)},{_g(rep.baseline)},{_g(rep.relative_db)},"
        f"{_g(rep.case_baseline)},{_g(rep.case_relative_db)},{_g(rep.lo_flux_ratio)}"
    ]


def _require_opposite_detunings(cfg: ExperimentConfig):
    """The two-tone closed forms hold only for delta1 = -delta2; otherwise the
    variance oscillates at (delta1 + delta2)/2pi."""
    plan = cfg.plan
    beat = plan.delta1 + plan.delta2
    tol = detection.detuning_tolerance(plan)
    if abs(beat) > tol:
        raise ValueError(
            f"frequency_plan.lo_hz: the two-tone formulas need delta1 = -delta2, but "
            f"delta1 + delta2 = {beat:.6g} rad/s (tolerance {tol:.3g} rad/s), so the "
            f"variance oscillates at {abs(beat) / (2.0 * math.pi):.6g} Hz"
        )


def cmd_variance(cfg: ExperimentConfig, out_dir: str | None) -> int:
    lines = ["scheme,case,variance,baseline,db_vs_baseline,case_baseline,"
             "db_vs_case_baseline,lo_flux_ratio"]
    if cfg.two_tone:
        tone = _standard_equivalent_tone(cfg)
        lines += _report_lines("standard", detection.standard_heterodyne_variance(cfg.squeeze, tone))
        rep = detection.blo_variance(cfg.squeeze, cfg.tones[0], cfg.tones[1], cfg.case)
        lines += _report_lines("blo", rep)
    else:
        lines += _report_lines("standard",
                               detection.standard_heterodyne_variance(cfg.squeeze, cfg.tones[0]))
    _emit(lines, cfg, out_dir, "variance.csv")
    return EXIT_OK


def cmd_scan(cfg: ExperimentConfig, out_dir: str | None) -> int:
    if cfg.two_tone:
        points = detection.phase_scan(cfg.squeeze, (cfg.tones[0], cfg.tones[1]),
                                      cfg.case, cfg.scan_points)
        phase_col = "phase_sum"
    else:
        points = detection.phase_scan(cfg.squeeze, cfg.tones[0], n_points=cfg.scan_points)
        phase_col = "phase"
    lines = [f"{phase_col},variance,db_vs_baseline"]
    for phase, rep in points:
        lines.append(f"{_g(phase)},{_g(rep.variance)},{_g(rep.relative_db)}")
    _emit(lines, cfg, out_dir, "scan.csv")
    return EXIT_OK


def cmd_cases(cfg: ExperimentConfig, out_dir: str | None) -> int:
    if not cfg.two_tone:
        raise ValueError("the cases table needs a two-tone configuration")
    beta = cfg.tones[0].amplitude
    if beta != cfg.tones[1].amplitude:
        raise ValueError("the cases table needs matched tone amplitudes")
    theta = cfg.squeeze.theta
    freq = cfg.tones[0].frequency
    lines = []
    for case in ImageBandCase:
        at_config = detection.blo_variance(cfg.squeeze, cfg.tones[0], cfg.tones[1], case)
        floor_rep = detection.blo_variance(
            cfg.squeeze,
            LoTone(amplitude=beta, phase=theta + math.pi, frequency=freq),
            LoTone(amplitude=beta, phase=0.0, frequency=freq),
            case,
        )
        lines.append(
            f"{case.value}, floor {_g(floor_rep.variance)}, "
            f"{floor_rep.relative_db:.2f} dB vs {_g(floor_rep.baseline)}, "
            f"{floor_rep.case_relative_db:.2f} dB vs own {_g(floor_rep.case_baseline)}, "
            f"at_config_phase {_g(at_config.variance)}"
        )
    _emit(lines, cfg, out_dir, "cases.txt")
    return EXIT_OK


def cmd_imbalance(cfg: ExperimentConfig, out_dir: str | None) -> int:
    if not cfg.two_tone:
        raise ValueError("the imbalance sweep needs a two-tone configuration")
    beta = cfg.tones[0].amplitude
    chi1, chi2 = cfg.tones[0].phase, cfg.tones[1].phase
    base = detection.blo_variance_unbalanced(cfg.squeeze, beta, 0.0, chi1, chi2, cfg.case)
    lines = ["delta_beta_fraction,variance,excess_over_scaled_matched,db_vs_baseline"]
    for frac in cfg.imbalance_fractions:
        rep = detection.blo_variance_unbalanced(cfg.squeeze, beta, frac * beta,
                                                chi1, chi2, cfg.case)
        excess = rep.variance - (1.0 + frac) * base.variance
        lines.append(f"{_g(frac)},{_g(rep.variance)},{_g(excess)},{_g(rep.relative_db)}")
    _emit(lines, cfg, out_dir, "imbalance.csv")
    return EXIT_OK


def cmd_spectrum(cfg: ExperimentConfig, out_dir: str | None) -> int:
    from . import timeseries

    sp = cfg.spectrum
    if cfg.two_tone:
        model = timeseries.SpectralModel.for_blo(
            cfg.squeeze, cfg.tones[0], cfg.tones[1], cfg.plan, cfg.case,
            bandwidth=sp["squeezing_bandwidth_hz"], profile=sp["profile"],
        )
    else:
        model = timeseries.SpectralModel.for_standard(
            cfg.squeeze, cfg.tones[0], cfg.plan,
            bandwidth=sp["squeezing_bandwidth_hz"], profile=sp["profile"],
        )
    segment_length = int(sp["segment_length"])
    rec = timeseries.synthesize_difference_current(
        model, duration=sp["duration_s"], sample_rate=sp["sample_rate_hz"], seed=cfg.seed,
        segment_length=segment_length,
    )
    est = timeseries.estimate_psd(rec, segment_length, sp["overlap"])
    feature = timeseries.locate_squeezing_feature(est, model.noise_floor)
    summary = ["model_center_hz,model_floor,model_level,n_averages",
               f"{_g(model.center_frequency)},{_g(model.noise_floor)},"
               f"{_g(model.dip_or_peak_level)},{est.n_averages}"]
    if feature is None:
        summary.append("feature: none")
    else:
        summary.append(f"feature: center_hz {_g(feature.center)} depth_db {_g(feature.depth_db)}")
    if out_dir:
        csv_lines = timeseries.spectrum_csv_lines(est, _header_lines(cfg))
        with _output_file(out_dir, "spectrum.csv") as fh:
            fh.write("\n".join(csv_lines) + "\n")
        payload = {"format_version": FORMAT_VERSION,
                   "config": cfg.resolved,
                   "spectrum": timeseries.spectrum_to_json_dict(est)}
        with _output_file(out_dir, "spectrum.json") as fh:
            json.dump(payload, fh, sort_keys=True)
            fh.write("\n")
    _emit(summary, cfg, out_dir, "spectrum_summary.txt")
    return EXIT_OK


def _oracle_error(measured: float, p: SqueezeParams, beta: float, chi1: float,
                  chi2: float, case: ImageBandCase) -> float:
    """Relative error of an oracle variance against the closed form."""
    rep = detection.blo_variance(
        p,
        LoTone(amplitude=beta, phase=chi1, frequency=2.0e15),
        LoTone(amplitude=beta, phase=chi2, frequency=2.0e15),
        case,
    )
    analytic = rep.variance + detection.lo_quantization_correction(p, n_tones=2)
    return abs(measured / analytic - 1.0)


def cmd_verify(cfg: ExperimentConfig, out_dir: str | None, tolerance: float) -> int:
    from . import fock

    orc = cfg.oracle
    policy = fock.TruncationPolicy(target_leakage=orc["target_leakage"],
                                   max_dimension=int(orc["max_dimension"]))
    caps = {
        ImageBandCase.NO_IMAGE_BANDS: orc["beta_cap_no_image"],
        ImageBandCase.SHARED_IMAGE_BAND: orc["beta_cap_shared"],
        ImageBandCase.TWO_IMAGE_BANDS: orc["beta_cap_two"],
    }
    cases = list(ImageBandCase)
    lines = ["draw,case,s,theta,beta,chi1,chi2,rel_error"]
    max_err = 0.0
    checks = []
    if cfg.two_tone and cfg.tones[0].amplitude == cfg.tones[1].amplitude:
        beta = min(cfg.tones[0].amplitude, caps[cfg.case])
        if beta >= 1.0 and tmss_oracle_feasible(cfg.squeeze.s):
            checks.append((cfg.squeeze, beta, cfg.tones[0].phase, cfg.tones[1].phase, cfg.case))
    draws = int(orc["draws"])
    if draws:
        # the oracle itself is pure Python; numpy only draws the points
        import numpy as np

        rng = np.random.default_rng(cfg.seed)
        for _ in range(draws):
            case = cases[int(rng.integers(0, 3))]
            s = float(rng.uniform(0.1, 0.75))
            beta = float(np.exp(rng.uniform(np.log(ORACLE_DRAW_BETA_MIN), np.log(caps[case]))))
            p = SqueezeParams(s=s, theta=float(rng.uniform(0.0, 2.0 * math.pi)))
            checks.append((p, beta, float(rng.uniform(0.0, 2.0 * math.pi)),
                           float(rng.uniform(0.0, 2.0 * math.pi)), case))
    for i, (p, beta, chi1, chi2, case) in enumerate(checks):
        measured = fock.oracle_blo_run(p, beta, chi1, chi2, case, policy=policy)
        err = _oracle_error(measured, p, beta, chi1, chi2, case)
        max_err = max(max_err, err)
        lines.append(f"{i},{case.value},{_g(p.s)},{_g(p.theta)},{_g(beta)},"
                     f"{_g(chi1)},{_g(chi2)},{_g(err)}")
    lines.append(f"max_relative_error: {_g(max_err)}")
    lines.append(f"tolerance: {_g(tolerance)}")
    _emit(lines, cfg, out_dir, "verify.csv")
    if max_err > tolerance:
        raise OracleMismatch(
            f"oracle disagrees with the closed forms: {max_err:g} > {tolerance:g}"
        )
    return EXIT_OK


def tmss_oracle_feasible(s: float) -> bool:
    """Whether the squeezed-pair cutoff at the default leakage stays desk-sized (<= 64)."""
    from . import fock

    if s <= 0.0:
        return True
    return math.tanh(s) < 1.0 and fock.tmss_cutoff_for_leakage(s, 1e-8) <= 64


def positive_float(text: str) -> float:
    """A finite number > 0 (nan or inf would pass any error); ValueError otherwise."""
    value = float(text)
    if not 0.0 < value < math.inf:
        raise ValueError(f"must be finite and > 0, got {text!r}")
    return value


COMMANDS = ("variance", "scan", "cases", "imbalance", "spectrum", "verify")
# in argparse's order, which its ambiguity message follows
_FLAGS = ("-h", "--help", "--config", "--output-dir", "--tolerance")

_USAGE = ("usage: blodyne [-h] --config CONFIG [--output-dir OUTPUT_DIR] "
          f"[--tolerance TOLERANCE]\n               {{{','.join(COMMANDS)}}}\n")

_HELP = _USAGE + """
Balanced heterodyne detection of two-mode squeezed light: variance tables,
phase scans, synthetic spectra, and a Fock-space oracle cross-check.

commands:
  variance    single-tone and two-tone variance reports
  scan        sweep of the controllable LO phase
  cases       the three image-band configurations side by side
  imbalance   tone-amplitude mismatch sweep
  spectrum    synthesized photocurrent spectrum and located feature
  verify      Fock-space oracle cross-check of the variance formulas

options:
  -h, --help               show this help message and exit
  --config CONFIG          path to the JSON experiment config (required)
  --output-dir OUTPUT_DIR  directory for output artifacts (default: config
                           output_dir, else stdout only)
  --tolerance TOLERANCE    verify: maximum allowed oracle-to-analytic
                           relative error (default: 0.01)

An option's value may follow it or be joined to it with '=', and an option
may be given by any unique prefix (--conf, --tol=1e-3).
"""


def _usage_error(message: str):
    sys.stderr.write(f"{_USAGE}blodyne: error: {message}\n")
    raise SystemExit(EXIT_CONFIG)


def _is_negative_number(token: str) -> bool:
    r"""argparse's ``^-\d+$|^-\d*\.\d+$``, whose ``$`` also matches before a final newline."""
    body = token[1:-1] if token.endswith("\n") else token[1:]
    whole, dot, frac = body.partition(".")
    if not dot:
        return whole.isdecimal()
    return frac.isdecimal() and (whole == "" or whole.isdecimal())


def _read_option(token: str):
    """argparse's reading of one token: None for a word, else (flag, value
    joined to it or None), with flag None for an unknown option."""
    if not token or token[0] != "-":
        return None
    if token in _FLAGS:
        return token, None
    if len(token) == 1:
        return None
    name, eq, value = token.partition("=")
    if eq and name in _FLAGS:
        return name, value
    if token[1] == "-":
        matches = [flag for flag in _FLAGS if flag.startswith(name)]
        if len(matches) > 1:
            _usage_error(f"ambiguous option: {token} could match {', '.join(matches)}")
        if matches:
            return matches[0], value if eq else None
    elif token.startswith("-h"):
        return "-h", token[2:]
    if _is_negative_number(token) or " " in token:
        return None
    return None, token


def parse_args(argv=None) -> tuple[str, str, str | None, float]:
    """(command, config, output_dir, tolerance) from the command line.

    The grammar and the order of evaluation are argparse's. Tokens are read
    left to right: a bad command word, an option without its value and a bad
    ``--tolerance`` fail at once, ``-h`` prints the help and exits 0, and
    unrecognized tokens and a missing command or ``--config`` are reported
    only at the end. A repeated option keeps its last value. A usage error
    prints the usage line and ``blodyne: error: ...`` to stderr and exits 2.
    One departure: argparse drops ``--`` from a joined value, so that
    ``--config=--`` gave an empty list; here the value is ``--``.
    """
    args = list(sys.argv[1:] if argv is None else argv)
    # first pass, as argparse: every token after the first "--" is a word
    dash = args.index("--") if "--" in args else len(args)
    options = {}
    for i in range(dash):
        option = _read_option(args[i])
        if option is not None:
            options[i] = option

    command = config = output_dir = None
    tolerance = 0.01
    unrecognized = []
    i = 0
    while i < len(args):
        if i in options:
            flag, value = options[i]
            i += 1
            if flag is None:
                unrecognized.append(args[i - 1])
                continue
            if flag in ("-h", "--help"):
                if value is not None:
                    # only more h's may be joined to -h: -hh is -h -h
                    rest = value if flag == "--help" else value.lstrip("h")
                    if rest or not value:
                        _usage_error(f"argument -h/--help: ignored explicit argument {rest!r}")
                sys.stdout.write(_HELP)
                raise SystemExit(EXIT_OK)
            if value is None:
                if i == dash or i in options:
                    _usage_error(f"argument {flag}: expected one argument")
                value = args[i]
                i += 1
            if flag == "--config":
                config = value
            elif flag == "--output-dir":
                output_dir = value
            else:
                try:
                    tolerance = positive_float(value)
                except ValueError as exc:
                    _usage_error(f"argument --tolerance: {exc}")
        elif command is None and (i != dash or i + 1 < len(args)):
            # the command word, with a "--" just before or after it
            if i == dash:
                i += 1
            command = args[i]
            if command not in COMMANDS:
                _usage_error(f"argument command: invalid choice: {command!r} (choose from "
                             f"{', '.join(map(repr, COMMANDS))})")
            i += 2 if i + 1 == dash else 1
        else:
            unrecognized.append(args[i])
            i += 1
    missing = [name for name, value in (("command", command), ("--config", config))
               if value is None]
    if missing:
        _usage_error(f"the following arguments are required: {', '.join(missing)}")
    if unrecognized:
        _usage_error(f"unrecognized arguments: {' '.join(unrecognized)}")
    return command, config, output_dir, tolerance


def main(argv=None) -> int:
    command, config_path, output_dir, tolerance = parse_args(argv)
    try:
        cfg = load_config(config_path)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if output_dir is not None:
        out_dir, out_source = output_dir, "--output-dir"
    else:
        out_dir, out_source = cfg.resolved.get("output_dir"), "config output_dir"
    try:
        if cfg.two_tone and command != "verify":
            _require_opposite_detunings(cfg)
        if command == "variance":
            return cmd_variance(cfg, out_dir)
        if command == "scan":
            return cmd_scan(cfg, out_dir)
        if command == "cases":
            return cmd_cases(cfg, out_dir)
        if command == "imbalance":
            return cmd_imbalance(cfg, out_dir)
        if command == "spectrum":
            return cmd_spectrum(cfg, out_dir)
        return cmd_verify(cfg, out_dir, tolerance)
    except OutputDirError as exc:
        print(f"config error: {out_source} {out_dir!r}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OracleMismatch as exc:
        print(f"oracle mismatch: {exc}", file=sys.stderr)
        return EXIT_ORACLE
    except ValueError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
