"""Command-line front end.

Subcommands map one-to-one onto the package's capabilities; ``blodyne -h``
lists them with the three options (``_HELP``). Every output (stdout and
files) starts with a format-version line and the canonical resolved config,
so runs are reproducible byte for byte from their own headers. Exit codes:
0 success, 2 config or usage error, 3 physics invariant violation, 4 oracle
disagreement beyond tolerance.

This module holds the argument grammar, the dispatch, output writing, the
exit codes and the four closed-form subcommands. ``spectrum`` and ``verify``
compute in :func:`blodyne.timeseries.spectrum_outputs` and
:mod:`blodyne.verify`, which their thin wrappers here import when they run
and whose lines they write. Unless its bytecode is cached, a process
compiles every module it imports, so a closed-form call compiles only
``blodyne``, ``config``, ``detection`` and this module. Neither of those two
modules imports this one: run as ``python -m blodyne.cli``, this file is
``__main__``, and importing ``blodyne.cli`` would compile and run it a
second time, with a second ``OracleMismatch`` that ``main`` would not catch.
For the same reason ``cli``, ``config``, ``detection`` and ``verify`` do
without ``from __future__ import annotations``: it costs one more import,
and makes the compiler write every annotation back out as a string.
Python 3.10, the floor, evaluates their annotations as they stand.

``parse_args`` reads the command line by argparse's grammar without loading
argparse, which with the gettext and locale modules it pulls in costs a few
milliseconds of every process; the closed-form subcommands compute for
about one.

A process ends through :func:`run`, which skips the interpreter's teardown
(clearing every module and a last garbage collection): 5-10 ms, about a
tenth of a closed-form call. Every output file is closed before ``main``
returns, so teardown has nothing left to write. ``main`` itself returns the
exit code, for callers in the same process.
"""

import atexit
import math
import os
import sys

# numpy, fock, verify and timeseries are imported inside the subcommands that
# use them, so the closed-form subcommands, and verify without random draws,
# run on the standard library alone.
from . import detection
# FORMAT_VERSION stays a name of this module, where the digest script reads it
from .config import FORMAT_VERSION, ConfigError, ExperimentConfig, header_lines, load_config
from .detection import ImageBandCase, LoTone

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


def _emit(lines, cfg: ExperimentConfig, out_dir: str | None, filename: str, files=()):
    """Print the header and lines; under out_dir, first write the files,
    (name, chunks of text) pairs, and then filename with what is printed,
    so that a failed write, which raises OutputDirError, leaves stdout empty."""
    text = "\n".join([f"# {h}" for h in header_lines(cfg)] + lines) + "\n"
    if out_dir:
        for name, chunks in (*files, (filename, (text,))):
            path = os.path.join(out_dir, name)
            try:
                os.makedirs(out_dir, exist_ok=True)
                with open(path, "w", encoding="utf-8") as fh:
                    fh.writelines(chunks)
            except OSError as exc:
                raise OutputDirError(f"cannot write {path!r}: {exc.strerror or exc}") from exc
    sys.stdout.write(text)


def _report_line(tag: str, rep: detection.VarianceReport) -> str:
    case = rep.case.value if rep.case is not None else "standard"
    return (f"{tag},{case},{_g(rep.variance)},{_g(rep.baseline)},{_g(rep.relative_db)},"
            f"{_g(rep.case_baseline)},{_g(rep.case_relative_db)},{_g(rep.lo_flux_ratio)}")


def _require_stationary(cfg: ExperimentConfig):
    """The closed forms hold only where the phase-sensitive term is static: two
    tones need delta1 = -delta2, or it oscillates at (delta1 + delta2)/2pi,
    and one tone needs 2 omega_L = omega_plus + omega_minus, or it
    oscillates at |omega_plus + omega_minus - 2 omega_L|/2pi."""
    plan = cfg.plan
    if cfg.two_tone:
        need = "two-tone formulas need delta1 = -delta2, but delta1 + delta2"
        beat = plan.delta1 + plan.delta2
    else:
        need = ("single-tone formulas need the tone midway between the signal modes, "
                "but 2 omega_L - omega_plus - omega_minus")
        beat = 2.0 * plan.lo_frequencies[0] - plan.omega_plus - plan.omega_minus
    tol = detection.detuning_tolerance(plan)
    if abs(beat) > tol:
        raise ValueError(
            f"frequency_plan.lo_hz: the {need} = {beat:.6g} rad/s (tolerance {tol:.3g} "
            f"rad/s), so the variance oscillates at {abs(beat) / (2.0 * math.pi):.6g} Hz"
        )


def cmd_variance(cfg: ExperimentConfig, out_dir: str | None) -> int:
    lines = ["scheme,case,variance,baseline,db_vs_baseline,case_baseline,"
             "db_vs_case_baseline,lo_flux_ratio"]
    tone = cfg.tones[0]
    if cfg.two_tone:
        # the single tone matching the pair: same amplitude, mean phase
        t1, t2 = cfg.tones
        tone = LoTone(t1.amplitude, 0.5 * (t1.phase + t2.phase))
    rep = detection.standard_heterodyne_variance(cfg.squeeze, tone)
    lines.append(_report_line("standard", rep))
    if cfg.two_tone:
        rep = detection.blo_variance(cfg.squeeze, t1, t2, cfg.case)
        lines.append(_report_line("blo", rep))
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
    # the phase sum theta + pi puts each case at its floor
    floor_tones = LoTone(beta, cfg.squeeze.theta + math.pi), LoTone(beta, 0.0)
    lines = []
    for case in ImageBandCase:
        at_config = detection.blo_variance(cfg.squeeze, cfg.tones[0], cfg.tones[1], case)
        floor_rep = detection.blo_variance(cfg.squeeze, *floor_tones, case)
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

    summary, files = timeseries.spectrum_outputs(cfg, bool(out_dir))
    _emit(summary, cfg, out_dir, "spectrum_summary.txt", files)
    return EXIT_OK


def cmd_verify(cfg: ExperimentConfig, out_dir: str | None, tolerance: float) -> int:
    from . import verify

    lines, max_err = verify.check_lines(cfg, tolerance)
    _emit(lines, cfg, out_dir, "verify.csv")
    if max_err > tolerance:
        raise OracleMismatch(
            f"oracle disagrees with the closed forms: {max_err:g} > {tolerance:g}"
        )
    return EXIT_OK


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
    # argparse's test for a negative number, which it reads as a word
    import re

    if re.match(r"^-\d+$|^-\d*\.\d+$", token) or " " in token:
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
        if command == "verify":
            return cmd_verify(cfg, out_dir, tolerance)
        # cases and imbalance first name their own need of two tones
        if cfg.two_tone or command in ("variance", "scan", "spectrum"):
            _require_stationary(cfg)
        # looked up by name at each call, so a wrapper set on the module is called
        return globals()[f"cmd_{command}"](cfg, out_dir)
    except OutputDirError as exc:
        print(f"config error: {out_source} {out_dir!r}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OracleMismatch as exc:
        print(f"oracle mismatch: {exc}", file=sys.stderr)
        return EXIT_ORACLE
    except ValueError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


def run(argv=None):
    """Run :func:`main` and end the process with its exit code: the entry of
    ``python -m blodyne.cli`` and of the ``blodyne`` script.

    What the interpreter's own exit would do next, it does without the
    teardown: the ``atexit`` handlers run, stdout and stderr are flushed, and
    ``os._exit`` ends the process. The ordinary exit is taken instead when
    ``main`` raises (usage errors, ``-h``, tracebacks), when a flush fails
    (the interpreter then reports the error and exits 120), when a
    non-daemon thread other than the main one is alive, under ``python -i``,
    and where ``atexit._run_exitfuncs``, a CPython function, is missing.
    """
    code = main(argv)
    threading = sys.modules.get("threading")
    run_exitfuncs = getattr(atexit, "_run_exitfuncs", None)
    if run_exitfuncs is None or sys.flags.inspect or threading is not None and any(
            not t.daemon and t is not threading.main_thread() for t in threading.enumerate()):
        sys.exit(code)
    run_exitfuncs()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except Exception:
        # the ordinary exit flushes again and reports what fails
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    run()
