"""Command-line front end.

Subcommands map one-to-one onto the package's capabilities; ``blodyne -h``
lists them with the three options. Every output (stdout and
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

``parse_args`` reads the exact form of the command line itself and hands
every other form to argparse, which with the gettext and locale modules it
pulls in costs a few milliseconds of a process; the closed-form
subcommands compute for about one.

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
from .config import FORMAT_VERSION, ConfigError, ExperimentConfig, fmt, header_lines, load_config
from .detection import ImageBandCase, LoTone

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INVARIANT = 3
EXIT_ORACLE = 4


class OracleMismatch(RuntimeError):
    """Oracle and closed-form variances disagree beyond the tolerance."""


class OutputDirError(Exception):
    """An output file cannot be written under the output directory."""


def _emit(lines, cfg: ExperimentConfig, out_dir: str | None, filename: str, files=()):
    """Print the header and lines; under out_dir, first write the files,
    (name, text) pairs, and then filename with what is printed, so that a
    failed write, which raises OutputDirError, leaves stdout empty."""
    text = "\n".join(header_lines(cfg) + lines) + "\n"
    if out_dir:
        for name, content in (*files, (filename, text)):
            path = os.path.join(out_dir, name)
            try:
                os.makedirs(out_dir, exist_ok=True)
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(content)
            except OSError as exc:
                raise OutputDirError(f"cannot write {path!r}: {exc.strerror or exc}") from exc
    sys.stdout.write(text)


def _report_line(tag: str, rep: detection.VarianceReport) -> str:
    case = rep.case.value if rep.case is not None else "standard"
    return (f"{tag},{case},{fmt(rep.variance)},{fmt(rep.baseline)},{fmt(rep.relative_db)},"
            f"{fmt(rep.case_baseline)},{fmt(rep.case_relative_db)},{fmt(rep.lo_flux_ratio)}")


def _require_plan(cfg: ExperimentConfig, command: str):
    """What each subcommand but verify needs of the plan. cases and imbalance
    need two tones. The closed forms hold only where the phase-sensitive
    term is static: two tones need delta1 = -delta2, or it oscillates at
    (delta1 + delta2)/2pi, and one tone needs 2 omega_L = omega_plus +
    omega_minus, or it oscillates at |omega_plus + omega_minus - 2 omega_L|/2pi."""
    plan = cfg.plan
    if cfg.two_tone:
        need = "two-tone formulas need delta1 = -delta2, but delta1 + delta2"
        beat = plan.delta1 + plan.delta2
    elif command in ("cases", "imbalance"):
        output = "the cases table" if command == "cases" else "the imbalance sweep"
        raise ValueError(f"{output} needs a two-tone configuration")
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


def cmd_variance(cfg: ExperimentConfig, out_dir: str | None):
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


def cmd_scan(cfg: ExperimentConfig, out_dir: str | None):
    # a pair sweeps the phase sum, one tone its own phase; case is None for one tone
    lo_config = cfg.tones if cfg.two_tone else cfg.tones[0]
    points = detection.phase_scan(cfg.squeeze, lo_config, cfg.case, cfg.scan_points)
    lines = [f"{'phase_sum' if cfg.two_tone else 'phase'},variance,db_vs_baseline"]
    for phase, rep in points:
        lines.append(f"{fmt(phase)},{fmt(rep.variance)},{fmt(rep.relative_db)}")
    _emit(lines, cfg, out_dir, "scan.csv")


def cmd_cases(cfg: ExperimentConfig, out_dir: str | None):
    beta = cfg.tones[0].amplitude
    # the phase sum theta + pi puts each case at its floor
    floor_tones = LoTone(beta, cfg.squeeze.theta + math.pi), LoTone(beta, 0.0)
    lines = []
    for case in ImageBandCase:
        at_config = detection.blo_variance(cfg.squeeze, *cfg.tones, case)
        floor_rep = detection.blo_variance(cfg.squeeze, *floor_tones, case)
        lines.append(
            f"{case.value}, floor {fmt(floor_rep.variance)}, "
            f"{floor_rep.relative_db:.2f} dB vs {fmt(floor_rep.baseline)}, "
            f"{floor_rep.case_relative_db:.2f} dB vs own {fmt(floor_rep.case_baseline)}, "
            f"at_config_phase {fmt(at_config.variance)}"
        )
    _emit(lines, cfg, out_dir, "cases.txt")


def cmd_imbalance(cfg: ExperimentConfig, out_dir: str | None):
    # the configured pair, which blo_variance requires matched, is the base
    base = detection.blo_variance(cfg.squeeze, *cfg.tones, cfg.case)
    beta = cfg.tones[0].amplitude
    chi1, chi2 = cfg.tones[0].phase, cfg.tones[1].phase
    lines = ["delta_beta_fraction,variance,excess_over_scaled_matched,db_vs_baseline"]
    for frac in cfg.imbalance_fractions:
        rep = detection.blo_variance_unbalanced(cfg.squeeze, beta, frac * beta,
                                                chi1, chi2, cfg.case)
        excess = rep.variance - (1.0 + frac) * base.variance
        lines.append(f"{fmt(frac)},{fmt(rep.variance)},{fmt(excess)},{fmt(rep.relative_db)}")
    _emit(lines, cfg, out_dir, "imbalance.csv")


def cmd_spectrum(cfg: ExperimentConfig, out_dir: str | None):
    from . import timeseries

    summary, files = timeseries.spectrum_outputs(cfg, bool(out_dir))
    _emit(summary, cfg, out_dir, "spectrum_summary.txt", files)


def cmd_verify(cfg: ExperimentConfig, out_dir: str | None, tolerance: float):
    from . import verify

    lines, max_err = verify.check_lines(cfg, tolerance)
    _emit(lines, cfg, out_dir, "verify.csv")
    if max_err > tolerance:
        raise OracleMismatch(
            f"oracle disagrees with the closed forms: {max_err:g} > {tolerance:g}"
        )


def positive_float(text: str) -> float:
    """A finite number > 0 (nan or inf would pass any error); ValueError otherwise."""
    value = float(text)
    if not 0.0 < value < math.inf:
        raise ValueError(f"must be finite and > 0, got {text!r}")
    return value


COMMANDS = ("variance", "scan", "cases", "imbalance", "spectrum", "verify")
_OPTIONS = ("--config", "--output-dir", "--tolerance")


def _read_exact(args):
    """parse_args's tuple from the exact form of the command line, else None:
    the command word once and whole option names, each with its value joined
    with ``=`` or as the next word, which must not start with ``-``. It
    needs ``--config``, and a ``--tolerance`` that :func:`positive_float`
    accepts. argparse reads each such line the same."""
    command, values = None, {"--output-dir": None, "--tolerance": "0.01"}
    words = iter(args)
    for word in words:
        name, eq, value = word.partition("=")
        if name in _OPTIONS:
            if not eq:
                # "-" stands for a missing value
                value = next(words, "-")
                if value.startswith("-"):
                    return None
            values[name] = value
        elif command is None and word in COMMANDS:
            command = word
        else:
            return None
    if command is None or "--config" not in values:
        return None
    try:
        tolerance = positive_float(values["--tolerance"])
    except ValueError:
        return None
    return command, values["--config"], values["--output-dir"], tolerance


def parse_args(argv=None) -> tuple[str, str, str | None, float]:
    """(command, config, output_dir, tolerance) from the command line.

    The exact form (:func:`_read_exact`) is read here, every other form by
    the running Python's argparse: option prefixes, ``-h``, ``--``, and the
    usage errors, which exit 2. One departure: argparse before Python 3.13
    reads a value joined as ``=--`` as an empty list; here it is ``--``.
    """
    args = list(sys.argv[1:] if argv is None else argv)
    if (exact := _read_exact(args)) is not None:
        return exact
    import argparse

    def tolerance(text):
        try:
            return positive_float(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    parser = argparse.ArgumentParser(
        prog="blodyne", formatter_class=argparse.RawDescriptionHelpFormatter,
        description="Balanced heterodyne detection of two-mode squeezed light: variance "
                    "tables,\nphase scans, synthetic spectra, and a Fock-space oracle "
                    "cross-check.",
        epilog="""commands:
  variance    single-tone and two-tone variance reports
  scan        sweep of the controllable LO phase
  cases       the three image-band configurations side by side
  imbalance   tone-amplitude mismatch sweep
  spectrum    synthesized photocurrent spectrum and located feature
  verify      Fock-space oracle cross-check of the variance formulas

An option's value may follow it or be joined to it with '=', and an option
may be given by any unique prefix (--conf, --tol=1e-3).""")
    parser.add_argument("command", choices=COMMANDS, metavar="command", help="see below")
    parser.add_argument("--config", required=True, help="path to the JSON experiment config")
    parser.add_argument("--output-dir", help="directory for output artifacts (default: "
                                             "config output_dir, else stdout only)")
    parser.add_argument("--tolerance", type=tolerance, default=0.01, help="verify: maximum "
                        "allowed oracle-to-analytic relative error (default: 0.01)")
    ns = parser.parse_args(args)
    config, output_dir = ("--" if v == [] else v for v in (ns.config, ns.output_dir))
    if ns.tolerance == []:
        parser.error("argument --tolerance: could not convert string to float: '--'")
    return ns.command, config, output_dir, ns.tolerance


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
            cmd_verify(cfg, out_dir, tolerance)
        else:
            _require_plan(cfg, command)
            # looked up by name at each call, so a wrapper set on the module is called
            globals()[f"cmd_{command}"](cfg, out_dir)
    except OutputDirError as exc:
        print(f"config error: {out_source} {out_dir!r}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OracleMismatch as exc:
        print(f"oracle mismatch: {exc}", file=sys.stderr)
        return EXIT_ORACLE
    except ValueError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    return EXIT_OK


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
