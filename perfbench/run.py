"""blodyne benchmark: end-to-end workloads and a traced per-layer run.

Run from the root of a source checkout (nothing needs to be installed;
children get ``src`` on PYTHONPATH):

    python3 perfbench/run.py --workload cli_closed_form --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40 --trace 1

``--trace 0`` runs cycles of one fresh ``import blodyne.cli`` and one whole
pass of the workload as CLI subprocesses, while the next cycle is expected
to end within ``--seconds``.

The host this benchmark was built on is a shared 2-vCPU VM whose speed
changes by up to 1.9x, from second to second and over minutes, with no CPU
steal reported (a fixed Python loop took 34 ms, then 65 ms ten minutes
later with nothing else running). Raw wall times there tell more about the
host at the moment of the run than about the program. So each timed
subprocess runs right after a reference job that runs no blodyne code
(REFERENCE_CODE), and is reported in reference seconds: its wall time over
the reference job's, times REFERENCE_NOMINAL_S. A pass is taken against the
mean reference of its commands. A program that does more work still reads
slower; a slower host does not. Raw medians are printed beside them and
kept with every sample in the full result. End-to-end metrics, all but
peak RSS in reference seconds:

    setup_s      median time of a fresh ``import blodyne.cli``, sampled
                 once a cycle (topped up to SETUP_MIN_SAMPLES at the end)
    wall_s       median time of one complete pass
    cmd_p50_s    median time of one CLI subprocess
    peak_rss_mb  largest peak RSS of one CLI subprocess (from wait4)
    fail_share   failed over attempted operations; printed per workload,
                 and carried in the result line as ``attempted``/``failed``

``--trace 1`` makes one traced layer run instead: import attribution with
``-X importtime``, TRACE_PAIRS alternating untraced and traced passes of the
workload, one traced pass of each other workload, and probes of the layers
no subcommand reaches alone. It reports every per-layer metric, and
``trace.wall_ratio`` (median traced over median untraced pass wall time of
the workload) as the tracing overhead. ``--workload all`` runs every
workload in turn.

Every output is checked; an operation fails on a nonzero exit or a failed
check. The last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the full result, with a machine
record, sample counts and raw samples, goes to ``.perfbench_runs/``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import importlib.util
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import namedtuple
from pathlib import Path

import workloads
from workloads import WORKLOADS, CheckFailed

ROOT = Path(__file__).resolve().parent.parent
CHILD = Path(__file__).with_name("child.py")
SETUP_MIN_SAMPLES = 5
# The reference job: no blodyne code, so no change to the program moves it.
# It mixes what a pass spends its time on: interpreter start, an import from
# the installed packages, numpy array work and plain Python. Sampled next to
# each timed subprocess, it cut the spread of run medians over seeds from
# 0.15-0.28 to 0.04-0.06 of the median on oracle_verify.
REFERENCE_CODE = """
import numpy as np
x = np.random.default_rng(0).standard_normal(1 << 18)
for _ in range(4):
    y = np.abs(np.fft.rfft(x)) ** 2
t = 0
for i in range(100_000):
    t += i * i
"""
# About the reference job's median wall time on a 2-vCPU Intel Xeon VM
# (2 MB L2, 105 MB L3, Python 3.11, numpy 2.4), so that reference seconds
# read about as wall seconds there. Any fixed value would do: it only sets
# the scale, the same for every commit.
REFERENCE_NOMINAL_S = 0.25
IMPORT_SAMPLES = 3
TRACE_PAIRS = 3
CHILD_TIMEOUT_S = 60.0
CLI_COMMANDS = ("variance", "scan", "cases", "imbalance", "spectrum", "verify")
CASES = tuple(case for case, _ in workloads.ORACLE_POINTS)

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "cmd_p50_s": "s", "peak_rss_mb": "MB"}


PER_LAYER_UNITS = {
    "import.interpreter_s": "s", "import.numpy_s": "s", "import.scipy_s": "s",
    "import.blodyne_cli_s": "s",
    "config.load_config_s": "s",
    "detection.blo_variance_s": "s", "detection.blo_variance_unbalanced_s": "s",
    "detection.phase_scan_s": "s", "detection.phase_scan_points": "count",
    "gaussian.symplectic_chain_s": "s",
    "fock.build_states_s": "s", "fock.unitary_selfcheck_s": "s",
    **{f"fock.oracle_{case}_{m}": u for case in CASES
       for m, u in (("s", "s"), ("rss_mb", "MB"), ("joint_bytes", "B"))},
    "kernels.pair_ladder_acc_s": "s", "kernels.norm_sq_s": "s", "kernels.vdot_s": "s",
    "kernels.bytes_computed": "B", "kernels.gbps_computed": "GB/s",
    "timeseries.synthesize_s": "s", "timeseries.estimate_psd_s": "s",
    "timeseries.locate_feature_s": "s", "timeseries.emit_s": "s",
    "timeseries.n_samples": "count", "timeseries.n_averages": "count",
    **{f"cli.{command}_{m}": u for command in CLI_COMMANDS
       for m, u in (("s", "s"), ("rss_mb", "MB"))},
    "trace.wall_ratio": "ratio",
}


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------


Child = namedtuple("Child", "op wall_s rss_mb returncode stdout stderr")


class Runner:
    """Starts one child at a time and counts operations and failed ones.

    An operation is one child process or one check made after the fact; it
    fails on a nonzero exit or on any failed check of its output."""

    def __init__(self, work_dir: Path):
        self.work_dir = work_dir
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else []))
        self.attempted = 0
        self.failures = {}   # operation number -> messages

    def operation(self) -> int:
        self.attempted += 1
        return self.attempted

    def fail(self, op: int, label: str, message: str) -> None:
        self.failures.setdefault(op, []).append(f"{label}: {message}")

    def run(self, argv, label, timeout=CHILD_TIMEOUT_S) -> Child:
        """Run argv to completion. Peak RSS is this child's own, from wait4."""
        op = self.operation()
        out_path = self.work_dir / f"child{op}.out"
        err_path = self.work_dir / f"child{op}.err"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=ROOT)
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        stdout, stderr = out_path.read_bytes(), err_path.read_text(errors="replace")
        out_path.unlink()
        err_path.unlink()
        if proc.returncode != 0:
            self.fail(op, label, f"exit code {proc.returncode}: {stderr.strip()[-300:]}")
        return Child(op, wall, usage.ru_maxrss / 1024.0, proc.returncode, stdout, stderr)


def run_pass(runner: Runner, commands, traced: bool, paired: bool = False) -> dict:
    """One pass of a workload: every command once, in order, each checked.

    ``paired`` takes a reference sample just before every command and keeps
    it in the command's record; the pass wall time leaves those out."""
    records = []
    wall = 0.0
    for cmd in commands:
        reference = reference_time(runner) if paired else None
        start = time.perf_counter()
        spans_path = runner.work_dir / "spans.json"
        if traced:
            argv = [sys.executable, str(CHILD), "trace", str(spans_path), *cmd.cli_args]
        else:
            argv = [sys.executable, "-m", "blodyne.cli", *cmd.cli_args]
        child = runner.run(argv, cmd.label)
        record = {"op": child.op, "label": cmd.label, "command": cmd.command,
                  "wall_s": child.wall_s, "rss_mb": child.rss_mb, "reference_s": reference}
        if child.returncode == 0:
            try:
                cmd.check(child.stdout, cmd.out_dir)
            except (CheckFailed, OSError, ValueError, KeyError, AttributeError) as exc:
                runner.fail(child.op, cmd.label, f"output check: {exc}")
        if traced:
            record["spans"] = []
            if spans_path.exists():
                record["spans"] = json.loads(spans_path.read_text(encoding="utf-8"))["spans"]
                spans_path.unlink()
        records.append(record)
        wall += time.perf_counter() - start
    return {"wall_s": wall, "commands": records}


def setup_time(runner: Runner) -> float:
    """Wall time of a fresh interpreter importing blodyne.cli."""
    return runner.run([sys.executable, "-c", "import blodyne.cli"], "setup").wall_s


def reference_time(runner: Runner) -> float:
    """Wall time of the reference job, which measures the host, not blodyne."""
    return runner.run([sys.executable, "-c", REFERENCE_CODE], "reference").wall_s


# ---------------------------------------------------------------------------
# untraced run: end-to-end metrics
# ---------------------------------------------------------------------------


def end_to_end(runner: Runner, workload: str, seed: int, seconds: float) -> dict:
    commands = workloads.build_commands(workload, seed, runner.work_dir / workload)
    # A setup sample before every pass spreads the setup samples over the
    # run as the passes are spread. Whole cycles only, and only while the
    # next one is expected to end within the measuring time, so a run's
    # length does not depend on the pass length.
    setup, passes, cycles = [], [], []   # setup: (reference, wall) pairs
    start = time.perf_counter()
    while not cycles or time.perf_counter() - start + statistics.median(cycles) <= seconds:
        cycle_start = time.perf_counter()
        setup.append((reference_time(runner), setup_time(runner)))
        passes.append(run_pass(runner, commands, traced=False, paired=True))
        cycles.append(time.perf_counter() - cycle_start)
    while len(setup) < SETUP_MIN_SAMPLES:
        setup.append((reference_time(runner), setup_time(runner)))
    cmds = [c for p in passes for c in p["commands"]]
    # Each sample in reference seconds: its wall time over that of the
    # reference job run just before it, times the reference's nominal time.
    # A pass is measured against the references of its commands.
    ref_s = {
        "setup_s": [wall / ref for ref, wall in setup],
        "wall_s": [p["wall_s"] / statistics.mean(c["reference_s"] for c in p["commands"])
                   for p in passes],
        "cmd_p50_s": [c["wall_s"] / c["reference_s"] for c in cmds],
    }
    metrics = {name: REFERENCE_NOMINAL_S * statistics.median(v) for name, v in ref_s.items()}
    metrics["peak_rss_mb"] = max(c["rss_mb"] for c in cmds)
    raw = {
        "setup_s": statistics.median(wall for _, wall in setup),
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "cmd_p50_s": statistics.median(c["wall_s"] for c in cmds),
    }
    references = [ref for ref, _ in setup] + [c["reference_s"] for c in cmds]
    samples = {"setup_s": len(setup), "wall_s": len(passes), "cmd_p50_s": len(cmds),
               "peak_rss_mb": len(cmds), "reference": len(references)}
    return {"metrics": metrics, "samples": samples, "raw_medians": raw,
            "reference_s": statistics.median(references),
            "raw": {"setup_s": setup,
                    "passes": [{"wall_s": p["wall_s"], "commands": p["commands"]}
                               for p in passes]}}


# ---------------------------------------------------------------------------
# traced layer run: per-layer metrics
# ---------------------------------------------------------------------------


def _importtime_split(stderr: str) -> dict:
    """Disjoint import seconds of numpy, scipy and blodyne from
    ``-X importtime`` output. numpy and scipy are their outermost entries'
    cumulative times (numpy pulled in by scipy counts as scipy); blodyne is
    its outermost entries' cumulative time less the numpy and scipy entries
    nested in it, so the three never overlap."""
    entries = []
    for line in stderr.splitlines():
        m = re.match(r"import time:\s+\d+ \|\s+(\d+) \|( *)(\S+)", line)
        if m:
            entries.append((int(m.group(1)), (len(m.group(2)) - 1) // 2, m.group(3)))
    totals = {"numpy": 0, "scipy": 0, "blodyne": 0}
    stack = []   # ancestors of the current entry; post-order read backwards
    for cum_us, depth, name in reversed(entries):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        top = name.split(".")[0]
        ancestors = {a for _, a in stack}
        if top == "blodyne" and "blodyne" not in ancestors:
            totals["blodyne"] += cum_us
        if top in ("numpy", "scipy") and not ancestors & {"numpy", "scipy"}:
            totals[top] += cum_us
            if "blodyne" in ancestors:
                totals["blodyne"] -= cum_us
        stack.append((depth, top))
    return {k: v / 1e6 for k, v in totals.items()}


def import_metrics(runner: Runner) -> dict:
    interpreter = [runner.run([sys.executable, "-c", "pass"], "interpreter").wall_s
                   for _ in range(IMPORT_SAMPLES)]
    argv = [sys.executable, "-X", "importtime", "-c", "import blodyne.cli"]
    splits = [_importtime_split(runner.run(argv, "importtime").stderr)
              for _ in range(IMPORT_SAMPLES)]
    metrics = {"import.interpreter_s": statistics.median(interpreter)}
    for key, name in (("numpy", "numpy"), ("scipy", "scipy"), ("blodyne", "blodyne_cli")):
        metrics[f"import.{name}_s"] = statistics.median(s[key] for s in splits)
    return metrics


def _span_duration(span):
    return span["end"] - span["start"]


def _self_time(span, spans):
    return _span_duration(span) - sum(_span_duration(s) for s in spans
                                      if s["parent"] == span["id"])


def span_metrics(traced_passes: dict) -> dict:
    """Per-layer metrics from the traced passes, keyed by workload."""
    by_name = {}
    for p in traced_passes.values():
        for record in p["commands"]:
            for span in record["spans"]:
                by_name.setdefault(span["name"], []).append((span, record))

    def durations(name):
        return [_span_duration(s) for s, _ in by_name.get(name, [])]

    def only(name):
        found = by_name.get(name, [])
        if len(found) != 1:
            raise KeyError(f"expected one {name} span, found {len(found)}")
        return found[0]

    metrics = {
        "config.load_config_s": statistics.median(durations("config.load_config")),
        "detection.blo_variance_s": statistics.median(durations("detection.blo_variance")),
        "detection.blo_variance_unbalanced_s":
            statistics.median(durations("detection.blo_variance_unbalanced")),
        "detection.phase_scan_s": statistics.median(durations("detection.phase_scan")),
        "detection.phase_scan_points":
            statistics.median(s["points"] for s, _ in by_name["detection.phase_scan"]),
    }
    # The traced verify's own output check holds each value within 1% of
    # the closed form plus the LO correction (check_verify).
    for span, record in by_name["fock.oracle_blo_run"]:
        case = record["label"].split(":")[1]   # one oracle call per verify
        metrics[f"fock.oracle_{case}_s"] = _span_duration(span)
        metrics[f"fock.oracle_{case}_rss_mb"] = span["rss_growth_mb"]
    synth, _ = only("timeseries.synthesize_difference_current")
    welch, _ = only("timeseries.estimate_psd")
    locate, _ = only("timeseries.locate_squeezing_feature")
    spectrum_cmd, spectrum_record = only("cli.cmd_spectrum")
    metrics.update({
        "timeseries.synthesize_s": _span_duration(synth),
        "timeseries.estimate_psd_s": _span_duration(welch),
        "timeseries.locate_feature_s": _span_duration(locate),
        # Everything cmd_spectrum does besides its three compute layers:
        # formatting and writing the summary, CSV and JSON.
        "timeseries.emit_s": _self_time(spectrum_cmd, spectrum_record["spans"]),
        "timeseries.n_samples": synth["n_samples"],
        "timeseries.n_averages": welch["n_averages"],
    })
    for command in CLI_COMMANDS:
        records = [r for p in traced_passes.values() for r in p["commands"]
                   if r["command"] == command]
        metrics[f"cli.{command}_s"] = statistics.median(r["wall_s"] for r in records)
        metrics[f"cli.{command}_rss_mb"] = max(r["rss_mb"] for r in records)
    return metrics


def probe_metrics(runner: Runner, notes: dict) -> dict:
    result_path = runner.work_dir / "probe.json"
    child = runner.run([sys.executable, str(CHILD), "probe", str(result_path)], "probe")
    notes["probe"] = f"probe child peak RSS {child.rss_mb:.0f} MB"
    if not result_path.exists():
        return {}
    result = json.loads(result_path.read_text(encoding="utf-8"))
    for failure in result["failures"]:
        runner.fail(child.op, "probe", failure)
    return result["metrics"]


def layer_run(runner: Runner, workload: str, seed: int) -> dict:
    metrics = import_metrics(runner)
    notes = {}
    # Untraced and traced passes alternate, so the host's drift weighs on
    # both sides of the overhead ratio alike. Spans come from the first
    # traced pass of each workload.
    commands = workloads.build_commands(workload, seed, runner.work_dir / workload)
    untraced, traced = [], []
    for _ in range(TRACE_PAIRS):
        untraced.append(run_pass(runner, commands, traced=False)["wall_s"])
        traced.append(run_pass(runner, commands, traced=True))
    passes = {workload: traced[0]}
    for name in WORKLOADS:
        if name != workload:
            commands = workloads.build_commands(name, seed, runner.work_dir / name)
            passes[name] = run_pass(runner, commands, traced=True)
    traced_wall = statistics.median(p["wall_s"] for p in traced)
    metrics["trace.wall_ratio"] = traced_wall / statistics.median(untraced)
    notes["trace"] = (f"{workload}: median traced pass {traced_wall:.4f} s, median "
                      f"untraced pass {statistics.median(untraced):.4f} s, "
                      f"{TRACE_PAIRS} of each")
    notes["cli"] = "cli.* are the traced passes' subprocesses: median wall, max peak RSS"
    notes["fock"] = ("fock.oracle_<case>_rss_mb is how far the oracle call raised its verify "
                     "process's peak RSS; *_joint_bytes and kernels.bytes_computed are "
                     "computed from array sizes, not measured")
    try:
        metrics.update(span_metrics(passes))
    except (KeyError, statistics.StatisticsError) as exc:
        runner.fail(runner.operation(), "spans", f"a layer left no span: {exc}")
    metrics.update(probe_metrics(runner, notes))
    notes["tier1.wall_s"] = ("not recorded: the tier-1 suite takes minutes and several GB, "
                             "more than one benchmark run may use")
    return {"metrics": metrics, "notes": notes, "passes": {
        name: {"wall_s": p["wall_s"],
               "commands": [{k: v for k, v in c.items() if k != "spans"}
                            for c in p["commands"]]} for name, p in passes.items()}}


# ---------------------------------------------------------------------------
# machine record and output
# ---------------------------------------------------------------------------


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8").strip()
    except OSError:
        return ""


def machine_record() -> dict:
    cpu = re.search(r"^model name\s*:\s*(.*)$", _read("/proc/cpuinfo"), re.M)
    mem = re.search(r"^MemTotal:\s*(\d+) kB", _read("/proc/meminfo"), re.M)
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = _read(f"{index}/level"), _read(f"{index}/type")
        if kind in ("Unified", "Data") and level in ("2", "3"):
            caches[f"L{level}"] = _read(f"{index}/size")

    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu.group(1) if cpu else platform.processor(),
        "cache": caches,
        "mem_total_gb": round(int(mem.group(1)) / 2**20, 2) if mem else None,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "git_commit": commit or "unknown (not a git checkout)",
    }


def _result_line(runner: Runner, metrics: dict, units: dict) -> dict:
    return {"correct": not runner.failures, "attempted": runner.attempted,
            "failed": len(runner.failures),
            "metrics": {name: {"value": metrics[name], "unit": units[name]}
                        for name in units if name in metrics}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (ROOT / "src" / "blodyne" / "cli.py").is_file():
        print(f"perfbench: no blodyne sources under {ROOT / 'src'}; "
              "run from a source checkout", file=sys.stderr)
        return 2

    out_root = ROOT / ".perfbench_runs"
    work_dir = out_root / f"work-{os.getpid()}"
    work_dir.mkdir(parents=True)
    runner = Runner(work_dir)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        if args.trace == 0 or args.workload == "all":
            for name in names:
                attempted, failed = runner.attempted, len(runner.failures)
                results[name] = end_to_end(runner, name, args.seed, args.seconds)
                results[name]["fail_share"] = \
                    (len(runner.failures) - failed) / (runner.attempted - attempted)
        if args.trace == 1:
            results["layers"] = layer_run(runner, names[0], args.seed)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    if args.trace == 1:
        units, metrics = PER_LAYER_UNITS, results["layers"]["metrics"]
    elif args.workload == "all":
        units = {f"{n}.{m}": u for n in names for m, u in END_TO_END_UNITS.items()}
        metrics = {f"{n}.{m}": v for n in names for m, v in results[n]["metrics"].items()}
    else:
        units, metrics = END_TO_END_UNITS, results[args.workload]["metrics"]
    missing = sorted(set(units) - set(metrics))
    machine = machine_record()

    for name in names:
        if name not in results:
            continue
        res = results[name]
        print(f"[{name}] seed {args.seed}")
        for metric, value in res["metrics"].items():
            if metric == "peak_rss_mb":
                how = f"max of {res['samples'][metric]}"
            else:
                how = (f"median of {res['samples'][metric]}, reference s "
                       f"(raw {res['raw_medians'][metric]:.6g} s)")
            print(f"  {metric:<12} {value:12.6g} {END_TO_END_UNITS[metric]:<5} {how}")
        print(f"  {'reference':<12} {res['reference_s']:12.6g} s     median of "
              f"{res['samples']['reference']}, nominal {REFERENCE_NOMINAL_S:g} s")
        print(f"  {'fail_share':<12} {res['fail_share']:12.6g} share")
    if "layers" in results:
        print(f"[layers] seed {args.seed}, overhead measured on {names[0]}")
        for metric, value in results["layers"]["metrics"].items():
            print(f"  {metric:<38} {value:14.6g} {PER_LAYER_UNITS.get(metric, 's')}")
        for key, note in results["layers"]["notes"].items():
            print(f"  note {key}: {note}")
    if missing:
        print(f"missing metrics (see FAILED lines for why): {', '.join(missing)}")
    print(f"operations: {runner.attempted} attempted, {len(runner.failures)} failed")
    for messages in runner.failures.values():
        for message in messages:
            print(f"  FAILED {message}")
    print("machine: " + json.dumps(machine, sort_keys=True))

    line = _result_line(runner, metrics, units)
    full = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "machine": machine,
            "fail_share": len(runner.failures) / max(1, runner.attempted),
            "failures": [m for ms in runner.failures.values() for m in ms],
            "missing_metrics": missing, "results": results,
            **line}
    out_file = out_root / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(full, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
