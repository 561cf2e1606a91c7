"""The three workloads: configs made from a seed, the CLI commands of one
pass, and the check applied to each command's output.

Every workload is a closed loop with one client: the next command starts
only after the previous one has exited.

* ``cli_closed_form``: variance, scan, cases and imbalance on a two-tone
  config, then variance and scan on a single-tone config. Each command
  computes for microseconds to milliseconds, so interpreter start and
  package import dominate. Outputs must match digests taken at the commit
  that introduced the benchmark.
* ``spectrum_long``: one ``spectrum`` run with output files on a record of
  2^24 samples. Synthesis, Welch estimation and emission dominate; the
  located feature must sit where the config puts it, at the depth the
  closed form predicts (acceptance criterion 7).
* ``oracle_verify``: one ``verify`` per image-band case at a fixed (case,
  |beta|, s) point. Besides import, the Fock oracle and its kernels do all
  the work: about a fifth of a pass on a 2-vCPU host, the rest being the
  three interpreter starts. Every ``oracle.*`` key is pinned and ``draws``
  is 0, so the seed changes only phases: the problem size, time and memory
  do not depend on it.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

WORKLOADS = ("cli_closed_form", "spectrum_long", "oracle_verify")

PLAN_TWO_TONE = {"omega_plus_hz": 300.000005e12, "omega_minus_hz": 299.999995e12,
                 "lo_hz": [299.9999951e12, 300.0000049e12]}
PLAN_ONE_TONE = {"omega_plus_hz": 300.000005e12, "omega_minus_hz": 299.999995e12,
                 "lo_hz": [300.0e12]}

# Seeds map onto this many closed-form variants; DIGESTS_FILE holds the
# expected stdout digest of every (variant, command).
N_DIGEST_VARIANTS = 64
DIGESTS_FILE = Path(__file__).with_name("cli_digests.json")
CLOSED_FORM_COMMANDS = (("two", "variance"), ("two", "scan"), ("two", "cases"),
                        ("two", "imbalance"), ("one", "variance"), ("one", "scan"))

# 8 s at the default 2.097152 MHz rate is exactly 2^24 samples; Welch
# segments keep the default length.
SPECTRUM_DURATION_S = 8.0
SPECTRUM_SAMPLE_RATE_HZ = 2.0971520e6
SPECTRUM_SEGMENT_LENGTH = 2048
# Criterion 7: feature center within 2 bins, depth within 0.5 dB.
SPECTRUM_CENTER_BINS = 2.0
SPECTRUM_DEPTH_DB = 0.5

# One point per image-band case, sized so the three oracle calls of a pass
# take about a second together: five passes of the workload, each after a
# setup sample, then fit in a 40 s run even when the host runs slow.
ORACLE_S = 0.5
ORACLE_POINTS = (("none", 7.0), ("shared", 6.0), ("two", 4.5))
ORACLE_SETTINGS = {"draws": 0, "max_dimension": 100_000_000, "target_leakage": 1.0e-8,
                   "beta_cap_no_image": 7.0, "beta_cap_shared": 6.0, "beta_cap_two": 4.5}
VERIFY_TOLERANCE = 0.01


class CheckFailed(Exception):
    """A command's output does not meet its check."""


@dataclass(frozen=True)
class Command:
    """One CLI invocation of a pass and the check of its output."""

    label: str          # unique within the workload, e.g. "two:scan"
    command: str        # the CLI subcommand
    cli_args: tuple     # arguments after ``blodyne``
    out_dir: Path
    check: Callable[[bytes, Path], None]


def _angle(rng: random.Random) -> float:
    return round(rng.uniform(0.0, 2.0 * math.pi), 4)


def closed_form_configs(variant: int) -> dict:
    """The two-tone and single-tone configs of one closed-form variant."""
    rng = random.Random(variant)
    amplitude = round(rng.uniform(2.0, 20.0), 2)
    two = {
        "frequency_plan": PLAN_TWO_TONE,
        "squeeze": {"s": round(rng.uniform(0.1, 1.5), 4), "theta": _angle(rng)},
        "lo_tones": [{"amplitude": amplitude, "phase": _angle(rng)},
                     {"amplitude": amplitude, "phase": _angle(rng)}],
        "image_band_case": ("auto", "none", "shared", "two")[int(rng.random() * 4)],
        "seed": variant,
    }
    one = {
        "frequency_plan": PLAN_ONE_TONE,
        "squeeze": {"s": round(rng.uniform(0.1, 1.5), 4), "theta": _angle(rng)},
        "lo_tones": [{"amplitude": round(rng.uniform(2.0, 20.0), 2), "phase": _angle(rng)}],
        "seed": variant,
    }
    return {"two": two, "one": one}


def spectrum_config(seed: int) -> dict:
    """A two-image-band config whose feature at 100 kHz is at least ~1 dB
    deep or high: the LO phase sum sits within 0.3 rad of the squeezed or
    the anti-squeezed quadrature."""
    rng = random.Random(seed)
    theta = _angle(rng)
    chi1 = _angle(rng)
    target = 0.0 if rng.random() < 0.5 else math.pi   # half-angle 0 or pi/2
    chi2 = round(theta - chi1 + target + rng.uniform(-0.6, 0.6), 4)
    return {
        "frequency_plan": PLAN_TWO_TONE,
        "squeeze": {"s": round(rng.uniform(0.5, 1.2), 4), "theta": theta},
        "lo_tones": [{"amplitude": 6.0, "phase": chi1}, {"amplitude": 6.0, "phase": chi2}],
        "seed": seed,
        "spectrum": {"duration_s": SPECTRUM_DURATION_S,
                     "sample_rate_hz": SPECTRUM_SAMPLE_RATE_HZ,
                     "segment_length": SPECTRUM_SEGMENT_LENGTH},
    }


def oracle_configs(seed: int) -> dict:
    """One pinned verify config per image-band case; the seed sets phases only."""
    rng = random.Random(seed)
    configs = {}
    for case, beta in ORACLE_POINTS:
        configs[case] = {
            "frequency_plan": PLAN_TWO_TONE,
            "squeeze": {"s": ORACLE_S, "theta": _angle(rng)},
            "lo_tones": [{"amplitude": beta, "phase": _angle(rng)},
                         {"amplitude": beta, "phase": _angle(rng)}],
            "image_band_case": case,
            "seed": seed,
            "oracle": dict(ORACLE_SETTINGS),
        }
    return configs


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------


def load_digests() -> dict:
    with open(DIGESTS_FILE, encoding="utf-8") as fh:
        return json.load(fh)["digests"]


def _digest_check(expected: str) -> Callable[[bytes, Path], None]:
    def check(stdout: bytes, out_dir: Path) -> None:
        got = hashlib.sha256(stdout).hexdigest()
        if got != expected:
            raise CheckFailed(f"stdout digest {got[:12]} != expected {expected[:12]}")
    return check


_SUMMARY_HEADER = "model_center_hz,model_floor,model_level,n_averages"
_FEATURE_RE = re.compile(r"^feature: center_hz (\S+) depth_db (\S+)$", re.M)


def spectrum_check(cfg: dict) -> Callable[[bytes, Path], None]:
    """Criterion 7 against expectations computed here from the config: the
    feature sits at the detuning |lo_hz[0] - omega_minus_hz|, and its level
    over the two-image-band floor 8|b|^2 is
    (e^{2s} cos^2 phi + e^{-2s} sin^2 phi + 1) / 2, phi = (chi1 + chi2 - theta)/2."""
    plan, sq, tones = cfg["frequency_plan"], cfg["squeeze"], cfg["lo_tones"]
    center = abs(plan["lo_hz"][0] - plan["omega_minus_hz"])
    phi = 0.5 * (tones[0]["phase"] + tones[1]["phase"] - sq["theta"])
    ratio = 0.5 * (math.exp(2.0 * sq["s"]) * math.cos(phi) ** 2
                   + math.exp(-2.0 * sq["s"]) * math.sin(phi) ** 2 + 1.0)
    expected_db = 10.0 * math.log10(ratio)
    resolution = SPECTRUM_SAMPLE_RATE_HZ / SPECTRUM_SEGMENT_LENGTH

    def check(stdout: bytes, out_dir: Path) -> None:
        text = stdout.decode()
        match = _FEATURE_RE.search(text)
        if match is None:
            raise CheckFailed("no squeezing feature located")
        found_center, found_db = float(match.group(1)), float(match.group(2))
        if abs(found_center - center) > SPECTRUM_CENTER_BINS * resolution:
            raise CheckFailed(f"feature at {found_center:g} Hz, expected {center:g} Hz")
        if abs(found_db - expected_db) > SPECTRUM_DEPTH_DB:
            raise CheckFailed(f"feature depth {found_db:.3f} dB, expected {expected_db:.3f} dB")
        lines = text.splitlines()
        n_avg = lines[lines.index(_SUMMARY_HEADER) + 1].split(",")[-1]
        for name in ("spectrum_summary.txt", "spectrum.csv"):
            if not (out_dir / name).stat().st_size:
                raise CheckFailed(f"{name} is empty")
        with open(out_dir / "spectrum.json", encoding="utf-8") as fh:
            if int(json.load(fh)["spectrum"]["n_averages"]) != int(n_avg):
                raise CheckFailed("spectrum.json disagrees with the summary")

    return check


def check_verify(stdout: bytes, out_dir: Path) -> None:
    text = stdout.decode()
    rows = [ln for ln in text.splitlines() if ln[:1].isdigit()]
    if len(rows) != 1:
        raise CheckFailed(f"expected one oracle check, got {len(rows)}")
    err = float(re.search(r"^max_relative_error: (\S+)$", text, re.M).group(1))
    if not err <= VERIFY_TOLERANCE:
        raise CheckFailed(f"max_relative_error {err:g} > tolerance {VERIFY_TOLERANCE:g}")


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------


def _write_config(path: Path, cfg: dict) -> Path:
    path.write_text(json.dumps(cfg, indent=1) + "\n", encoding="utf-8")
    return path


def build_commands(workload: str, seed: int, work_dir: Path) -> list[Command]:
    """Write the workload's configs under ``work_dir`` and return one pass."""
    work_dir.mkdir(parents=True, exist_ok=True)
    commands = []

    def add(label, command, config_path, check):
        out_dir = work_dir / "out" / label.replace(":", "_")
        args = (command, "--config", str(config_path), "--output-dir", str(out_dir))
        if command == "verify":
            args += ("--tolerance", repr(VERIFY_TOLERANCE))
        commands.append(Command(label, command, args, out_dir, check))

    if workload == "cli_closed_form":
        variant = seed % N_DIGEST_VARIANTS
        digests = load_digests()[str(variant)]
        configs = closed_form_configs(variant)
        paths = {k: _write_config(work_dir / f"closed_form_{k}.json", v)
                 for k, v in configs.items()}
        for tone, command in CLOSED_FORM_COMMANDS:
            label = f"{tone}:{command}"
            add(label, command, paths[tone], _digest_check(digests[label]))
    elif workload == "spectrum_long":
        cfg = spectrum_config(seed)
        path = _write_config(work_dir / "spectrum.json", cfg)
        add("spectrum", "spectrum", path, spectrum_check(cfg))
    elif workload == "oracle_verify":
        for case, cfg in oracle_configs(seed).items():
            path = _write_config(work_dir / f"verify_{case}.json", cfg)
            add(f"verify:{case}", "verify", path, check_verify)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return commands
