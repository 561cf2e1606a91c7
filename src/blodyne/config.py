"""Strict experiment configuration: JSON in, validated objects out.

The schema is documented in the README. Unknown keys anywhere in the file
are rejected with their JSON path, partly to catch typos and partly so that
the resolved config echoed into output headers re-parses to the same
experiment. Frequencies in the file are plain Hz; the single 2*pi conversion
to rad/s happens here.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field

from .detection import FrequencyPlan, ImageBandCase, LoTone, classify_image_band_case
from .gaussian import SqueezeParams
from .timeseries import PROFILES

FORMAT_VERSION = "blodyne-output/1"

_CASE_NAMES = {
    "auto": None,
    "none": ImageBandCase.NO_IMAGE_BANDS,
    "shared": ImageBandCase.SHARED_IMAGE_BAND,
    "two": ImageBandCase.TWO_IMAGE_BANDS,
}


class ConfigError(ValueError):
    """A structural or value problem in the configuration file."""


def _require_keys(obj: dict, path: str, required, optional=()):
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: expected an object")
    unknown = set(obj) - set(required) - set(optional)
    if unknown:
        raise ConfigError(f"{path}: unknown keys {sorted(unknown)}")
    missing = [k for k in required if k not in obj]
    if missing:
        raise ConfigError(f"{path}: missing keys {missing}")


def _number(obj, path: str) -> float:
    if isinstance(obj, bool) or not isinstance(obj, (int, float)):
        raise ConfigError(f"{path}: expected a number, got {obj!r}")
    value = float(obj)
    if not math.isfinite(value):
        # json parses NaN, Infinity and out-of-range literals such as 1e400
        raise ConfigError(f"{path}: expected a finite number, got {obj!r}")
    return value


def _integer(obj, path: str) -> int:
    if isinstance(obj, bool) or not isinstance(obj, int):
        raise ConfigError(f"{path}: expected an integer, got {obj!r}")
    return obj


_SPECTRUM_DEFAULTS = {
    "squeezing_bandwidth_hz": 5.0e4,
    "profile": "lorentzian",
    "sample_rate_hz": 2.0971520e6,
    "duration_s": 0.25,
    "segment_length": 2048,
    "overlap": 0.5,
}

# verify draws |beta| log-uniformly from this floor up to the case's cap
ORACLE_DRAW_BETA_MIN = 5.0

# exp(2s) is the largest squeeze factor the closed forms take (cosh 2s and
# sinh^2 s stay below it); it overflows a float from here on.
_MAX_TWO_S = math.log(sys.float_info.max)

# a phase scan evaluates and prints every point; far more than any plot needs,
# and small enough that the point arrays never exhaust memory
_MAX_SCAN_POINTS = 1 << 20

_ORACLE_DEFAULTS = {
    "draws": 12,
    "max_dimension": 100_000_000,
    "target_leakage": 1.0e-8,
    "beta_cap_no_image": 16.0,
    "beta_cap_shared": 12.0,
    "beta_cap_two": 10.0,
}


@dataclass(frozen=True)
class ExperimentConfig:
    """A fully resolved experiment: physics objects plus run settings."""

    plan: FrequencyPlan
    squeeze: SqueezeParams
    tones: tuple[LoTone, ...]
    case: ImageBandCase | None      # None means single-tone only
    seed: int
    scan_points: int
    imbalance_fractions: tuple[float, ...]
    spectrum: dict = field(repr=False)
    oracle: dict = field(repr=False)
    resolved: dict = field(repr=False)

    @property
    def two_tone(self) -> bool:
        return len(self.tones) == 2


def parse_config(raw: dict) -> ExperimentConfig:
    """Validate a parsed JSON object and build the experiment."""
    _require_keys(
        raw, "config",
        required=["frequency_plan", "squeeze", "lo_tones"],
        optional=["image_band_case", "seed", "scan", "imbalance", "spectrum",
                  "oracle", "output_dir"],
    )

    fp_raw = raw["frequency_plan"]
    _require_keys(fp_raw, "frequency_plan",
                  required=["omega_plus_hz", "omega_minus_hz", "lo_hz"])
    lo_hz = fp_raw["lo_hz"]
    if not isinstance(lo_hz, list) or not 1 <= len(lo_hz) <= 2:
        raise ConfigError("frequency_plan.lo_hz: expected a list of one or two frequencies")
    two_pi = 2.0 * math.pi
    try:
        plan = FrequencyPlan(
            omega_plus=two_pi * _number(fp_raw["omega_plus_hz"], "frequency_plan.omega_plus_hz"),
            omega_minus=two_pi * _number(fp_raw["omega_minus_hz"], "frequency_plan.omega_minus_hz"),
            lo_frequencies=tuple(
                two_pi * _number(f, f"frequency_plan.lo_hz[{i}]") for i, f in enumerate(lo_hz)
            ),
        )
    except ValueError as exc:
        raise ConfigError(f"frequency_plan: {exc}") from exc

    sq_raw = raw["squeeze"]
    _require_keys(sq_raw, "squeeze", required=["s"], optional=["theta"])
    try:
        squeeze = SqueezeParams(
            s=_number(sq_raw["s"], "squeeze.s"),
            theta=_number(sq_raw.get("theta", 0.0), "squeeze.theta"),
        )
    except ValueError as exc:
        raise ConfigError(f"squeeze: {exc}") from exc
    if 2.0 * squeeze.s >= _MAX_TWO_S:
        raise ConfigError(
            f"squeeze.s: {squeeze.s!r} overflows the squeeze factor exp(2s); "
            f"must be below {0.5 * _MAX_TWO_S:.6g}"
        )

    tones_raw = raw["lo_tones"]
    if not isinstance(tones_raw, list) or len(tones_raw) != len(plan.lo_frequencies):
        raise ConfigError(
            f"lo_tones: expected {len(plan.lo_frequencies)} entries matching frequency_plan.lo_hz"
        )
    tones = []
    for i, tone_raw in enumerate(tones_raw):
        _require_keys(tone_raw, f"lo_tones[{i}]", required=["amplitude"], optional=["phase"])
        try:
            tones.append(LoTone(
                amplitude=_number(tone_raw["amplitude"], f"lo_tones[{i}].amplitude"),
                phase=_number(tone_raw.get("phase", 0.0), f"lo_tones[{i}].phase"),
                frequency=plan.lo_frequencies[i],
            ))
        except ValueError as exc:
            raise ConfigError(f"lo_tones[{i}]: {exc}") from exc
        amp = tones[-1].amplitude
        # the closed forms scale by |beta|^2 and divide by it (lo_flux_ratio);
        # an amplitude of 0 is left to them, and they reject it as a physics error
        if amp != 0.0 and not sys.float_info.min <= amp * amp < math.inf:
            raise ConfigError(
                f"lo_tones[{i}].amplitude: {amp!r} squared is not a finite normal float"
            )

    case_requested = raw.get("image_band_case", "auto")
    if case_requested not in _CASE_NAMES:
        raise ConfigError(
            f"image_band_case: expected one of {sorted(_CASE_NAMES)}, got {case_requested!r}"
        )
    if len(tones) == 2:
        case = _CASE_NAMES[case_requested] if case_requested != "auto" \
            else classify_image_band_case(plan)
    else:
        if case_requested != "auto":
            raise ConfigError("image_band_case applies only to two-tone plans")
        case = None

    seed = _integer(raw.get("seed", 0), "seed")
    if seed < 0:
        raise ConfigError("seed: must be >= 0")

    scan_raw = raw.get("scan", {})
    _require_keys(scan_raw, "scan", required=[], optional=["n_points"])
    scan_points = _integer(scan_raw.get("n_points", 72), "scan.n_points")
    if not 2 <= scan_points <= _MAX_SCAN_POINTS:
        raise ConfigError(f"scan.n_points: must lie in [2, {_MAX_SCAN_POINTS}]")

    imb_raw = raw.get("imbalance", {})
    _require_keys(imb_raw, "imbalance", required=[], optional=["fractions"])
    fractions = imb_raw.get("fractions", [0.01, 0.02, 0.05, 0.1])
    if not isinstance(fractions, list) or not fractions:
        raise ConfigError("imbalance.fractions: expected a non-empty list")
    fractions = tuple(_number(f, f"imbalance.fractions[{i}]") for i, f in enumerate(fractions))
    if any(not -1.0 < f for f in fractions):
        raise ConfigError("imbalance.fractions: each fraction must exceed -1")
    for i, f in enumerate(fractions):
        if f * f == math.inf:
            raise ConfigError(f"imbalance.fractions[{i}]: {f!r} squared overflows a float")

    spec_raw = raw.get("spectrum", {})
    _require_keys(spec_raw, "spectrum", required=[], optional=list(_SPECTRUM_DEFAULTS))
    spectrum = dict(_SPECTRUM_DEFAULTS)
    for key, value in spec_raw.items():
        if key == "profile":
            if value not in PROFILES:
                raise ConfigError(
                    f"spectrum.profile: expected {' or '.join(map(repr, PROFILES))}")
            spectrum[key] = value
        elif key == "segment_length":
            spectrum[key] = _integer(value, f"spectrum.{key}")
        else:
            spectrum[key] = _number(value, f"spectrum.{key}")
    seg = spectrum["segment_length"]
    if seg < 4 or seg & (seg - 1):
        raise ConfigError(f"spectrum.segment_length: {seg!r} is not a power of two >= 4")
    if not 0.0 <= spectrum["overlap"] <= 0.9:
        raise ConfigError(f"spectrum.overlap: {spectrum['overlap']!r} is outside [0, 0.9]")
    for key in ("squeezing_bandwidth_hz", "sample_rate_hz", "duration_s"):
        if spectrum[key] <= 0.0:
            raise ConfigError(f"spectrum.{key}: must be > 0")
    # the lorentzian profile squares the half width, as the closed forms
    # square tone amplitudes
    half = 0.5 * spectrum["squeezing_bandwidth_hz"]
    if spectrum["profile"] == "lorentzian" and not sys.float_info.min <= half * half < math.inf:
        raise ConfigError(
            f"spectrum.squeezing_bandwidth_hz: {spectrum['squeezing_bandwidth_hz']!r} halved "
            "and squared is not a finite normal float (lorentzian profile)"
        )

    oracle_raw = raw.get("oracle", {})
    _require_keys(oracle_raw, "oracle", required=[], optional=list(_ORACLE_DEFAULTS))
    oracle = dict(_ORACLE_DEFAULTS)
    for key, value in oracle_raw.items():
        if key in ("draws", "max_dimension"):
            oracle[key] = _integer(value, f"oracle.{key}")
        else:
            oracle[key] = _number(value, f"oracle.{key}")
    if oracle["draws"] < 0:
        raise ConfigError("oracle.draws: must be >= 0")
    if oracle["max_dimension"] < 1:
        raise ConfigError("oracle.max_dimension: must be >= 1")
    if not 0.0 < oracle["target_leakage"] < 1.0:
        raise ConfigError(
            f"oracle.target_leakage: {oracle['target_leakage']!r} is outside (0, 1)"
        )
    for key in ("beta_cap_no_image", "beta_cap_shared", "beta_cap_two"):
        if oracle[key] <= 0.0:
            raise ConfigError(f"oracle.{key}: must be > 0")
        if oracle["draws"] > 0 and oracle[key] < ORACLE_DRAW_BETA_MIN:
            raise ConfigError(
                f"oracle.{key}: {oracle[key]!r} is below the draw floor "
                f"{ORACLE_DRAW_BETA_MIN:g} while oracle.draws > 0"
            )

    output_dir = raw.get("output_dir")
    if output_dir is not None and not isinstance(output_dir, str):
        raise ConfigError("output_dir: expected a string")

    resolved = {
        "frequency_plan": {
            "omega_plus_hz": plan.omega_plus / two_pi,
            "omega_minus_hz": plan.omega_minus / two_pi,
            "lo_hz": [f / two_pi for f in plan.lo_frequencies],
        },
        "squeeze": {"s": squeeze.s, "theta": squeeze.theta},
        "lo_tones": [{"amplitude": t.amplitude, "phase": t.phase} for t in tones],
        "seed": seed,
        "scan": {"n_points": scan_points},
        "imbalance": {"fractions": list(fractions)},
        "spectrum": spectrum,
        "oracle": oracle,
    }
    if len(tones) == 2:
        resolved["image_band_case"] = case_requested
    if output_dir is not None:
        resolved["output_dir"] = output_dir

    return ExperimentConfig(
        plan=plan,
        squeeze=squeeze,
        tones=tuple(tones),
        case=case,
        seed=seed,
        scan_points=scan_points,
        imbalance_fractions=fractions,
        spectrum=spectrum,
        oracle=oracle,
        resolved=resolved,
    )


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    return parse_config(raw)


def canonical_config_json(cfg: ExperimentConfig) -> str:
    """One-line canonical form embedded in every output header."""
    return json.dumps(cfg.resolved, sort_keys=True, separators=(",", ":"))
