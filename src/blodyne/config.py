"""Strict experiment configuration: JSON in, validated objects out.

The schema is documented in the README. Unknown keys anywhere in the file
are rejected with their JSON path, partly to catch typos and partly so that
the resolved config echoed into output headers re-parses to the same
experiment. Frequencies in the file are plain Hz; the single 2*pi conversion
to rad/s happens here.
"""

import json
import math
import sys

from .detection import (FrequencyPlan, ImageBandCase, LoTone, SqueezeParams, _Record,
                        classify_image_band_case)

FORMAT_VERSION = "blodyne-output/1"

# Spectral feature shapes a spectrum config may name (see timeseries.SpectralModel).
PROFILES = ("lorentzian", "flat_top")

_CASE_NAMES = {
    "auto": None,
    "none": ImageBandCase.NO_IMAGE_BANDS,
    "shared": ImageBandCase.SHARED_IMAGE_BAND,
    "two": ImageBandCase.TWO_IMAGE_BANDS,
}


class ConfigError(ValueError):
    """A structural or value problem in the configuration file."""


def _number(obj, path: str) -> float:
    if isinstance(obj, bool) or not isinstance(obj, (int, float)):
        raise ConfigError(f"{path}: expected a number, got {obj!r}")
    try:
        value = float(obj)
    except OverflowError:  # an integer literal beyond the float range
        value = math.inf
    if not math.isfinite(value):
        # json parses NaN, Infinity and out-of-range literals such as 1e400
        raise ConfigError(f"{path}: expected a finite number, got {obj!r}")
    return value


def _make(path: str, cls, *args):
    """cls(*args), with a ValueError it raises made a ConfigError naming path."""
    try:
        return cls(*args)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _read(obj, path: str, spec: dict) -> dict:
    """The JSON object ``obj`` at ``path`` ("" for the whole file), read by
    ``spec``, which maps each key the object takes to its default, or to a
    type where the key must be given. A value given is read as that type, or
    as its default is typed: an int as an integer, a float as a finite
    number, a list as a non-empty list of finite numbers, and a tuple of
    choices, whose first is the default, as one of them. Any other value, an
    object for one, is left to the caller."""
    where = path or "config"
    if not isinstance(obj, dict):
        raise ConfigError(f"{where}: expected an object")
    unknown = set(obj) - set(spec)
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")
    missing = [key for key, kind in spec.items() if isinstance(kind, type) and key not in obj]
    if missing:
        raise ConfigError(f"{where}: missing keys {missing}")
    values = {key: kind[0] if type(kind) is tuple else kind for key, kind in spec.items()}
    for key, value in obj.items():
        default, where = spec[key], f"{path}.{key}" if path else key
        kind = default if isinstance(default, type) else type(default)
        if kind is tuple:
            if value not in default:
                raise ConfigError(f"{where}: expected one of {list(default)}, got {value!r}")
        elif kind is list:
            if not isinstance(value, list) or not value:
                raise ConfigError(f"{where}: expected a non-empty list")
            value = [_number(v, f"{where}[{i}]") for i, v in enumerate(value)]
        elif kind is int:
            if isinstance(value, bool) or not isinstance(value, int):
                raise ConfigError(f"{where}: expected an integer, got {value!r}")
        elif kind is float:
            value = _number(value, where)
        values[key] = value
    return values


def _normal_square(x: float) -> bool:
    """Whether x * x is a finite normal float: the closed forms square the
    tone amplitudes, and the lorentzian profile its half width, and divide
    by the square."""
    return sys.float_info.min <= x * x < math.inf


_SPECTRUM_DEFAULTS = {
    "squeezing_bandwidth_hz": 5.0e4,
    "profile": PROFILES,
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

# verify holds every drawn point and its CSV line (about 450 bytes) and runs
# the oracle on each: a drawn check took 2.2 ms mean and 6.2 ms at most (192
# checks, 2-vCPU x86, Python 3.11), so the cap is about 2.4 minutes of oracle
# work, 7 at most, in about 30 MB
_MAX_ORACLE_DRAWS = 1 << 16

_ORACLE_DEFAULTS = {
    "draws": 12,
    "max_dimension": 100_000_000,
    "target_leakage": 1.0e-8,
    "beta_cap_no_image": 16.0,
    "beta_cap_shared": 12.0,
    "beta_cap_two": 10.0,
}


class ExperimentConfig(_Record):
    """A fully resolved experiment: physics objects plus run settings.

    ``case`` is None for a single-tone plan. The dict fields make it
    unhashable, and are left out of its repr. It validates nothing, so it
    keeps the base's ``__init__``.
    """

    __slots__ = ("plan", "squeeze", "tones", "case", "seed", "scan_points",
                 "imbalance_fractions", "spectrum", "oracle", "resolved")
    _repr_omit = ("spectrum", "oracle", "resolved")

    @property
    def two_tone(self) -> bool:
        return len(self.tones) == 2


def parse_config(raw: dict) -> ExperimentConfig:
    """Validate a parsed JSON object and build the experiment."""
    # the sections, and the lo_tones list of objects, are each read below
    top = _read(raw, "", {"frequency_plan": dict, "squeeze": dict, "lo_tones": object,
                          "image_band_case": tuple(_CASE_NAMES), "seed": 0, "scan": {},
                          "imbalance": {}, "spectrum": {}, "oracle": {}, "output_dir": None})

    fp = _read(top["frequency_plan"], "frequency_plan",
               {"omega_plus_hz": float, "omega_minus_hz": float, "lo_hz": list})
    two_pi = 2.0 * math.pi
    # _read's errors name their key; _make prefixes only the constructors'
    # own errors, the number of tones among them, with the section
    plan = _make("frequency_plan", FrequencyPlan, two_pi * fp["omega_plus_hz"],
                 two_pi * fp["omega_minus_hz"], tuple(two_pi * f for f in fp["lo_hz"]))

    sq = _read(top["squeeze"], "squeeze", {"s": float, "theta": 0.0})
    squeeze = _make("squeeze", SqueezeParams, sq["s"], sq["theta"])
    if 2.0 * squeeze.s >= _MAX_TWO_S:
        raise ConfigError(
            f"squeeze.s: {squeeze.s!r} overflows the squeeze factor exp(2s); "
            f"must be below {0.5 * _MAX_TWO_S:.6g}"
        )

    tones_raw = top["lo_tones"]
    if not isinstance(tones_raw, list) or len(tones_raw) != len(plan.lo_frequencies):
        raise ConfigError(
            f"lo_tones: expected {len(plan.lo_frequencies)} entries matching frequency_plan.lo_hz"
        )
    tones = []
    for i, tone_raw in enumerate(tones_raw):
        path = f"lo_tones[{i}]"
        tone = _read(tone_raw, path, {"amplitude": float, "phase": 0.0})
        tones.append(_make(path, LoTone, tone["amplitude"], tone["phase"]))
        amp = tones[-1].amplitude
        # an amplitude of 0 is left to the closed forms, which reject it as a
        # physics error
        if amp != 0.0 and not _normal_square(amp):
            raise ConfigError(f"{path}.amplitude: {amp!r} squared is not a finite normal float")

    case_requested = top["image_band_case"]
    case = _CASE_NAMES[case_requested]  # None for "auto"
    if len(tones) == 1:
        if case is not None:
            raise ConfigError("image_band_case applies only to two-tone plans")
    elif case is None:
        case = classify_image_band_case(plan)

    seed = top["seed"]
    if seed < 0:
        raise ConfigError("seed: must be >= 0")

    scan_points = _read(top["scan"], "scan", {"n_points": 72})["n_points"]
    if not 2 <= scan_points <= _MAX_SCAN_POINTS:
        raise ConfigError(f"scan.n_points: must lie in [2, {_MAX_SCAN_POINTS}]")

    fractions = _read(top["imbalance"], "imbalance",
                      {"fractions": [0.01, 0.02, 0.05, 0.1]})["fractions"]
    if any(not -1.0 < f for f in fractions):
        raise ConfigError("imbalance.fractions: each fraction must exceed -1")
    for i, f in enumerate(fractions):
        if f * f == math.inf:
            raise ConfigError(f"imbalance.fractions[{i}]: {f!r} squared overflows a float")

    spectrum = _read(top["spectrum"], "spectrum", _SPECTRUM_DEFAULTS)
    seg = spectrum["segment_length"]
    if seg < 4 or seg & (seg - 1):
        raise ConfigError(f"spectrum.segment_length: {seg!r} is not a power of two >= 4")
    if not 0.0 <= spectrum["overlap"] <= 0.9:
        raise ConfigError(f"spectrum.overlap: {spectrum['overlap']!r} is outside [0, 0.9]")
    for key in ("squeezing_bandwidth_hz", "sample_rate_hz", "duration_s"):
        if spectrum[key] <= 0.0:
            raise ConfigError(f"spectrum.{key}: must be > 0")
    if spectrum["profile"] == "lorentzian" and not _normal_square(
            0.5 * spectrum["squeezing_bandwidth_hz"]):
        raise ConfigError(
            f"spectrum.squeezing_bandwidth_hz: {spectrum['squeezing_bandwidth_hz']!r} halved "
            "and squared is not a finite normal float (lorentzian profile)"
        )

    oracle = _read(top["oracle"], "oracle", _ORACLE_DEFAULTS)
    if not 0 <= oracle["draws"] <= _MAX_ORACLE_DRAWS:
        raise ConfigError(f"oracle.draws: must lie in [0, {_MAX_ORACLE_DRAWS}]")
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

    output_dir = top["output_dir"]
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

    return ExperimentConfig(plan, squeeze, tuple(tones), case, seed, scan_points,
                            tuple(fractions), spectrum, oracle, resolved)


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except (ValueError, RecursionError) as exc:
        # an integer literal beyond the int-string digit limit, or nesting
        # deeper than the recursion limit
        raise ConfigError(f"{path}: cannot parse: {exc}") from exc
    return parse_config(raw)


def fmt(x: float) -> str:
    """``x`` at full round-trip precision: the number format of every output."""
    return f"{x:.17g}"


def header_lines(cfg: ExperimentConfig, *notes: str) -> list[str]:
    """The comment lines that head an output: the format version, the
    one-line canonical resolved config, then ``notes``, each after ``# ``."""
    config = json.dumps(cfg.resolved, sort_keys=True, separators=(",", ":"))
    return [f"# {line}" for line in (f"format_version: {FORMAT_VERSION}", f"config: {config}",
                                     *notes)]
