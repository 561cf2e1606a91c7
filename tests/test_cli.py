import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import warnings

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from blodyne.cli import COMMANDS, main, parse_args, positive_float
from blodyne.config import ConfigError, load_config, parse_config
from blodyne.timeseries import PROFILES, SpectralModel

BASE_CONFIG = {
    "frequency_plan": {
        "omega_plus_hz": 300.000005e12,
        "omega_minus_hz": 299.999995e12,
        "lo_hz": [299.9999975e12, 300.0000025e12],
    },
    "squeeze": {"s": 0.5, "theta": 0.3},
    "lo_tones": [{"amplitude": 2.0, "phase": 0.2}, {"amplitude": 2.0, "phase": 1.0}],
    "seed": 11,
}


def write_config(tmp_path, overrides=None, name="exp.json"):
    cfg = json.loads(json.dumps(BASE_CONFIG))
    for key, value in (overrides or {}).items():
        if value is None:
            cfg.pop(key, None)
        else:
            cfg[key] = value
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def run(capsys, args):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestConfigParsing:
    def test_unknown_top_level_key(self, tmp_path):
        path = write_config(tmp_path, {"bogus": 1})
        with pytest.raises(ConfigError, match="bogus"):
            load_config(path)

    def test_unknown_nested_key(self, tmp_path):
        path = write_config(tmp_path, {"squeeze": {"s": 0.5, "sq": 1}})
        with pytest.raises(ConfigError, match="squeeze"):
            load_config(path)

    def test_missing_key(self, tmp_path):
        path = write_config(tmp_path, {"squeeze": None})
        with pytest.raises(ConfigError, match="missing"):
            load_config(path)

    def test_bad_json_reports_location(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{\n  'single': 1\n}")
        with pytest.raises(ConfigError, match="line 2"):
            load_config(str(path))

    def test_tone_count_must_match_lo_count(self, tmp_path):
        path = write_config(tmp_path, {"lo_tones": [{"amplitude": 1.0}]})
        with pytest.raises(ConfigError, match="lo_tones"):
            load_config(path)

    def test_auto_case_classifies_shared(self, tmp_path):
        cfg = load_config(write_config(tmp_path))
        assert cfg.case is not None and cfg.case.value == "SharedImageBand"

    def test_explicit_case_override(self, tmp_path):
        cfg = load_config(write_config(tmp_path, {"image_band_case": "two"}))
        assert cfg.case.value == "TwoImageBands"

    def test_invalid_plan_is_config_error(self, tmp_path):
        bad = json.loads(json.dumps(BASE_CONFIG))
        bad["frequency_plan"]["lo_hz"] = [299.999989e12, 300.000011e12]  # beyond delta/2
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        with pytest.raises(ConfigError, match="detunings"):
            load_config(str(path))


class TestConfigValues:
    """Out-of-range values exit 2 and name their key."""

    @staticmethod
    def expect_config_error(tmp_path, capsys, key, overrides=None, text=None):
        path = write_config(tmp_path, overrides)
        if text is not None:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        code, _, err = run(capsys, ["verify", "--config", path])
        assert code == 2
        assert "config error" in err and key in err

    def test_nan_theta(self, tmp_path, capsys):
        self.expect_config_error(tmp_path, capsys, "squeeze.theta",
                                 {"squeeze": {"s": 0.5, "theta": float("nan")}})

    def test_infinite_phase(self, tmp_path, capsys):
        self.expect_config_error(tmp_path, capsys, "lo_tones[0].phase", {
            "lo_tones": [{"amplitude": 2.0, "phase": float("inf")},
                         {"amplitude": 2.0, "phase": 1.0}],
        })

    def test_out_of_range_literal(self, tmp_path, capsys):
        text = json.dumps(BASE_CONFIG).replace('"amplitude": 2.0', '"amplitude": 1e400', 1)
        self.expect_config_error(tmp_path, capsys, "lo_tones[0].amplitude", text=text)

    def test_frequency_overflowing_in_rad_per_s(self, tmp_path, capsys):
        # 1e308 Hz is finite, but 2 pi times it is not
        self.expect_config_error(tmp_path, capsys, "frequency_plan", {"frequency_plan": {
            "omega_plus_hz": 1e308, "omega_minus_hz": 299.999995e12, "lo_hz": [300.0e12]}})

    @pytest.mark.parametrize("key,old,new", [
        # beyond the float range as an integer literal, like 1e400
        ("squeeze.s", '"s": 0.5', '"s": 1' + "0" * 400),
        # beyond the int-string digit limit of json
        ("exp.json", '"seed": 11', '"seed": 1' + "0" * 5000),
        # nested deeper than the recursion limit
        ("exp.json", '"seed": 11', '"seed": ' + "[" * 100_000 + "]" * 100_000),
    ], ids=["int_beyond_float", "int_digit_limit", "deep_nesting"])
    def test_unparseable_integer_or_nesting(self, tmp_path, capsys, key, old, new):
        text = json.dumps(BASE_CONFIG).replace(old, new, 1)
        self.expect_config_error(tmp_path, capsys, key, text=text)

    def test_squeeze_overflow(self, tmp_path, capsys):
        self.expect_config_error(tmp_path, capsys, "squeeze.s",
                                 {"squeeze": {"s": 400.0, "theta": 0.0}})

    def test_negative_draws(self, tmp_path, capsys):
        self.expect_config_error(tmp_path, capsys, "oracle.draws", {"oracle": {"draws": -3}})

    @pytest.mark.parametrize("cap", [0.0, -2.0])
    def test_non_positive_cap(self, tmp_path, capsys, cap):
        self.expect_config_error(tmp_path, capsys, "oracle.beta_cap_shared",
                                 {"oracle": {"draws": 0, "beta_cap_shared": cap}})

    def test_cap_below_draw_floor(self, tmp_path, capsys):
        self.expect_config_error(tmp_path, capsys, "oracle.beta_cap_two",
                                 {"oracle": {"draws": 2, "beta_cap_two": 1.0}})

    def test_cap_below_floor_without_draws(self, tmp_path):
        path = write_config(tmp_path, {"oracle": {"draws": 0, "beta_cap_two": 4.5}})
        assert load_config(path).oracle["beta_cap_two"] == 4.5

    @pytest.mark.parametrize("section,key,value", [
        ("oracle", "target_leakage", 0.0),
        ("oracle", "target_leakage", 1.0),
        ("oracle", "target_leakage", -1e-8),
        ("oracle", "max_dimension", 0),
        ("spectrum", "segment_length", 2),
        ("spectrum", "segment_length", 1000),
        ("spectrum", "overlap", -0.1),
        ("spectrum", "overlap", 0.95),
        ("spectrum", "squeezing_bandwidth_hz", 0.0),
        ("spectrum", "sample_rate_hz", -1.0),
        ("spectrum", "duration_s", 0.0),
        ("scan", "n_points", 2**36),
    ])
    def test_out_of_range_run_setting(self, tmp_path, capsys, section, key, value):
        path = write_config(tmp_path, {"frequency_plan": PLAN_100KHZ,
                                       section: {key: value}})
        cmd = "verify" if section == "oracle" else "spectrum"
        code, out, err = run(capsys, [cmd, "--config", path])
        assert code == 2
        assert out == ""
        assert "config error" in err and f"{section}.{key}" in err

    @pytest.mark.parametrize("section,key", [
        ("frequency_plan", "omega_plus_hz"), ("squeeze", "s"), ("lo_tones[0]", "amplitude"),
    ])
    def test_number_error_names_its_key_once(self, tmp_path, capsys, section, key):
        cfg = json.loads(json.dumps(BASE_CONFIG))
        (cfg["lo_tones"][0] if section == "lo_tones[0]" else cfg[section])[key] = "HUGE"
        path = tmp_path / "exp.json"
        # an integer literal beyond the float range
        path.write_text(json.dumps(cfg).replace('"HUGE"', "1" + "0" * 400))
        code, _, err = run(capsys, ["variance", "--config", str(path)])
        assert code == 2
        assert err.startswith(f"config error: {section}.{key}: expected a finite number")
        assert err.count(section) == 1

    @pytest.mark.parametrize("key,overrides", [
        pytest.param("scan", {"scan": [72]}, id="section_not_an_object"),
        pytest.param("squeeze.s", {"squeeze": {"s": "0.5"}}, id="not_a_number"),
        pytest.param("scan.n_points", {"scan": {"n_points": 7.5}}, id="not_an_integer"),
        pytest.param("frequency_plan.lo_hz",
                     {"frequency_plan": dict(BASE_CONFIG["frequency_plan"], lo_hz=300.0e12)},
                     id="lo_hz_not_a_list"),
        pytest.param("image_band_case", {"image_band_case": "three"}, id="unknown_case"),
        pytest.param("image_band_case", {
            "frequency_plan": dict(BASE_CONFIG["frequency_plan"], lo_hz=[300.0e12]),
            "lo_tones": [{"amplitude": 2.0}], "image_band_case": "two",
        }, id="case_on_single_tone"),
        pytest.param("seed", {"seed": -1}, id="negative_seed"),
        pytest.param("imbalance.fractions", {"imbalance": {"fractions": []}},
                     id="empty_fractions"),
        pytest.param("imbalance.fractions", {"imbalance": {"fractions": 0.1}},
                     id="fractions_not_a_list"),
        pytest.param("imbalance.fractions", {"imbalance": {"fractions": [0.1, -1.0]}},
                     id="fraction_at_minus_one"),
        pytest.param("spectrum.profile", {"spectrum": {"profile": "gaussian"}},
                     id="unknown_profile"),
        pytest.param("output_dir", {"output_dir": 3}, id="output_dir_not_a_string"),
        # no config is written: the path names a file that does not exist
        pytest.param("missing.json", None, id="unreadable_path"),
    ])
    def test_rejected_value(self, tmp_path, capsys, key, overrides):
        path = str(tmp_path / key) if overrides is None else write_config(tmp_path, overrides)
        code, out, err = run(capsys, ["verify", "--config", path])
        assert code == 2
        assert out == ""
        assert err.startswith("config error: ") and key in err


def tone_pair(amplitude):
    return [{"amplitude": amplitude, "phase": 0.2}, {"amplitude": amplitude, "phase": 1.0}]


SINGLE_TONE_PLAN = {
    "omega_plus_hz": 300.000005e12,
    "omega_minus_hz": 299.999995e12,
    "lo_hz": [300.0e12],
}


class TestSquaredMagnitudes:
    """Amplitudes and fractions enter the closed forms squared: a square that
    overflows, or falls below the normal float range, exits 2 naming its key;
    a report whose lo_flux_ratio still overflows exits 3."""

    @staticmethod
    def expect_exit(tmp_path, capsys, cmd, code, key, overrides):
        path = write_config(tmp_path, overrides)
        got, out, err = run(capsys, [cmd, "--config", path])
        assert got == code
        assert key in err and "inf" not in out

    @pytest.mark.parametrize("cmd", ["variance", "scan", "cases", "imbalance", "spectrum"])
    def test_amplitude_square_overflows(self, tmp_path, capsys, cmd):
        self.expect_exit(tmp_path, capsys, cmd, 2, "lo_tones[0].amplitude",
                         {"lo_tones": tone_pair(1e200)})

    @pytest.mark.parametrize("cmd", ["variance", "scan", "cases", "imbalance", "spectrum"])
    def test_amplitude_square_underflows(self, tmp_path, capsys, cmd):
        self.expect_exit(tmp_path, capsys, cmd, 2, "lo_tones[0].amplitude",
                         {"lo_tones": tone_pair(1e-300)})

    @pytest.mark.parametrize("cmd", ["variance", "scan"])
    def test_single_tone_subnormal_square(self, tmp_path, capsys, cmd):
        self.expect_exit(tmp_path, capsys, cmd, 2, "lo_tones[0].amplitude",
                         {"frequency_plan": SINGLE_TONE_PLAN,
                          "lo_tones": [{"amplitude": 1e-160}]})

    @pytest.mark.parametrize("cmd", ["variance", "scan", "cases", "imbalance"])
    def test_flux_ratio_overflow_is_invariant_violation(self, tmp_path, capsys, cmd):
        # |beta|^2 is a normal float, but sinh^2(2) / |beta|^2 is not finite
        self.expect_exit(tmp_path, capsys, cmd, 3, "lo_flux_ratio",
                         {"squeeze": {"s": 2.0, "theta": 0.3},
                          "lo_tones": tone_pair(1.5e-154)})

    def test_fraction_square_overflows(self, tmp_path, capsys):
        self.expect_exit(tmp_path, capsys, "imbalance", 2, "imbalance.fractions[1]",
                         {"imbalance": {"fractions": [0.1, 1e200]}})


NO_IMAGE_PLAN = {
    "omega_plus_hz": 300.000005e12,
    "omega_minus_hz": 299.999995e12,
    "lo_hz": [299.999995e12, 300.000005e12],
}


# Lorentzian bandwidths whose half squared leaves the normal floats: the first
# overflows, the second underflows to 0, which made the DC bin of a DC feature 0/0
LORENTZIAN_EDGES = [
    {"frequency_plan": BASE_CONFIG["frequency_plan"],
     "spectrum": {"squeezing_bandwidth_hz": 1e200, "sample_rate_hz": 1e202,
                  "duration_s": 1e-199}},
    {"frequency_plan": NO_IMAGE_PLAN,
     "spectrum": {"squeezing_bandwidth_hz": 1e-170, "sample_rate_hz": 2.0**25,
                  "duration_s": 2.0**-13, "segment_length": 256}},
]


class TestLorentzianBandwidth:
    """The lorentzian profile squares half the bandwidth: a square that
    overflows, or falls below the normal float range, exits 2 naming the key;
    flat_top squares nothing."""

    @pytest.mark.parametrize("overrides", LORENTZIAN_EDGES)
    def test_square_leaves_the_normal_range(self, tmp_path, capsys, overrides):
        path = write_config(tmp_path, overrides)
        code, out, err = run(capsys, ["spectrum", "--config", path])
        assert code == 2
        assert out == ""
        assert "config error" in err and "spectrum.squeezing_bandwidth_hz" in err

    def test_flat_top_takes_any_positive_bandwidth(self, tmp_path, capsys):
        edge = LORENTZIAN_EDGES[1]
        path = write_config(tmp_path, dict(edge, spectrum=dict(edge["spectrum"],
                                                               profile="flat_top")))
        code, _, _ = run(capsys, ["spectrum", "--config", path])
        assert code == 0

    def test_detuning_square_overflow_is_silent(self, tmp_path, capsys):
        # (bw/2)^2 is normal, but the squared detuning of the top bins is not
        # finite: the profile is 0 there, with no numpy warning
        path = write_config(tmp_path, {
            "frequency_plan": SINGLE_TONE_PLAN, "lo_tones": [{"amplitude": 1.0}],
            "spectrum": {"squeezing_bandwidth_hz": 1e154, "sample_rate_hz": 2.0**515,
                         "duration_s": 2.0**-503, "segment_length": 256}})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _, _ = run(capsys, ["spectrum", "--config", path])
        assert code == 0

    @pytest.mark.parametrize("bandwidth", [1e200, 1e-170])
    def test_model_rejects_the_bandwidth(self, bandwidth):
        with pytest.raises(ValueError, match="lorentzian"):
            SpectralModel(center_frequency=0.0, squeezing_bandwidth=bandwidth,
                          noise_floor=1.0, dip_or_peak_level=0.5)


# Every number a config holds stays in its working range, except for one or two
# drawn anywhere in the finite floats; the edges of the float range are drawn
# often there, since squares and ratios of them leave the range.
FLOAT_EDGES = [0.0, -0.0, 5e-324, sys.float_info.min, 1e-300, 1e-160, 1.5e-154,
               1e154, 1e200, sys.float_info.max, -sys.float_info.max]
ANY_FINITE = st.one_of(st.sampled_from(FLOAT_EDGES),
                       st.floats(allow_nan=False, allow_infinity=False))
CONFIG_NUMBERS = ["omega_plus", "omega_minus", "lo0", "lo1", "amplitude0", "amplitude1",
                  "phase0", "phase1", "s", "theta", "fraction", "bandwidth"]


@st.composite
def generated_configs(draw):
    """Configs around the canonical plan: modes 10 MHz apart at 300 THz."""
    wild = draw(st.sets(st.sampled_from(CONFIG_NUMBERS), min_size=1, max_size=2))

    def number(name, lo, hi):
        return draw(ANY_FINITE if name in wild else st.floats(lo, hi))

    n_tones = draw(st.sampled_from([1, 2]))
    plus, minus = 300.000005e12, 299.999995e12
    omega_plus = number("omega_plus", plus - 0.5e6, plus + 0.5e6)
    omega_minus = number("omega_minus", minus - 0.5e6, minus + 0.5e6)
    if n_tones == 1:
        lo_hz = [number("lo0", minus + 1.0e6, plus - 1.0e6)]
    else:
        lo_hz = [number(f"lo{k}", f - 3.0e6, f + 3.0e6) for k, f in enumerate((minus, plus))]
        # opposite detunings half the time, since only those reach the
        # two-tone formulas (any other plan exits 3)
        if "lo1" not in wild and draw(st.booleans()):
            lo_hz[1] = omega_plus + omega_minus - lo_hz[0]
            # a quarter of the time the tones sit on the signal modes: the
            # no-image plan, whose spectral feature is at DC
            if "lo0" not in wild and draw(st.booleans()):
                lo_hz = [omega_minus, omega_plus]
    amplitudes = [number(f"amplitude{k}", 0.0, 50.0) for k in range(n_tones)]
    if draw(st.booleans()):
        amplitudes = [amplitudes[0]] * n_tones
    # the smallest power of two above the spectrum's Nyquist need (clamped so
    # rate and duration stay normal floats), and 2^12 samples at that rate
    bandwidth = number("bandwidth", 1e3, 1e6)
    center = abs(lo_hz[0] - omega_minus) if n_tones == 2 else 0.5 * abs(omega_plus - omega_minus)
    exponent = min(max(math.frexp(2.0 * (center + 5.0 * bandwidth))[1], -1000), 1000)
    cfg = {
        "frequency_plan": {
            "omega_plus_hz": omega_plus,
            "omega_minus_hz": omega_minus,
            "lo_hz": lo_hz,
        },
        "squeeze": {"s": number("s", 0.0, 5.0), "theta": number("theta", -10.0, 10.0)},
        "lo_tones": [{"amplitude": a, "phase": number(f"phase{k}", -10.0, 10.0)}
                     for k, a in enumerate(amplitudes)],
        "scan": {"n_points": 5},
        "imbalance": {"fractions": [number("fraction", -0.99, 1.0),
                                    draw(st.floats(-0.99, 1.0))]},
        # verify checks the configured point only
        "spectrum": {"squeezing_bandwidth_hz": bandwidth,
                     "profile": draw(st.sampled_from(PROFILES)),
                     "sample_rate_hz": math.ldexp(1.0, exponent),
                     "duration_s": math.ldexp(1.0, 12 - exponent),
                     "segment_length": 256},
        "oracle": {"draws": 0},
    }
    if n_tones == 2:
        cfg["image_band_case"] = draw(st.sampled_from(["auto", "none", "shared", "two"]))
    return cfg


NON_FINITE = re.compile(r"(?<![a-z])(inf|nan)(?![a-z])")


# the generator reaches the lorentzian edges only now and then; pinned, every
# run checks them
@example(raw=dict(BASE_CONFIG, oracle={"draws": 0}, **LORENTZIAN_EDGES[0]))
@example(raw=dict(BASE_CONFIG, oracle={"draws": 0}, **LORENTZIAN_EDGES[1]))
@settings(max_examples=300, deadline=None)
@given(raw=generated_configs())
def test_generated_configs_keep_the_exit_code_contract(tmp_path_factory, raw):
    path = tmp_path_factory.getbasetemp() / "generated.json"
    path.write_text(json.dumps(raw))
    for cmd in ("variance", "scan", "cases", "imbalance", "spectrum", "verify"):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([cmd, "--config", str(path)])
        assert code in (0, 2, 3, 4), cmd
        if code == 0:
            assert not NON_FINITE.search(out.getvalue().lower()), cmd
        elif code == 2:
            assert err.getvalue().startswith("config error"), cmd


class TestExitCodes:
    def test_config_error_exits_2(self, tmp_path, capsys):
        path = write_config(tmp_path, {"bogus": 1})
        code, _, err = run(capsys, ["variance", "--config", path])
        assert code == 2
        assert "config error" in err

    def test_invariant_violation_exits_3(self, tmp_path, capsys):
        path = write_config(tmp_path, {
            "lo_tones": [{"amplitude": 1.0, "phase": 0.0},
                         {"amplitude": 2.0, "phase": 0.0}],
        })
        code, _, err = run(capsys, ["cases", "--config", path])
        assert code == 3
        assert "invariant violation" in err

    def test_oracle_disagreement_exits_4(self, tmp_path, capsys):
        path = write_config(tmp_path, {"oracle": {"draws": 1, "beta_cap_two": 6.0,
                                                  "beta_cap_shared": 6.0,
                                                  "beta_cap_no_image": 6.0}})
        code, _, err = run(capsys, ["verify", "--config", path, "--tolerance", "1e-12"])
        assert code == 4
        assert "oracle mismatch" in err

    def test_config_not_utf8_exits_2(self, tmp_path, capsys):
        path = tmp_path / "exp.json"
        path.write_bytes(b"\xff\xfe{}")
        code, out, err = run(capsys, ["variance", "--config", str(path)])
        assert code == 2
        assert out == ""
        assert err.startswith("config error: ") and "exp.json" in err and "UTF-8" in err

    @pytest.mark.parametrize("cmd", ["variance", "spectrum"])
    @pytest.mark.parametrize("source", ["--output-dir", "config output_dir"])
    def test_unwritable_output_dir_exits_2(self, tmp_path, capsys, cmd, source):
        # no directory can be made under a regular file
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        out_dir = str(blocker / "out")
        overrides = {"frequency_plan": PLAN_100KHZ, "spectrum": {"duration_s": 0.03125}}
        args = [cmd]
        if source == "--output-dir":
            args += ["--output-dir", out_dir]
        else:
            overrides["output_dir"] = out_dir
        args += ["--config", write_config(tmp_path, overrides)]
        code, out, err = run(capsys, args)
        assert code == 2
        assert out == ""
        assert err.startswith(f"config error: {source} {out_dir!r}: cannot write")

    @pytest.mark.parametrize("tolerance", ["nan", "inf", "0", "-1"])
    def test_tolerance_must_be_finite_and_positive(self, tmp_path, capsys, tolerance):
        # nan and inf would pass any error, 0 and -1 none
        path = write_config(tmp_path, {"oracle": {"draws": 0}})
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--config", path, "--tolerance", tolerance])
        assert exc.value.code == 2
        assert "--tolerance" in capsys.readouterr().err


def argparse_reference(argv):
    """The command line as the argparse parser it replaced reads it."""
    parser = argparse.ArgumentParser(prog="blodyne")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True)
    parser.add_argument("--output-dir", default=None)
    parser.add_argument("--tolerance", type=positive_float, default=0.01)
    args = parser.parse_args(argv)
    return args.command, args.config, args.output_dir, args.tolerance


def parse_outcome(parse, argv):
    """The exit status of a parse that exits (0 help, 2 error), else what it read."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return parse(argv)
        except SystemExit as exc:
            return exc.code


GRAMMAR_VALUES = ["a.json", "", "-1", "0", "nan", "1e-3"]
# each option by every unique prefix, down to "--" and one letter
GRAMMAR_FLAGS = [flag[:n] for flag in ("--config", "--output-dir", "--tolerance", "--help")
                 for n in range(3, len(flag) + 1)]
GRAMMAR_TOKENS = st.one_of(
    st.sampled_from([*COMMANDS, "bogus", *GRAMMAR_VALUES, "--", "-h", "-x", "--bogus"]),
    st.sampled_from(GRAMMAR_FLAGS),
    st.builds("{}={}".format, st.sampled_from(GRAMMAR_FLAGS), st.sampled_from(GRAMMAR_VALUES)),
)


# the order of evaluation: a bad command fails before a later -h, an unknown
# option does not; an option refuses an option as its value but takes a
# negative number; "--" ends the options
@example(argv=["bogus", "-h"])
@example(argv=["--bogus", "-h"])
@example(argv=["--config", "-x", "variance"])
@example(argv=["--config", "-1", "variance"])
@example(argv=["--tol=1e-3", "--conf", "a.json", "--", "verify"])
@example(argv=["variance", "--config", "a.json", "--"])
@example(argv=["--config", "a.json", "variance", "--"])
@example(argv=["scan", "--config=a.json", "--config", "b.json", "--output-dir="])
@settings(max_examples=1000, deadline=None)
@given(argv=st.lists(GRAMMAR_TOKENS, max_size=6))
def test_command_line_grammar_matches_argparse(argv):
    assert parse_outcome(parse_args, argv) == parse_outcome(argparse_reference, argv)


@pytest.mark.parametrize("flag", ["-h", "--help", "--he"])
def test_help_lists_commands_and_options(capsys, flag):
    with pytest.raises(SystemExit) as exc:
        main(["variance", flag, "--bogus"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert all(word in out for word in (*COMMANDS, "--config", "--output-dir", "--tolerance"))


@pytest.mark.parametrize("argv,message", [
    (["bogus", "--config", "a.json"], "argument command: invalid choice: 'bogus'"),
    (["variance", "--config"], "argument --config: expected one argument"),
    (["variance", "--config", "a.json", "--bogus"], "unrecognized arguments: --bogus"),
    (["variance"], "the following arguments are required: --config"),
    (["variance", "--=a.json"], "ambiguous option: --=a.json could match --help, --config"),
])
def test_usage_error_names_the_argument(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert captured.out == ""
    assert lines[0].startswith("usage: blodyne ") and lines[-1].startswith(f"blodyne: error: {message}")


class TestOutputs:
    def test_headers_and_determinism(self, tmp_path, capsys):
        path = write_config(tmp_path)
        code1, out1, _ = run(capsys, ["variance", "--config", path])
        code2, out2, _ = run(capsys, ["variance", "--config", path])
        assert code1 == code2 == 0
        assert out1 == out2  # byte identical
        assert out1.startswith("# format_version: blodyne-output/1")

    def test_config_round_trip_from_header(self, tmp_path, capsys):
        path = write_config(tmp_path)
        _, out, _ = run(capsys, ["variance", "--config", path])
        line = next(l for l in out.splitlines() if l.startswith("# config: "))
        echoed = json.loads(line[len("# config: "):])
        reparsed = parse_config(echoed)
        assert reparsed.resolved == load_config(path).resolved

    def test_angles_reducing_to_zero_echo_one_header(self, tmp_path, capsys):
        # -2 pi and -0.0 leave a remainder of -0.0, which must echo as 0.0
        outs = []
        for theta, phase in ((0, 0.0), (-2.0 * math.pi, -0.0)):
            path = write_config(tmp_path, {
                "squeeze": {"s": 0.5, "theta": theta},
                "lo_tones": [{"amplitude": 2.0, "phase": phase},
                             {"amplitude": 2.0, "phase": 1.0}],
            })
            code, out, _ = run(capsys, ["variance", "--config", path])
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1]
        assert '"phase":0.0' in outs[1] and '"theta":0.0' in outs[1]

    def test_cases_table_headline_numbers(self, tmp_path, capsys):
        path = write_config(tmp_path, {
            "squeeze": {"s": 10.0, "theta": 0.0},
            "lo_tones": [{"amplitude": 1.0, "phase": 0.0},
                         {"amplitude": 1.0, "phase": 0.0}],
        })
        code, out, _ = run(capsys, ["cases", "--config", path])
        assert code == 0
        shared = next(l for l in out.splitlines() if l.startswith("SharedImageBand"))
        assert "floor 2.000000008" in shared
        assert "-6.02 dB vs 8" in shared
        two = next(l for l in out.splitlines() if l.startswith("TwoImageBands"))
        assert "-3.01 dB vs 8" in two

    def test_scan_flat_at_zero_squeeze(self, tmp_path, capsys):
        path = write_config(tmp_path, {"squeeze": {"s": 0.0, "theta": 0.0},
                                       "scan": {"n_points": 12}})
        code, out, _ = run(capsys, ["scan", "--config", path])
        assert code == 0
        rows = [l for l in out.splitlines() if not l.startswith("#")][1:]
        variances = {row.split(",")[1] for row in rows}
        assert len(rows) == 12
        assert len(variances) == 1  # byte-identical variance column

    def test_imbalance_columns(self, tmp_path, capsys):
        path = write_config(tmp_path)
        code, out, _ = run(capsys, ["imbalance", "--config", path])
        assert code == 0
        rows = [l for l in out.splitlines() if not l.startswith("#")]
        assert rows[0] == "delta_beta_fraction,variance,excess_over_scaled_matched,db_vs_baseline"
        assert len(rows) == 5

    def test_spectrum_writes_artifacts(self, tmp_path, capsys):
        out_dir = tmp_path / "artifacts"
        path = write_config(tmp_path, {
            # 100 kHz detunings keep the beat feature inside the default band
            "frequency_plan": {
                "omega_plus_hz": 300.000005e12,
                "omega_minus_hz": 299.999995e12,
                "lo_hz": [299.9999951e12, 300.0000049e12],
            },
            "spectrum": {"duration_s": 0.05, "segment_length": 1024},
        })
        code, out, _ = run(capsys, ["spectrum", "--config", path,
                                    "--output-dir", str(out_dir)])
        assert code == 0
        assert "feature:" in out
        csv_text = (out_dir / "spectrum.csv").read_text()
        assert csv_text.startswith("# format_version:")
        assert "frequency_hz,psd_variance_per_hz" in csv_text
        doc = json.loads((out_dir / "spectrum.json").read_text())
        assert doc["format_version"] == "blodyne-output/1"
        assert doc["spectrum"]["schema"] == "blodyne.spectrum_estimate/2"
        summary = (out_dir / "spectrum_summary.txt").read_text()
        assert summary == out

    def test_spectrum_feature_matches_prediction(self, tmp_path, capsys):
        path = write_config(tmp_path, {
            "frequency_plan": {
                "omega_plus_hz": 300.000005e12,
                "omega_minus_hz": 299.999995e12,
                "lo_hz": [299.9999951e12, 300.0000049e12],
            },
            "squeeze": {"s": 10.0, "theta": 0.0},
            "lo_tones": [{"amplitude": 1.0, "phase": math.pi},
                         {"amplitude": 1.0, "phase": 0.0}],
            "spectrum": {"duration_s": 0.25, "segment_length": 2048},
        })
        code, out, _ = run(capsys, ["spectrum", "--config", path])
        assert code == 0
        feature_line = next(l for l in out.splitlines() if l.startswith("feature:"))
        depth = float(feature_line.split("depth_db")[1])
        assert depth == pytest.approx(-3.0103, abs=0.5)

    def test_verify_passes_at_default_tolerance(self, tmp_path, capsys):
        path = write_config(tmp_path, {"oracle": {"draws": 2, "beta_cap_two": 7.0,
                                                  "beta_cap_shared": 7.0,
                                                  "beta_cap_no_image": 7.0}})
        code, out, _ = run(capsys, ["verify", "--config", path])
        assert code == 0
        assert "max_relative_error" in out

    def test_overflowing_variance_is_invariant_violation(self, tmp_path, capsys):
        # every squeeze factor is finite, but 4 |beta|^2 exp(2s) is not
        path = write_config(tmp_path, {"squeeze": {"s": 354.0, "theta": 0.3}})
        code, out, err = run(capsys, ["variance", "--config", path])
        assert code == 3
        assert "finite" in err and "inf" not in out

    def test_verify_guard_runs_before_any_state_is_built(self, tmp_path):
        # the LO at |beta| = 200 is 41611^2 amplitudes (26 GB): the guard
        # refuses it before allocating, so a 3 GiB address-space limit holds
        path = write_config(tmp_path, {"lo_tones": tone_pair(200.0),
                                       "oracle": {"draws": 0, "beta_cap_no_image": 200.0,
                                                  "beta_cap_shared": 200.0,
                                                  "beta_cap_two": 200.0}})
        probe = ("import resource, sys; "
                 "resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30)); "
                 "from blodyne.cli import main; sys.exit(main(sys.argv[1:]))")
        # one BLAS thread keeps the interpreter's own reservations small
        env = dict(src_env(), OPENBLAS_NUM_THREADS="1")
        result = subprocess.run([sys.executable, "-c", probe, "verify", "--config", path],
                                capture_output=True, text=True, env=env)
        assert result.returncode == 3, result.stderr
        assert "guard" in result.stderr

    def test_verify_strong_tone_fits_in_a_small_address_space(self, tmp_path):
        # |beta| = 95 passes the guard (padded LO 9797^2 < 1e8 amplitudes),
        # and the oracle holds one vector per tone, never that dense LO
        path = write_config(tmp_path, {"lo_tones": tone_pair(95.0), "image_band_case": "none",
                                       "oracle": {"draws": 0, "beta_cap_no_image": 95.0}})
        probe = ("import resource, sys; "
                 "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)); "
                 "from blodyne.cli import main; sys.exit(main(sys.argv[1:]))")
        env = dict(src_env(), OPENBLAS_NUM_THREADS="1")
        result = subprocess.run([sys.executable, "-c", probe, "verify", "--config", path],
                                capture_output=True, text=True, env=env)
        assert result.returncode == 0, result.stderr
        rows = [line for line in result.stdout.splitlines() if line.startswith("0,NoImageBands,")]
        assert len(rows) == 1 and float(rows[0].split(",")[-1]) < 0.01

    @pytest.mark.parametrize("overrides,reason", [
        # 1e600 requested samples: the count is compared before any power of two
        ({"spectrum": {"duration_s": 1e300, "sample_rate_hz": 1e300}}, "memory guard"),
        # the dip level ~1e300 is finite, its product with n * fs is not
        ({"squeeze": {"s": 345.0, "theta": 0.3}, "lo_tones": tone_pair(1.0)}, "overflows"),
    ])
    def test_spectrum_overflow_is_invariant_violation(self, tmp_path, capsys, overrides,
                                                      reason):
        path = write_config(tmp_path, dict(overrides, frequency_plan=PLAN_100KHZ))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, ["spectrum", "--config", path])
        assert code == 3
        assert out == "" and reason in err

    def test_verify_beyond_tanh_precision(self, tmp_path, capsys):
        # tanh(s) rounds to 1: the configured point is skipped, not a crash
        path = write_config(tmp_path, {"squeeze": {"s": 20.0, "theta": 0.0},
                                       "oracle": {"draws": 0}})
        code, out, _ = run(capsys, ["verify", "--config", path])
        assert code == 0
        assert "max_relative_error: 0" in out

    def test_single_tone_config(self, tmp_path, capsys):
        path = write_config(tmp_path, {
            "frequency_plan": {
                "omega_plus_hz": 300.000005e12,
                "omega_minus_hz": 299.999995e12,
                "lo_hz": [300.0e12],
            },
            "lo_tones": [{"amplitude": 2.0, "phase": 0.4}],
        })
        code, out, _ = run(capsys, ["variance", "--config", path])
        assert code == 0
        rows = [l for l in out.splitlines() if l.startswith("standard")]
        assert len(rows) == 1


# 100 kHz detunings, opposite: the beat feature sits inside the default band
PLAN_100KHZ = {
    "omega_plus_hz": 300.000005e12,
    "omega_minus_hz": 299.999995e12,
    "lo_hz": [299.9999951e12, 300.0000049e12],
}

# SHA-256 of the spectrum outputs for GOLDEN_SPECTRUM: a change to any byte
# of them, from record synthesis through Welch estimation to emission, fails
# here.
GOLDEN_SPECTRUM = {
    "frequency_plan": PLAN_100KHZ,
    "squeeze": {"s": 0.8, "theta": 0.3},
    "lo_tones": [{"amplitude": 6.0, "phase": 1.9}, {"amplitude": 6.0, "phase": 1.6}],
    "seed": 29,
    "spectrum": {"duration_s": 0.03125, "segment_length": 1024, "overlap": 0.5},
}
GOLDEN_SPECTRUM_SHA256 = {
    "stdout": "9d13c4792bca79661330a623025347970405af908ef6345bc76e4db31dfcfef9",
    "spectrum.csv": "ea162cdddc44b3071c03f29db43743fbbb2e43ab54436ec7faf5eeb47b505d9d",
    "spectrum.json": "31d301bfdfa500d55779aaa9881c0fc4577e6514c77df9443a8033eb59d29729",
    # the summary file holds exactly what stdout printed
    "spectrum_summary.txt": "9d13c4792bca79661330a623025347970405af908ef6345bc76e4db31dfcfef9",
}


def test_spectrum_output_bytes_are_pinned(tmp_path, capsys):
    path = tmp_path / "golden.json"
    path.write_text(json.dumps(GOLDEN_SPECTRUM))
    out_dir = tmp_path / "out"
    code, out, _ = run(capsys, ["spectrum", "--config", str(path), "--output-dir", str(out_dir)])
    assert code == 0
    digests = {"stdout": hashlib.sha256(out.encode("utf-8")).hexdigest()}
    for name in ("spectrum.csv", "spectrum.json", "spectrum_summary.txt"):
        digests[name] = hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
    assert digests == GOLDEN_SPECTRUM_SHA256


# SHA-256 of stdout and verify.csv (the same text) for verify without and
# with random draws (seed 2 draws a two-image-band and a no-image-band point
# beside the configured shared-band point); only the oracle's rounding can
# move these bytes.
GOLDEN_VERIFY_SHA256 = {
    0: "db763ea32c0fa17a271bc428f5ddab10c7aad5569e40ff052c58192ae3f8889b",
    2: "37b72874a4fa1e2558c40d8bcd8590130c53da7968c0d43a1d48e40151b29710",
}


@pytest.mark.parametrize("draws", sorted(GOLDEN_VERIFY_SHA256))
def test_verify_output_bytes_are_pinned(tmp_path, capsys, draws):
    path = write_config(tmp_path, {"seed": 2,
                                   "oracle": {"draws": draws, "beta_cap_no_image": 7.0,
                                              "beta_cap_shared": 6.0, "beta_cap_two": 6.0}})
    out_dir = tmp_path / "out"
    code, out, _ = run(capsys, ["verify", "--config", path, "--output-dir", str(out_dir)])
    assert code == 0
    assert out.encode("utf-8") == (out_dir / "verify.csv").read_bytes()
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == GOLDEN_VERIFY_SHA256[draws]


class TestAsymmetricDetunings:
    """The two-tone closed forms assume delta1 = -delta2; any other plan makes
    the variance oscillate at (delta1 + delta2)/2pi, so it exits 3."""

    @pytest.mark.parametrize("cmd", ["variance", "scan", "cases", "imbalance", "spectrum"])
    def test_exits_3_naming_the_plan(self, tmp_path, capsys, cmd):
        # delta1 = +100 kHz, delta2 = -90 kHz: delta1 + delta2 = 2pi * 10 kHz
        plan = dict(PLAN_100KHZ, lo_hz=[299.9999951e12, 300.00000491e12])
        path = write_config(tmp_path, {"frequency_plan": plan})
        code, out, err = run(capsys, [cmd, "--config", path])
        assert code == 3
        assert out == ""
        assert "frequency_plan.lo_hz" in err and "delta1 + delta2 = 62831" in err


def src_env():
    """The environment with this checkout's ``src`` first on PYTHONPATH."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


@pytest.mark.parametrize("module", ["scipy", "numpy", "argparse"])
def test_cli_import_leaves_module_unloaded(module):
    probe = f"import sys, blodyne.cli; print({module!r} in sys.modules)"
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                            env=src_env(), check=True)
    assert result.stdout.strip() == "False"


def test_package_names_resolve_lazily():
    # a fresh interpreter: the closed forms load eagerly, every other name on access
    probe = ("import sys, blodyne\n"
             "assert 'numpy' not in sys.modules\n"
             "assert all(name in dir(blodyne) for name in blodyne.__all__)\n"
             "values = {name: getattr(blodyne, name) for name in blodyne.__all__}\n"
             "space = {}\n"
             "exec('from blodyne import *', space)\n"
             "assert all(space[name] is values[name] for name in blodyne.__all__)\n"
             "assert blodyne.SqueezeParams is sys.modules['blodyne.gaussian'].SqueezeParams\n"
             "assert all(getattr(blodyne, module) is sys.modules['blodyne.' + module]\n"
             "           for module in ('fock', 'gaussian', 'timeseries'))\n")
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                            env=src_env())
    assert result.returncode == 0, result.stderr


SINGLE_TONE_PLAN = dict(PLAN_100KHZ, lo_hz=[300.0e12])


# modules whose import time a CLI process would pay for nothing: numpy,
# dataclasses with the inspect it imports, and argparse with gettext and the
# locale module its parser loads
SLOW_START_MODULES = ("numpy", "dataclasses", "inspect", "argparse", "gettext", "locale")


def import_probe_stderr(cmd, path):
    """Run one subcommand in a fresh interpreter; its stderr, which is only
    the sorted list of the SLOW_START_MODULES it loaded."""
    probe = ("import sys; from blodyne.cli import main; code = main(sys.argv[1:]); "
             f"sys.stdout.flush(); print(sorted({set(SLOW_START_MODULES)!r} "
             "& set(sys.modules)), file=sys.stderr); sys.exit(code)")
    result = subprocess.run([sys.executable, "-c", probe, cmd, "--config", path],
                            capture_output=True, text=True, env=src_env())
    assert result.returncode == 0, result.stderr
    return result.stderr.strip()


@pytest.mark.parametrize("cmd,tones", [
    ("variance", 1), ("variance", 2), ("scan", 1), ("scan", 2), ("cases", 2),
    ("imbalance", 2),
])
def test_closed_form_subcommands_load_no_numpy(tmp_path, cmd, tones):
    # the closed forms are pure Python: the slow start-up modules would only
    # add their import time
    overrides = {"frequency_plan": PLAN_100KHZ}
    if tones == 1:
        overrides = {"frequency_plan": SINGLE_TONE_PLAN,
                     "lo_tones": [{"amplitude": 2.0, "phase": 0.4}]}
    assert import_probe_stderr(cmd, write_config(tmp_path, overrides)) == "[]"


def test_verify_without_draws_loads_no_numpy(tmp_path):
    # the oracle is pure Python; numpy is imported only to draw random points
    path = write_config(tmp_path, {"oracle": {"draws": 0}})
    assert import_probe_stderr("verify", path) == "[]"


@pytest.mark.parametrize("cmd", ["variance", "scan", "cases", "imbalance", "spectrum",
                                 "verify"])
def test_subcommands_run_without_scipy(tmp_path, cmd):
    # numpy is the only runtime dependency: every subcommand runs with scipy
    # made unimportable
    path = write_config(tmp_path, {"frequency_plan": PLAN_100KHZ,
                                   "spectrum": {"duration_s": 0.03125},
                                   "oracle": {"draws": 0}})
    probe = ("import sys; sys.modules['scipy'] = None; from blodyne.cli import main; "
             "sys.exit(main(sys.argv[1:]))")
    result = subprocess.run([sys.executable, "-c", probe, cmd, "--config", path],
                            capture_output=True, text=True, env=src_env())
    assert result.returncode == 0, result.stderr
