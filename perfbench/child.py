"""Code the benchmark runs in its child processes.

``python perfbench/child.py trace SPANS.json <blodyne arguments...>``
    Runs the blodyne CLI with a span recorded around each call into a
    layer (config, detection, fock, _kernels, timeseries) and around each
    subcommand. A call made from inside the same layer gets no span of its
    own. Spans stay in memory and are written to SPANS.json at exit; the
    process exits with the CLI's exit code and writes the same stdout.

``python perfbench/child.py probe RESULT.json``
    Times the layers no CLI subcommand reaches on its own (the Gaussian
    symplectic chain, Fock state building, the explicit-unitary self-check,
    and the kernels on fixed tensor shapes) and checks their results.

Both modes need ``src`` on PYTHONPATH.
"""

from __future__ import annotations

import json
import math
import resource
import statistics
import sys
import time

from workloads import ORACLE_POINTS, ORACLE_S, ORACLE_SETTINGS

perf_counter = time.perf_counter


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """Span recorder: (id, name, start, end, parent) plus per-call details."""

    def __init__(self):
        self.spans = []
        self._stack = []     # (span id, layer) of the open spans

    def wrap(self, owner, attr, layer, details=None):
        fn = getattr(owner, attr)
        name = f"{layer}.{attr}"
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            if stack and stack[-1][1] == layer:
                return fn(*args, **kwargs)
            span = {"id": len(spans), "name": name,
                    "parent": stack[-1][0] if stack else None}
            spans.append(span)
            stack.append((span["id"], layer))
            rss_before = _maxrss_mb() if details else 0.0
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = perf_counter()
                span["start"] = start
                stack.pop()
            if details:
                span.update(details(args, kwargs, result, rss_before))
            return result

        setattr(owner, attr, traced)


def trace_cli(spans_path: str, cli_args: list) -> int:
    tracer = Tracer()
    import blodyne.cli as cli
    from blodyne import _kernels, detection, fock, timeseries

    def oracle_details(args, kwargs, value, rss_before):
        return {"value": value, "rss_growth_mb": _maxrss_mb() - rss_before}

    for name in ("cmd_variance", "cmd_scan", "cmd_cases", "cmd_imbalance",
                 "cmd_spectrum", "cmd_verify"):
        tracer.wrap(cli, name, "cli")
    tracer.wrap(cli, "load_config", "config")
    for name in ("blo_variance", "blo_variance_unbalanced", "standard_heterodyne_variance",
                 "lo_quantization_correction"):
        tracer.wrap(detection, name, "detection")
    tracer.wrap(detection, "phase_scan", "detection",
                lambda a, k, result, r: {"points": len(result)})
    tracer.wrap(fock, "oracle_blo_run", "fock", oracle_details)
    for name in ("pair_ladder_acc", "vdot", "norm_sq"):
        tracer.wrap(_kernels, name, "kernels")
    tracer.wrap(timeseries, "synthesize_difference_current", "timeseries",
                lambda a, k, rec, r: {"n_samples": int(rec.samples.size)})
    tracer.wrap(timeseries, "estimate_psd", "timeseries",
                lambda a, k, est, r: {"n_averages": int(est.n_averages)})
    tracer.wrap(timeseries, "locate_squeezing_feature", "timeseries")

    code = 1
    try:
        code = cli.main(cli_args)
    finally:
        sys.stdout.flush()
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"exit_code": code, "spans": tracer.spans}, fh)
    return code


# ---------------------------------------------------------------------------
# layer probes
# ---------------------------------------------------------------------------

# The tensor shapes of benchmarks/bench_kernels.py: a padded joint state of
# the signal pair, two image vacua and two LO tones.
KERNEL_SHAPES = ((12, 12, 2, 2, 96, 96), (12, 12, 2, 2, 160, 160), (14, 14, 2, 2, 200, 200))
_N_IMAGES = {"none": 0, "shared": 1, "two": 2}


def _median_time(fn, repeats):
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        fn()
        times.append(perf_counter() - t0)
    return statistics.median(times)


def probe_gaussian(failures):
    from blodyne.gaussian import (BeamSplitterSpec, ModeLabel, SqueezeParams,
                                  apply_beam_splitter, apply_displacement,
                                  apply_two_mode_squeeze, quadrature_variance,
                                  vacuum_state)
    m1, m2 = ModeLabel("plus", 2.0e15 + 5.0e7), ModeLabel("minus", 2.0e15 - 5.0e7)
    p = SqueezeParams(s=0.7, theta=0.4)
    splitter = BeamSplitterSpec.balanced()

    def chain():
        state = apply_two_mode_squeeze(vacuum_state([m1, m2]), m1, m2, p)
        state = apply_displacement(state, m1, 3.0 + 1.0j)
        mixed = apply_beam_splitter(state, m1, m2, splitter)
        return state, mixed, quadrature_variance(mixed, (m1, m2), 0.3)

    state, mixed, _ = chain()
    vx = quadrature_variance(state, (m1, m2), 0.0)
    vy = quadrature_variance(state, (m1, m2), math.pi / 2.0)
    if not math.isclose(vx + vy, math.cosh(2.0 * p.s) / 2.0, rel_tol=1e-12):
        failures.append("gaussian: quadrature variance sum != cosh(2s)/2")
    if not math.isclose(float(mixed.cov.trace()), float(state.cov.trace()), rel_tol=1e-12):
        failures.append("gaussian: the balanced splitter changed the covariance trace")
    return {"gaussian.symplectic_chain_s": _median_time(chain, 201)}


def probe_fock(failures):
    from blodyne import ImageBandCase
    from blodyne.fock import (BeatPairing, TruncationPolicy, build_blo_signal_state,
                              build_coherent_product, oracle_difference_variance,
                              oracle_difference_variance_unitary, reference_plan)
    from blodyne.gaussian import SqueezeParams
    cases = {"none": ImageBandCase.NO_IMAGE_BANDS, "shared": ImageBandCase.SHARED_IMAGE_BAND,
             "two": ImageBandCase.TWO_IMAGE_BANDS}
    policy = TruncationPolicy(target_leakage=ORACLE_SETTINGS["target_leakage"])
    p = SqueezeParams(s=ORACLE_S, theta=0.4)
    out = {}

    # Joint tensor of the dense oracle: every input dim plus one headroom
    # level, complex128. Computed from the cutoffs, not measured.
    for case, beta in ORACLE_POINTS:
        n_tmss, n_coh = policy.tmss_cutoff(ORACLE_S), policy.coherent_cutoff(beta)
        dims = (n_tmss + 1,) * 2 + (1,) * _N_IMAGES[case] + (n_coh + 1,) * 2
        out[f"fock.oracle_{case}_joint_bytes"] = 16 * math.prod(d + 1 for d in dims)

    def build_states():
        states = []
        for case, beta in ORACLE_POINTS:
            states.append(build_blo_signal_state(p, cases[case], policy.tmss_cutoff(p.s)))
            states.append(build_coherent_product([(beta, 0.2), (beta, 1.0)],
                                                 policy.coherent_cutoff(beta)))
        return states

    if any(st.leakage > 1e-6 for st in build_states()):
        failures.append("fock: a pinned-point state leaks more than 1e-6")
    out["fock.build_states_s"] = _median_time(build_states, 5)

    # The explicit-unitary self-check at the no-image-band test point.
    case = ImageBandCase.NO_IMAGE_BANDS
    plan = reference_plan(case)
    signal = build_blo_signal_state(SqueezeParams(s=0.5, theta=0.9), case, 11)
    lo = build_coherent_product([(0.9, 0.2), (0.9, 1.0)], 11)
    pairing = BeatPairing.for_blo(plan, case)
    results = []
    out["fock.unitary_selfcheck_s"] = _median_time(
        lambda: results.append(oracle_difference_variance_unitary(signal, lo, pairing, plan)), 3)
    grouped = oracle_difference_variance(signal, lo, pairing, plan)
    unitary = results[-1]
    if not math.isclose(grouped, unitary.variance, rel_tol=1e-10):
        failures.append("fock: unitary route disagrees with the grouped oracle")
    if abs(unitary.norm_after - unitary.norm_before) >= 1e-10:
        failures.append("fock: the unitary route does not conserve the norm")
    return out


def probe_kernels(failures):
    import numpy as np
    from blodyne import _kernels
    totals = {"pair_ladder_acc": 0.0, "norm_sq": 0.0, "vdot": 0.0}
    bytes_computed = 0
    for seed, shape in enumerate(KERNEL_SHAPES):
        rng = np.random.default_rng(seed)
        amp = np.empty(shape, dtype=np.complex128)
        amp.real = rng.standard_normal(shape)
        amp.imag = rng.standard_normal(shape)
        amp /= math.sqrt(_kernels.norm_sq(amp))
        out = np.zeros_like(amp)
        totals["pair_ladder_acc"] += _median_time(
            lambda: _kernels.pair_ladder_acc(out, amp, axis_up=0, axis_dn=4, coeff=1j), 3)
        totals["norm_sq"] += _median_time(lambda: _kernels.norm_sq(amp), 3)
        totals["vdot"] += _median_time(lambda: _kernels.vdot(amp, out), 3)
        # Bytes a kernel must touch at least: the ladder reads amp and
        # updates out, norm_sq reads amp, vdot reads both.
        bytes_computed += amp.nbytes * (3 + 1 + 2)
        if not (math.isclose(_kernels.norm_sq(amp), 1.0, rel_tol=1e-12)
                and abs(_kernels.vdot(amp, amp) - 1.0) < 1e-12):
            failures.append(f"kernels: norm_sq and vdot disagree on shape {shape}")
        if not (_kernels.norm_sq(out) > 0.0 and math.isfinite(_kernels.norm_sq(out))):
            failures.append(f"kernels: pair_ladder_acc gave no finite output on shape {shape}")
        del amp, out
    metrics = {f"kernels.{k}_s": v for k, v in totals.items()}
    metrics["kernels.bytes_computed"] = bytes_computed
    metrics["kernels.gbps_computed"] = bytes_computed / sum(totals.values()) / 1e9
    return metrics


def probe(result_path: str) -> int:
    failures = []
    metrics = {}
    for fn in (probe_gaussian, probe_fock, probe_kernels):
        metrics.update(fn(failures))
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump({"metrics": metrics, "failures": failures}, fh)
    return 1 if failures else 0


if __name__ == "__main__":
    mode = sys.argv[1]
    if mode == "trace":
        sys.exit(trace_cli(sys.argv[2], sys.argv[3:]))
    if mode == "probe":
        sys.exit(probe(sys.argv[2]))
    sys.exit(f"unknown mode {mode!r}")
