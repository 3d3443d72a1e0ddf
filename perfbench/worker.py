"""One benchmark process: set up a workload, then measure or trace it.

Started by run.py, never by hand. With --role probe it only sets up and
reports the set-up timings; with --role measure it also runs the workload
for --seconds and reports what run.py turns into metrics. Prints one JSON
object as its last line of standard output.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
PROBE_EVERY_S = 0.5
# the host's speed holds for 10 s or more, so probes this close to an
# operation describe it; several of them average out the probe's own noise
PROBE_WINDOW_S = 3.0
# speed probes right after set-up; their median scales the set-up time as
# the probes around an operation scale its time
SETUP_PROBES = 3

# the library and the benchmark's modules, bound by _setup after the timed
# library import
mecusum = speed = tracer = workloads = None


def _setup(name: str, seed: int, t0: float):
    """Import, parse the inputs, validate the models, and warm up once."""
    global mecusum, speed, tracer, workloads
    sys.path.insert(0, str(ROOT / "src"))
    t = time.perf_counter()
    import mecusum
    import_s = time.perf_counter() - t
    if not Path(mecusum.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"imported mecusum from {mecusum.__file__}, not from {ROOT / 'src'}")
    from mecusum import cli, densities

    import speed
    import tracer
    import workloads

    cls = workloads.WORKLOADS[name]
    configs = cls.configs()
    t = time.perf_counter()
    parsed = {label: cli.parse_config(cfg) for label, cfg in configs.items()}
    parse_us = (time.perf_counter() - t) / len(configs) * 1e6
    model_sets = {cfg.scenario.models for cfg in parsed.values()}
    t = time.perf_counter()
    for models in model_sets:
        violation = densities.validate_ordering(models)
        if violation is not None:
            raise SystemExit(str(violation))
    validate_ms = (time.perf_counter() - t) * 1e3
    wl = cls(seed, parsed)
    wl.warmup(mecusum)
    wall_s = time.perf_counter() - t0
    # CPU time of this process since it started: set-up is all computation,
    # and CPU time leaves out the time the process waited for a CPU
    cpu_s = time.process_time()
    probe_s = statistics.median(speed.probe() for _ in range(SETUP_PROBES))
    setup = {
        "setup_s": cpu_s * speed.NOMINAL_S / probe_s,
        "setup_cpu_s": cpu_s,
        "setup_wall_s": wall_s,
        "speed_probe_s": probe_s,
        "cli.import_s": import_s,
        "cli.parse_config_us": parse_us,
        "densities.validate_ms": validate_ms,
    }
    return cls, parsed, wl, setup


def run_ops(wl, api, seconds: float, min_ops: int, tr=None) -> tuple[list, int]:
    """Operations 0, 1, ... until `seconds` have passed and `min_ops` ran.

    Returns the results of the operations that returned and the number that
    raised; an exception ends only its own operation. The speed probe runs
    before an operation whenever PROBE_EVERY_S have passed since the last
    one, and once at the end. Each result's `scale` is NOMINAL_S over the
    median of the probes within PROBE_WINDOW_S of the operation's middle,
    always counting the probes just before and just after it.
    """
    clock = time.perf_counter
    probes = [(clock(), speed.probe())]
    done = []
    raised = 0
    deadline = clock() + seconds
    k = 0
    while k < min_ops or clock() < deadline:
        if clock() - probes[-1][0] >= PROBE_EVERY_S:
            probes.append((clock(), speed.probe()))
        start = clock()
        try:
            if tr is None:
                res = wl.op(k, api)
            else:
                with tr.operation(k):
                    res = wl.op(k, api)
            res.failures = wl.check(res)
        except Exception:
            traceback.print_exc()
            raised += 1
        else:
            done.append((res, len(probes) - 1, (start + clock()) / 2.0))
        k += 1
    probes.append((clock(), speed.probe()))
    for res, before, middle in done:
        near = [p for i, (t, p) in enumerate(probes)
                if abs(t - middle) <= PROBE_WINDOW_S or i in (before, before + 1)]
        res.scale = speed.NOMINAL_S / statistics.median(near)
    return [res for res, _, _ in done], raised


def _by_label(results) -> dict[str, list]:
    groups: dict[str, list] = {}
    for r in results:
        groups.setdefault(r.label, []).append(r)
    return groups


def _seconds(r, scaled: bool) -> float:
    return r.seconds * r.scale if scaled else r.seconds


def _round_ms(results, scaled: bool = True, quantile=statistics.median) -> float:
    """Latency of one round of calls, one per label: the sum of each label's quantile.

    A workload with one label (calibrate, online_step) reports the plain
    quantile. Summing per-label medians keeps the figure steady where a
    median over a mix of differently sized calls would jump between them.
    """
    return 1e3 * sum(quantile([_seconds(r, scaled) for r in group])
                     for group in _by_label(results).values())


def _p90_ms(results):
    """p90 round latency, or None unless at least ten calls of each label lie beyond it."""
    if any(len(g) < 100 for g in _by_label(results).values()):
        return None
    return _round_ms(results, quantile=lambda times: statistics.quantiles(times, n=10)[-1])


def _round_rate(results, scaled: bool = True) -> float:
    """Work per second over one round: per-label median rates, weighted by median work."""
    work = 0.0
    seconds = 0.0
    for group in _by_label(results).values():
        w = statistics.median(r.work for r in group)
        work += w
        seconds += w / statistics.median(r.work / _seconds(r, scaled) for r in group)
    return work / seconds


def _exact_ops(cls, wl, results) -> int:
    """Operations whose estimates match the recorded default-seed ones bit for bit."""
    reference = workloads.load_reference()["exact"][cls.name]
    return sum(workloads.exact_match(wl.record(r), ref) for r, ref in zip(results, reference))


def measure(cls, parsed, wl, seed: int, seconds: float) -> dict:
    results, raised = run_ops(wl, mecusum, seconds, 1)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if not results:
        # every operation raised: a measured failure, with no timings to give
        return {"attempted": raised, "failed": raised, "op_ms_p50": 0.0, "steps_per_s": 0.0,
                "peak_rss_mb": peak_rss_mb}
    failed = raised + sum(1 for r in results if r.failures)
    for r in results:
        for failure in r.failures:
            print(f"check failed: {failure}", file=sys.stderr)
    s_to_1pct: dict[str, list[float]] = {}
    for r in results:
        if r.s_to_1pct is not None:
            s_to_1pct.setdefault(r.label, []).append(r.s_to_1pct * r.scale)
    out = {
        "attempted": len(results) + raised,
        "failed": failed,
        "op_ms_p50": _round_ms(results),
        "op_ms_p90": _p90_ms(results),
        # medians of per-call rates are free of the spread in episode lengths
        "steps_per_s": _round_rate(results),
        "s_to_1pct": {label: statistics.median(v) for label, v in s_to_1pct.items()},
        "peak_rss_mb": peak_rss_mb,
        "op_ms_p50_wall": _round_ms(results, scaled=False),
        "steps_per_s_wall": _round_rate(results, scaled=False),
        "speed_scale": statistics.median(r.scale for r in results),
    }
    if seed == workloads.DEFAULT_SEED:
        out["exact_ops"] = _exact_ops(cls, wl, results)
        out["reference_ops"] = min(cls.reference_ops, len(results))
    return out


def _per_op_median(tr, names: set[str], values) -> float:
    sums: dict[int, int] = {}
    for idx, name in enumerate(tr.names):
        if name in names and tr.op[idx] >= 0:
            sums[tr.op[idx]] = sums.get(tr.op[idx], 0) + values[idx]
    return statistics.median(sums.values()) if sums else 0.0


def _final_renewal_ms(tr, dur) -> float:
    """Median duration of the last estimate_por_renewal call of each calibrate call."""
    last: dict[int, int] = {}
    for idx, name in enumerate(tr.names):
        parent = tr.parent[idx]
        if name == "metrics.estimate_por_renewal" and parent >= 0 \
                and tr.names[parent] == "calibrate.calibrate" and tr.op[idx] >= 0:
            last[parent] = idx
    return statistics.median(dur[i] for i in last.values()) / 1e6 if last else 0.0


def trace(cls, parsed, wl, seed: int, seconds: float) -> dict:
    untraced, raised_u = run_ops(wl, mecusum, seconds / 2, cls.window_ops)
    tr = tracer.Tracer()
    with tracer.installed(tr):
        traced, raised_t = run_ops(cls(seed, parsed), tracer.library_api(tr),
                                   seconds / 2, cls.window_ops, tr)
        setup_traced_us = workloads.episode_setup_us(_parsed_2e())
    results = untraced + traced
    raised = raised_u + raised_t
    failed = raised + sum(1 for r in results if r.failures)
    if raised:
        # the spans and counts of an operation that raised are partial, so
        # the run reports its failures and no per-layer figures (run.py
        # writes 0 for each)
        return {"attempted": len(results) + raised, "failed": failed,
                "reference_ops": cls.reference_ops, "window_ops": cls.window_ops,
                "layers": None}

    dur = tr.durations_ns()
    selfs = tr.self_ns()
    window = tr.counts(range(cls.window_ops))
    every = tr.counts(range(len(traced)))
    episode_ns = sum(d for n, d, o in zip(tr.names, dur, tr.op)
                     if n == "simulate.episode_summary" and o >= 0)
    renewal_ns = sum(d for n, d, o in zip(tr.names, dur, tr.op)
                     if n == "metrics.estimate_por_renewal" and o >= 0)
    episodes = every["simulate.episodes"]
    steps_every = sum(every[f"simulate.steps.{e}"] for e in range(4))
    obs_window = sum(window[f"simulate.steps.{e}"] for e in range(1, 4))
    events, event_steps = wl.event_sample()
    reference_wl = cls(workloads.DEFAULT_SEED, parsed)
    reference_results = [reference_wl.op(k, mecusum)
                         for k in range(cls.reference_ops)]
    probes = workloads.layer_probes(_parsed_2e())
    untraced_ms = _round_ms(untraced)
    traced_ms = _round_ms(traced)

    metrics = {
        **probes,
        "simulate.episode_us": episode_ns / episodes / 1e3 if episodes else 0.0,
        "simulate.ns_per_step": ((episode_ns - episodes * setup_traced_us * 1e3) / steps_every
                                 if steps_every else 0.0),
        "simulate.generators_built": window["simulate.generators_built"],
        "simulate.normals_drawn": window["simulate.normals_drawn"],
        "simulate.draw_use_ratio": (obs_window / window["simulate.normals_drawn"]
                                    if window["simulate.normals_drawn"] else 0.0),
        **{f"simulate.steps.{e}": window[f"simulate.steps.{e}"] for e in range(4)},
        "simulate.stop.threshold": window["simulate.stop.threshold"],
        "simulate.stop.horizon": window["simulate.stop.horizon"],
        **{f"engine.{ev}_per_kstep": (1000.0 * events[ev] / event_steps if event_steps else 0.0)
           for ev in ("descend", "ascend", "bounce", "reflect")},
        "engine.resolve_truncation_calls": window["engine.resolve_truncation_calls"],
        "metrics.estimator_self_ms": _per_op_median(
            tr, {"metrics.estimate_arlfa", "metrics.estimate_wadd"}, selfs) / 1e6,
        "metrics.renewal_us_per_cycle": (renewal_ns / 1e3 / every["metrics.renewal_cycles"]
                                         if every["metrics.renewal_cycles"] else 0.0),
        "metrics.por_renewal_calls": window["metrics.por_renewal_calls"],
        "calibrate.evaluations": window["calibrate.evaluations"],
        "calibrate.self_ms": _per_op_median(tr, {"calibrate.calibrate"}, selfs) / 1e6,
        "calibrate.final_ms": _final_renewal_ms(tr, dur),
        "check.exact_ops": _exact_ops(cls, reference_wl, reference_results),
        "check.failed_frac": failed / (len(results) + raised),
        "trace.op_ms_p50_untraced": untraced_ms,
        "trace.op_ms_p50_traced": traced_ms,
        "trace.overhead_pct": (traced_ms / untraced_ms - 1.0) * 100.0,
    }
    OUT_DIR.mkdir(exist_ok=True)
    tr.dump(OUT_DIR / f"spans-{cls.name}-seed{seed}.json")
    return {
        "attempted": len(results) + raised,
        "failed": failed,
        "reference_ops": cls.reference_ops,
        "window_ops": cls.window_ops,
        "layers": metrics,
    }


def _parsed_2e():
    from mecusum import cli

    return cli.parse_config(workloads.policy_config("2e", 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--role", choices=("probe", "measure"), required=True)
    parser.add_argument("--t0", type=float, required=True,
                        help="perf_counter reading of the parent just before this process started")
    args = parser.parse_args(argv)
    cls, parsed, wl, setup = _setup(args.workload, args.seed, args.t0)
    out = {"setup": setup}
    if args.role == "measure":
        run = trace if args.trace else measure
        out.update(run(cls, parsed, wl, args.seed, args.seconds))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
