"""Benchmark of the mecusum library: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the library is imported from the
checkout's src/. Workloads: false_alarm, detection_delay, calibrate,
online_step (see perfbench/README.md).

The run sets the workload up in separate processes (SETUP_RUNS of them) and
reports the median set-up time; the middle one of them also measures for S
seconds, so the others sample the machine's speed before and after it.
With --trace 0 the last line of standard output holds the end-to-end
metrics, with --trace 1 the per-layer metrics of a traced pass.
The line before it is a report with the environment and the figures that
are not gated. Exits non-zero without a result when the run cannot be made.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).with_name("worker.py")
OUT_DIR = ROOT / ".perfbench_out"
WORKLOADS = ("false_alarm", "detection_delay", "calibrate", "online_step")
SETUP_RUNS = 7
# a run must end within 180 s; this leaves room for the set-up processes
RUN_TIMEOUT_S = 170.0

UNITS = {
    "setup_s": "s",
    "op_ms_p50": "ms",
    "steps_per_s": "1/s",
    "peak_rss_mb": "MB",
}
SETUP_LAYERS = ("cli.import_s", "cli.parse_config_us", "densities.validate_ms")


def _layer_units() -> dict[str, str]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _version(dist: str) -> str | None:
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return None


def _dependencies() -> list[str] | None:
    try:
        import tomllib
    except ImportError:
        return None
    with open(ROOT / "pyproject.toml", "rb") as handle:
        return tomllib.load(handle).get("project", {}).get("dependencies")


def environment() -> dict:
    src = ROOT / "src"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "src_lines": sum(len(p.read_text(encoding="utf-8").splitlines())
                         for p in sorted(src.rglob("*.py"))),
        "dependencies": _dependencies(),
    }


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    # one process with one thread: no hidden BLAS or OpenMP workers
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _spawn(args, role: str, deadline: float) -> dict:
    t0 = time.perf_counter()
    cmd = [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--role", role,
           "--t0", repr(t0)]
    proc = subprocess.run(cmd, cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - time.perf_counter()))
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: {role} process exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if not (ROOT / "src" / "mecusum" / "__init__.py").is_file():
        print(f"perfbench: no library source under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.perf_counter() + RUN_TIMEOUT_S
    load_before = os.getloadavg()
    before = SETUP_RUNS // 2
    setups = [_spawn(args, "probe", deadline)["setup"] for _ in range(before)]
    run = _spawn(args, "measure", deadline)
    setups.append(run["setup"])
    setups += [_spawn(args, "probe", deadline)["setup"] for _ in range(SETUP_RUNS - 1 - before)]
    load_after = os.getloadavg()

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "loadavg_before": load_before,
        "loadavg_after": load_after,
        "setup_runs": setups,
    }
    if args.trace:
        units = _layer_units()
        values = run["layers"] or dict.fromkeys(units, 0.0)
        for name in SETUP_LAYERS:
            values[name] = statistics.median(s[name] for s in setups)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
        report.update(reference_ops=run["reference_ops"], window_ops=run["window_ops"])
    else:
        values = {"setup_s": statistics.median(s["setup_s"] for s in setups), **run}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in UNITS.items()}
        report.update({k: run[k] for k in ("op_ms_p50_wall", "steps_per_s_wall", "speed_scale",
                                           "op_ms_p90", "s_to_1pct", "exact_ops", "reference_ops")
                       if run.get(k) not in (None, {})})
        for key in ("setup_cpu_s", "setup_wall_s"):
            report[key] = statistics.median(s[key] for s in setups)
        report["ops"] = run["attempted"]
        report["failed_frac"] = run["failed"] / run["attempted"]
    result = {
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": metrics,
    }
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w",
              encoding="utf-8") as handle:
        json.dump({"report": report, "result": result}, handle, indent=1)
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
