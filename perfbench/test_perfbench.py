"""Self-test of the benchmark:  python3 -m pytest perfbench

A tiny-size run of every workload completes and passes its check, each
check counts a deliberately perturbed estimate as a failure, the
bit-identity record tells a one-ulp change apart, the tracer attributes
spans and counts to operations, operations that raise are counted as
failed, and run.py prints a result line in the benchmark's format but
refuses to run where there is no library source.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import mecusum  # noqa: E402
from mecusum import cli  # noqa: E402

import workloads  # noqa: E402
from tracer import Tracer, installed, library_api  # noqa: E402

TINY_CONFIGS = {"calibrate": {"search_cycles": 2000, "final_cycles": 10000}}
TINY_SIZES = {
    "false_alarm": {"trials": {"cusum": 40, "2e": 32}},
    "detection_delay": {"trials": {"cusum": 100, "rss": 100}},
    "online_step": {"steps_per_policy": 300},
}


def _make(name: str, seed: int = 5):
    cls = workloads.WORKLOADS[name]
    configs = cls.configs(**TINY_CONFIGS.get(name, {}))
    parsed = {label: cli.parse_config(cfg) for label, cfg in configs.items()}
    return cls(seed, parsed, **TINY_SIZES.get(name, {}))


@pytest.fixture(scope="module")
def tiny_runs():
    runs = {}
    for name in workloads.WORKLOADS:
        wl = _make(name)
        wl.warmup(mecusum)
        runs[name] = (wl, wl.op(0, mecusum))
    return runs


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_tiny_run_of_every_workload(tiny_runs, name):
    wl, res = tiny_runs[name]
    assert res.seconds > 0.0
    assert res.work > 0
    assert wl.check(res) == []


def _low_false_alarm(res):
    est = res.estimates["cusum"]
    res.estimates["cusum"] = dataclasses.replace(est, mean=workloads.GAMMA + est.std_error)


def _horizon_hit(res):
    res.estimates["cusum"] = dataclasses.replace(res.estimates["cusum"], horizon_hits=1)


def _shifted_delay(res):
    est = res.estimates["cusum"]
    ref_mean, ref_se = workloads.load_reference()["wadd"]["cusum"]
    shift = 4.5 * math.hypot(est.std_error, ref_se)
    res.estimates["cusum"] = dataclasses.replace(est, sim_mean=ref_mean - shift)


def _not_converged(res):
    out = res.estimates["criterion-11"]
    res.estimates["criterion-11"] = dataclasses.replace(out, converged=False)


def _large_residual(res):
    out = res.estimates["criterion-11"]
    res.estimates["criterion-11"] = dataclasses.replace(out, residuals={**out.residuals, 0: 0.03})


def _late_stop(res):
    done = res.estimates["2e"]
    assert done, "the tiny online run should stop at least once"
    done[0] = [done[0][0], done[0][1] + 1, done[0][2]]


@pytest.mark.parametrize("name, perturbation", [
    ("false_alarm", _low_false_alarm),
    ("false_alarm", _horizon_hit),
    ("detection_delay", _shifted_delay),
    ("calibrate", _not_converged),
    ("calibrate", _large_residual),
    ("online_step", _late_stop),
])
def test_check_counts_a_perturbed_estimate_as_failure(tiny_runs, name, perturbation):
    wl, res = tiny_runs[name]
    assert wl.check(res) == []
    perturbed = copy.deepcopy(res)
    perturbation(perturbed)
    assert wl.check(perturbed) != []


def test_bit_identity_record_separates_one_ulp():
    wl = _make("online_step", seed=workloads.DEFAULT_SEED)
    wl.steps = workloads.OnlineStep.steps_per_policy
    records = [wl.record(wl.op(k, mecusum)) for k in range(wl.reference_ops)]
    reference = workloads.load_reference()["exact"]["online_step"]
    assert all(workloads.exact_match(r, ref) for r, ref in zip(records, reference))
    restart, stop, statistic = records[0]["2e"][0]
    records[0]["2e"][0] = [restart, stop, math.nextafter(statistic, math.inf)]
    assert not workloads.exact_match(records[0], reference[0])


def test_tracer_attributes_spans_and_counts_to_operations():
    wl = _make("detection_delay")  # operation 0 runs cusum, operation 1 rss
    tr = Tracer()
    work = 0
    with installed(tr):
        for k in (0, 1):
            with tr.operation(k):
                work += wl.op(k, library_api(tr)).work
    counts = tr.counts([0, 1])
    assert counts["simulate.episodes"] == 200
    assert counts["simulate.stop.threshold"] == 200
    # an episode builds one generator per observation stream (cusum one, rss
    # two) and one control generator
    assert counts["simulate.generators_built"] == 100 * 2 + 100 * 3
    assert counts["simulate.normals_drawn"] == 100 * 4096 + 100 * 2 * 4096
    assert tr.counts([1])["simulate.generators_built"] == 100 * 3
    assert work == sum(counts[f"simulate.steps.{e}"] for e in range(4))
    dur, selfs = tr.durations_ns(), tr.self_ns()
    assert all(0 <= s <= d for s, d in zip(selfs, dur))
    assert set(tr.op) == {0, 1}
    assert tr.names.count("metrics.estimate_wadd") == 2


def _raise(self, k, api):
    raise RuntimeError(f"operation {k} fails on purpose")


@pytest.mark.parametrize("trace", [0, 1])
def test_operations_that_raise_are_counted_as_failed(monkeypatch, trace):
    import worker

    cls, parsed, wl, _ = worker._setup("online_step", 3, time.perf_counter())
    monkeypatch.setattr(cls, "op", _raise)
    out = (worker.trace if trace else worker.measure)(cls, parsed, wl, 3, 0.05)
    assert out["attempted"] >= 1 and out["failed"] == out["attempted"]


def _run(script: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(script), "--workload", "online_step",
                           "--seed", "3", "--seconds", "1", *args],
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_result_line_has_the_benchmark_format(trace, section):
    proc = _run(HERE / "run.py", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    want = {m["name"]: m["unit"] for m in spec[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())


def test_refuses_to_run_without_library_source():
    bare = ROOT / ".perfbench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(bare / "perfbench" / "run.py", "--trace", "0")
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
