"""The four benchmark workloads: their inputs, one operation, and its check.

Inputs are the README's Gaussian models at a false-alarm target of
gamma = 1000 (means 1.0 for the one-model CUSUM, 0.75/1.0 for m = 2 and
0.5/0.75/1.0 for m = 3), written as CLI config dicts and built through
cli.parse_config. Every random input is derived from the seed argument, so
one seed always gives the same operations.

An operation calls the library through `api` (the mecusum package, or the
traced functions of tracer.library_api) and reports only the time spent
inside those calls; checks run outside the timed region.
"""

from __future__ import annotations

import functools
import json
import math
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import mecusum
from mecusum import RssParams, Scenario, run_episode
from mecusum.simulate import control_generator, episode_summary, observation_generator

GAMMA = 1000.0
REFERENCE_PATH = Path(__file__).with_name("reference.json")
# seed of the recorded bit-identity reference; see reference.json
DEFAULT_SEED = 0
# long enough that no episode of these policies reaches it (the estimators'
# own default at gamma = 1000 is the same 1e4 * gamma)
EPISODE_HORIZON = 10_000_000

_NOISE = {"family": "gaussian", "mean": 0.0, "std": 1.0}


def _model(exp_id: int, post_mean: float) -> dict:
    return {"id": exp_id, "pre": dict(_NOISE),
            "post": {"family": "gaussian", "mean": post_mean, "std": 1.0}}


MODELS = {
    1: [_model(1, 1.0)],
    2: [_model(1, 0.75), _model(2, 1.0)],
    3: [_model(1, 0.5), _model(2, 0.75), _model(3, 1.0)],
}

# label -> (model set, policy section); the four criterion-1 policies plus
# the random-switch baseline
POLICIES = {
    "cusum": (1, {"variant": "cusum"}),
    "2e": (2, {"variant": "me-cusum", "budgets": {"1": 2.0}}),
    "3e": (3, {"variant": "me-cusum", "budgets": {"1": 3.0, "2": 2.0}}),
    "de2e": (2, {"variant": "de-me-cusum", "budgets": {"0": 3.0, "1": 2.0}, "mu": 0.1}),
    "rss": (2, {"variant": "rss", "p_hi": 0.5}),
}


def policy_config(label: str, change_point) -> dict:
    n_models, policy = POLICIES[label]
    return {
        "scenario": {"models": MODELS[n_models], "change_point": change_point},
        "policy": {**policy, "gamma": GAMMA},
    }


@functools.cache
def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def exact_match(record, reference) -> bool:
    """Bit-for-bit equality after the JSON round trip the reference went through."""
    return json.loads(json.dumps(record)) == reference


@dataclass
class OpResult:
    label: str  # the kind of call: the policy for the estimators
    seconds: float  # time inside library calls
    work: int  # observation steps; renewal cycles for calibrate
    estimates: dict  # label -> what the library returned
    s_to_1pct: float | None = None
    events: Counter = field(default_factory=Counter)
    failures: list[str] = field(default_factory=list)
    scale: float = 1.0  # machine-speed factor for the time (see speed.py)


class Workload:
    name = ""
    tag = 0  # separates this workload's seeds from the others'
    reference_ops = 1  # default-seed operations recorded for bit identity
    window_ops = 1  # traced operations whose counters are reported

    @staticmethod
    def configs() -> dict[str, dict]:
        raise NotImplementedError

    def __init__(self, seed: int, parsed: dict) -> None:
        self.seed = seed
        self.parsed = parsed

    def warmup(self, api) -> None:
        raise NotImplementedError

    def op(self, k: int, api) -> OpResult:
        raise NotImplementedError

    def check(self, result: OpResult) -> list[str]:
        raise NotImplementedError

    def record(self, result: OpResult):
        raise NotImplementedError

    def event_sample(self) -> tuple[Counter, int]:
        """Engine events and steps of a fixed subsample, for per-kstep rates."""
        return Counter(), 0


def _episode_events(params, scenario, seeds) -> tuple[Counter, int]:
    events: Counter = Counter()
    steps = 0
    for seed in seeds:
        trace = run_episode(params, scenario, seed)
        events.update(s.event for s in trace.steps)
        steps += len(trace.steps)
    return events, steps


class _EstimatorWorkload(Workload):
    """One operation = one estimator call; the calls take the policies in turn.

    Trial counts are set so that every policy's call takes about the same
    time, one to two seconds on the sizing machine.
    """

    trials: dict[str, int] = {}
    change_point: object = "inf"
    events_per_policy = 1
    reference_ops = 4
    window_ops = 4

    @classmethod
    def configs(cls) -> dict[str, dict]:
        return {label: policy_config(label, cls.change_point) for label in cls.trials}

    def __init__(self, seed: int, parsed: dict, trials: dict[str, int] | None = None) -> None:
        super().__init__(seed, parsed)
        self.trials = dict(trials or type(self).trials)
        self.labels = list(self.trials)

    def _estimate(self, api, params, models, trials, base_seed):
        raise NotImplementedError

    def warmup(self, api) -> None:
        for idx, label in enumerate(self.labels):
            cfg = self.parsed[label]
            self._estimate(api, cfg.policy, cfg.scenario.models, 1, (self.tag, 1 << 20, idx))

    def op(self, k: int, api) -> OpResult:
        label = self.labels[k % len(self.labels)]
        cfg = self.parsed[label]
        t0 = time.perf_counter()
        est = self._estimate(api, cfg.policy, cfg.scenario.models, self.trials[label],
                             (self.seed, self.tag, k))
        dt = time.perf_counter() - t0
        steps = round(getattr(est, "sim_mean", est.mean) * est.trials)
        # seconds this estimator needs for a 1% relative standard error
        s_to_1pct = dt * (est.std_error / est.mean / 0.01) ** 2
        return OpResult(label, dt, steps, {label: est}, s_to_1pct)

    def event_sample(self) -> tuple[Counter, int]:
        events: Counter = Counter()
        steps = 0
        for k, label in enumerate(self.labels):
            cfg = self.parsed[label]
            scenario = Scenario(cfg.scenario.models, cfg.scenario.change_point,
                                horizon=EPISODE_HORIZON)
            # the first trial seeds of operation k, as the estimators derive them
            seeds = [(self.seed, self.tag, k, t) for t in range(self.events_per_policy)]
            ev, n = _episode_events(cfg.policy, scenario, seeds)
            events.update(ev)
            steps += n
        return events, steps


class FalseAlarm(_EstimatorWorkload):
    """estimate_arlfa on the four criterion-1 policies; the change never happens."""

    name = "false_alarm"
    tag = 1
    # at least 32 trials, so that an estimate with mean - 2 se < gamma does
    # not occur by chance (mean false-alarm times are 6.5k to 25k steps)
    trials = {"cusum": 120, "2e": 60, "3e": 32, "de2e": 40}

    def _estimate(self, api, params, models, trials, base_seed):
        return api.estimate_arlfa(params, models, trials, base_seed)

    def check(self, result: OpResult) -> list[str]:
        failures = []
        for label, est in result.estimates.items():
            if est.horizon_hits:
                failures.append(f"{label}: {est.horizon_hits} horizon hits")
            if est.mean - 2.0 * est.std_error < GAMMA:
                failures.append(f"{label}: mean - 2 se = {est.mean - 2.0 * est.std_error:.1f}"
                                f" < gamma {GAMMA:g}")
        return failures

    def record(self, result: OpResult):
        return {label: [est.mean, est.std_error, est.horizon_hits]
                for label, est in result.estimates.items()}


class DetectionDelay(_EstimatorWorkload):
    """estimate_wadd with the change at n = 1: short episodes, setup-bound."""

    name = "detection_delay"
    tag = 2
    trials = {"cusum": 3000, "2e": 1800, "3e": 1200, "rss": 1800}
    change_point = 1
    events_per_policy = 25
    # a 4-combined-SE band around the recorded reference delay
    band_se = 4.0

    def _estimate(self, api, params, models, trials, base_seed):
        return api.estimate_wadd(params, models, trials, base_seed)

    def check(self, result: OpResult) -> list[str]:
        reference = load_reference()["wadd"]
        failures = []
        for label, est in result.estimates.items():
            ref_mean, ref_se = reference[label]
            band = self.band_se * math.hypot(est.std_error, ref_se)
            if not abs(est.sim_mean - ref_mean) <= band:
                failures.append(f"{label}: sim_mean {est.sim_mean:.4f} is outside "
                                f"{ref_mean:.4f} +- {band:.4f}")
        return failures

    def record(self, result: OpResult):
        return {label: [est.mean, est.sim_mean, est.std_error, est.horizon_hits]
                for label, est in result.estimates.items()}


class Calibrate(Workload):
    """calibrate on the criterion-11 target: renewal kernel and bisection only."""

    name = "calibrate"
    tag = 3
    reference_ops = 2
    window_ops = 2
    # the criterion-11 target with a tenth of the library's default cycles,
    # so one run holds several calls; it converged on 60 of 60 seeds with
    # the largest residual 0.0098, against the 0.02 tolerance
    search_cycles = 5000
    final_cycles = 20000

    @classmethod
    def configs(cls, search_cycles: int | None = None, final_cycles: int | None = None):
        return {"criterion-11": {
            "scenario": {"models": MODELS[2], "change_point": "inf"},
            "calibration": {
                "gamma": GAMMA,
                "betas": {"1": 0.3, "2": 0.4},
                "data_efficient": True,
                "search_cycles": search_cycles or cls.search_cycles,
                "final_cycles": final_cycles or cls.final_cycles,
            },
        }}

    def __init__(self, seed: int, parsed: dict) -> None:
        super().__init__(seed, parsed)
        cfg = parsed["criterion-11"]
        self.target = cfg.calibration_target
        self.config = cfg.calibration_config
        self.models = cfg.scenario.models

    def warmup(self, api) -> None:
        from mecusum import CalibrationConfig

        small = CalibrationConfig(search_cycles=500, final_cycles=2000)
        api.calibrate(self.target, self.models, small, (self.tag, 1 << 20))

    def op(self, k: int, api) -> OpResult:
        t0 = time.perf_counter()
        result = api.calibrate(self.target, self.models, self.config, (self.seed, self.tag, k))
        dt = time.perf_counter() - t0
        cycles = result.evaluations * self.config.search_cycles + self.config.final_cycles
        return OpResult("criterion-11", dt, cycles, {"criterion-11": result})

    def check(self, result: OpResult) -> list[str]:
        out = result.estimates["criterion-11"]
        failures = []
        if not out.converged:
            failures.append("calibration did not converge")
        for key, residual in out.residuals.items():
            if not abs(residual) <= self.config.tolerance:
                failures.append(f"residual {key} = {residual:.4f} exceeds "
                                f"{self.config.tolerance}")
        return failures

    def record(self, result: OpResult):
        out = result.estimates["criterion-11"]
        return {
            "budgets": {str(k): v for k, v in sorted(out.params.budgets.items())},
            "scales": {str(k): v for k, v in sorted(out.params.scales.items())},
            "achieved": {str(k): v for k, v in sorted(out.achieved.means().items())},
            "evaluations": out.evaluations,
        }


class _Normals:
    """Standard normals of one Philox substream, read one at a time.

    Chunked draws give the same values as the library's 4096-blocks, so a
    monitor fed from these sees exactly the observations episode_summary
    draws for the same seed.
    """

    __slots__ = ("gen", "buf", "pos")

    def __init__(self, gen) -> None:
        self.gen = gen
        self.buf: list[float] = []
        self.pos = 0

    def next(self) -> float:
        if self.pos == len(self.buf):
            self.buf = self.gen.standard_normal(256).tolist()
            self.pos = 0
        z = self.buf[self.pos]
        self.pos += 1
        return z


class _Monitor:
    """One online monitor: a policy, its current episode, and its restarts."""

    def __init__(self, cfg, seed_prefix: tuple[int, ...]) -> None:
        self.params = cfg.policy
        self.models = cfg.scenario.models
        self.scenario = cfg.scenario
        self.nu = cfg.scenario.change_point
        self.maps = {mdl.id: ((mdl.pre.mean, mdl.pre.std), (mdl.post.mean, mdl.post.std))
                     for mdl in self.models}
        self.seed_prefix = seed_prefix
        self.restart = -1
        self.state = None

    def episode_seed(self, restart: int) -> tuple[int, ...]:
        return self.seed_prefix + (restart,)

    def begin_episode(self) -> None:
        self.restart += 1
        seed = self.episode_seed(self.restart)
        self.streams = {i: _Normals(observation_generator(seed, i)) for i in self.maps}
        self.ctrl = control_generator(seed)
        self.n = 0

    def observation(self, level: int):
        self.n += 1
        if level == 0:
            return None
        pre, post = self.maps[level]
        mean, std = post if self.n >= self.nu else pre
        return mean + std * self.streams[level].next()


class OnlineStep(Workload):
    """The public init/step API fed one observation at a time, restarting after each stop."""

    name = "online_step"
    tag = 4
    reference_ops = 10
    window_ops = 10
    labels = ("2e", "de2e")
    change_point = 100
    steps_per_policy = 1000

    @classmethod
    def configs(cls) -> dict[str, dict]:
        return {label: policy_config(label, cls.change_point) for label in cls.labels}

    def __init__(self, seed: int, parsed: dict, steps_per_policy: int | None = None) -> None:
        super().__init__(seed, parsed)
        self.steps = steps_per_policy or self.steps_per_policy
        self.monitors = {label: _Monitor(parsed[label], (seed, self.tag, idx))
                         for idx, label in enumerate(self.labels)}

    def warmup(self, api) -> None:
        scratch = OnlineStep(self.seed, self.parsed, 100)
        for mon in scratch.monitors.values():
            mon.seed_prefix = (self.tag, 1 << 20)
        scratch.op(0, api)

    def op(self, k: int, api) -> OpResult:
        clock = time.perf_counter
        seconds = 0.0
        events: Counter = Counter()
        stops = {}
        for label, mon in self.monitors.items():
            params, models = mon.params, mon.models
            done = []
            for _ in range(self.steps):
                if mon.state is None:
                    mon.begin_episode()
                    t0 = clock()
                    mon.state = api.init(params, mon.ctrl)
                    seconds += clock() - t0
                x = mon.observation(mon.state.stack[-1].level)
                t0 = clock()
                res = api.step(mon.state, params, models, x, mon.ctrl)
                seconds += clock() - t0
                events[res.event] += 1
                if res.state.stopped:
                    done.append([mon.restart, res.state.time, res.state.statistic])
                    mon.state = None
                else:
                    mon.state = res.state
            stops[label] = done
        return OpResult("batch", seconds, self.steps * len(self.monitors), stops, events=events)

    def check(self, result: OpResult) -> list[str]:
        failures = []
        for label, done in result.estimates.items():
            mon = self.monitors[label]
            for restart, stop_time, _ in done:
                ref = episode_summary(mon.params, mon.scenario, mon.episode_seed(restart))
                if ref.stopping_time != stop_time:
                    failures.append(f"{label} restart {restart}: stopped at {stop_time}, "
                                    f"episode_summary stops at {ref.stopping_time}")
        return failures

    def record(self, result: OpResult):
        return result.estimates

    def event_sample(self) -> tuple[Counter, int]:
        fresh = OnlineStep(self.seed, self.parsed, self.steps)
        events: Counter = Counter()
        for k in range(self.window_ops):
            events.update(fresh.op(k, mecusum).events)
        return events, self.window_ops * self.steps * len(self.labels)


WORKLOADS = {cls.name: cls for cls in (FalseAlarm, DetectionDelay, Calibrate, OnlineStep)}


def layer_probes(parsed_2e, repeats: int = 5) -> dict[str, float]:
    """Per-call cost of single layers, on the 2e policy, median of `repeats`.

    The same probes run on every workload, so these figures compare across
    workloads and commits without depending on the workload's mix.
    """
    from mecusum import init, run_rss, step
    from mecusum.densities import llr_from_terms, llr_terms

    params, models = parsed_2e.policy, parsed_2e.scenario.models
    rng = np.random.default_rng(12345)
    xs = rng.standard_normal(4000).tolist()
    clock = time.perf_counter

    def median_of(fn) -> float:
        return sorted(fn() for _ in range(repeats))[repeats // 2]

    terms = llr_terms(models[1])

    def llr() -> float:
        t0 = clock()
        for x in xs:
            llr_from_terms(terms, x)
        return (clock() - t0) / len(xs) * 1e9

    def init_cost() -> float:
        t0 = clock()
        for _ in range(1000):
            init(params)
        return (clock() - t0) / 1000 * 1e6

    def step_cost() -> float:
        state = init(params)
        total = 0.0
        for x in xs[:2000]:
            obs = None if state.stack[-1].level == 0 else x
            t0 = clock()
            res = step(state, params, models, obs)
            total += clock() - t0
            state = init(params) if res.state.stopped else res.state
        return total / 2000 * 1e6

    rss = RssParams(A=math.inf, p_hi=0.5)
    coin = np.random.default_rng(7)

    def rss_cost() -> float:
        t0 = clock()
        run_rss(rss, models, lambda exp, n: xs[n - 1], coin, max_steps=len(xs))
        return (clock() - t0) / len(xs) * 1e9

    return {
        "densities.llr_ns": median_of(llr),
        "simulate.episode_setup_us": median_of(lambda: episode_setup_us(parsed_2e)),
        "engine.init_us": median_of(init_cost),
        "engine.step_us": median_of(step_cost),
        "engine.rss_ns_per_step": median_of(rss_cost),
    }


def episode_setup_us(parsed_2e, calls: int = 100) -> float:
    """Mean cost of a horizon-1 episode, under whatever wrappers are installed."""
    scenario = Scenario(parsed_2e.scenario.models, 1, horizon=1)
    t0 = time.perf_counter()
    for i in range(calls):
        episode_summary(parsed_2e.policy, scenario, (98, i))
    return (time.perf_counter() - t0) / calls * 1e6
