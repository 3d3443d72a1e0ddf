"""Straight-line transcriptions against the recursive engine, step for step.

The flat loops in straightline.py implement the two-experiment schemes with
no level-stack machinery. Here each one runs against the engine on identical
observation streams and identical budget-resolution draws; every recorded
step must match exactly: time, source, observation, and statistic. The
renewal cycle transcription runs against the renewal kernel the same way:
every cycle's steps per source must match exactly.
"""

from __future__ import annotations

import math
import sys
from collections import Counter
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mecusum import PolicyParams, Scenario, episode_summary, resolve_truncation, run_episode
from mecusum import simulate
from mecusum.densities import llr_from_terms, llr_terms
from mecusum.metrics import _trial_table
from mecusum.simulate import (RENEWAL_TAG, _RenewalKernel, control_generator,
                              observation_generator, seed_entropy)
from conftest import gaussian_model, obs_for
from drivers import engine_records, normal_stream
import straightline

MODELS = (gaussian_model(1, 0.75), gaussian_model(2, 1.0))
TERMS_X = llr_terms(MODELS[0])
TERMS_Y = llr_terms(MODELS[1])


def llr_x(x):
    return llr_from_terms(TERMS_X, x)


def llr_y(x):
    return llr_from_terms(TERMS_Y, x)


def stream(seed):
    return normal_stream(seed, size=6000)


def assert_same_run(engine_out, oracle_out):
    recs_e, stop_e, reason_e = engine_out
    recs_o, stop_o, reason_o = oracle_out
    assert stop_e == stop_o
    assert reason_e == reason_o
    assert len(recs_e) == len(recs_o)
    for got, want in zip(recs_e, recs_o):
        assert got == want


def test_two_level_matches_flat_loops():
    grid = [
        (1.0, 2, 2.0, None),
        (0.5, 1, 3.0, None),
        (2.5, 3.7, 2.0, None),
        (1.7, 0, 2.0, None),
        (1.0, 2.5, 3.0, 12.5),
        (1.0, 5, 2.0, 8),
        (0.8, 1.3, 2.0, 0.4),
    ]
    for case, (a_y, n_x, threshold, top) in enumerate(grid):
        params = PolicyParams(m=2, A=threshold, scales={2: a_y},
                              budgets={1: n_x}, top_truncation=top)
        for ep in range(15):
            seed_y = (case, ep, 1)
            seed_x = (case, ep, 2)
            engine_rng = np.random.default_rng((case, ep, 3))
            oracle_rng = np.random.default_rng((case, ep, 3))
            engine_out = engine_records(
                params, MODELS, {1: stream(seed_x), 2: stream(seed_y)},
                engine_rng, max_steps=5000)
            oracle_out = straightline.run_2e(
                a_y, n_x, threshold, llr_y, llr_x,
                stream(seed_y), stream(seed_x),
                lambda v: resolve_truncation(v, oracle_rng),
                top_budget=top, max_steps=5000)
            assert_same_run(engine_out, oracle_out)


def test_data_efficient_matches_flat_loops():
    grid = [
        (1.0, 1.0, 2, 3, 0.1, 2.0),
        (0.5, 2.0, 3.7, 2.3, 0.25, 2.0),
        (2.0, 0.7, 1, 4, 0.1, 3.0),
        (1.3, 1.0, 2.5, 0.6, 0.15, 2.0),
        (1.0, 1.0, 2, 0, 0.1, 2.0),
    ]
    for case, (a_y, a_x, n_x, n_0, mu, threshold) in enumerate(grid):
        params = PolicyParams(m=2, A=threshold, scales={1: a_x, 2: a_y},
                              budgets={0: n_0, 1: n_x}, mu=mu,
                              data_efficient=True)
        for ep in range(15):
            seed_y = (case, ep, 4)
            seed_x = (case, ep, 5)
            engine_rng = np.random.default_rng((case, ep, 6))
            oracle_rng = np.random.default_rng((case, ep, 6))
            engine_out = engine_records(
                params, MODELS, {1: stream(seed_x), 2: stream(seed_y)},
                engine_rng, max_steps=5000)
            oracle_out = straightline.run_de2e(
                a_y, a_x, n_x, n_0, mu, threshold, llr_y, llr_x,
                stream(seed_y), stream(seed_x),
                lambda v: resolve_truncation(v, oracle_rng),
                max_steps=5000)
            assert_same_run(engine_out, oracle_out)


def test_flat_two_level_worked_sequence():
    ys = iter([obs_for(MODELS[1], -0.8), obs_for(MODELS[1], 6.0)])
    xs = iter([obs_for(MODELS[0], -2.0), obs_for(MODELS[0], -2.0)])
    records, stop, reason = straightline.run_2e(
        1.0, 2, 5.0, llr_y, llr_x, lambda: next(ys), lambda: next(xs),
        resolve_truncation)
    assert [(r[0], r[1]) for r in records] == [(1, 2), (2, 1), (3, 1), (4, 2)]
    assert records[0][3] == pytest.approx(-0.8, abs=1e-12)
    assert records[1][3] == records[0][3]  # reflected at the scaled floor
    assert records[2][3] == 0.0  # budget spent: back to the top floor
    assert reason == "threshold"
    assert stop == 4


def test_flat_data_efficient_worked_sequence():
    ys = iter([obs_for(MODELS[1], -0.8), obs_for(MODELS[1], 6.0)])
    xs = iter([obs_for(MODELS[0], -0.7), obs_for(MODELS[0], 1.0)])
    records, stop, reason = straightline.run_de2e(
        1.0, 1.0, 5, 3, 0.1, 5.0, llr_y, llr_x, lambda: next(ys),
        lambda: next(xs), resolve_truncation)
    sources = [r[1] for r in records]
    stats = [r[3] for r in records]
    assert sources == [2, 1, 0, 0, 0, 1, 2]
    assert stats[0] == pytest.approx(-0.8, abs=1e-12)
    assert stats[1] == pytest.approx(-1.5, abs=1e-12)
    assert stats[2] == pytest.approx(-1.4, abs=1e-12)
    assert stats[3] == pytest.approx(-1.3, abs=1e-12)
    # the third idle step exhausts the pause budget and lands on the floor
    assert stats[4] == pytest.approx(-0.8, abs=1e-12)
    assert stats[5] == 0.0
    assert reason == "threshold"
    assert stop == 7


def test_flat_single_level_stopping_time():
    xs = iter([obs_for(MODELS[1], 1.2), obs_for(MODELS[1], -2.0),
               obs_for(MODELS[1], 1.5), obs_for(MODELS[1], 1.7)])
    stop = straightline.run_cusum(3.0, llr_y, lambda: next(xs))
    assert stop == 4


_RENEWAL_MODELS = (
    (gaussian_model(1, 0.5), gaussian_model(2, 0.75), gaussian_model(3, 1.0)),
    # unequal pre/post stds, so every LLR constant matters
    (gaussian_model(1, 0.5, std=1.2), gaussian_model(2, 0.8, pre_mean=0.1),
     gaussian_model(3, 1.1, pre_mean=0.1, std=0.9)),
)


def renewal_oracle(params, models, seed, cycles, visits=None):
    """The first `cycles` oracle cycles, fed from the kernel's spawned
    children: one standard_normal() per observation, and the budget generator
    for the fractional budgets. visits, when given, gets at every visit entry
    the observations drawn so far per level."""
    m = params.m
    children = np.random.SeedSequence(seed_entropy(seed) + (RENEWAL_TAG,)).spawn(m + 1)
    gens = [np.random.Generator(np.random.Philox(child)) for child in children]
    drawn = [0] * (m + 1)

    def observe(mdl):
        gen = gens[mdl.id - 1]

        def draw():
            drawn[mdl.id] += 1
            return mdl.pre.mean + mdl.pre.std * gen.standard_normal()
        return draw

    def llr(mdl):
        terms = llr_terms(mdl)
        return lambda x: llr_from_terms(terms, x)

    def resolve(budget):
        if visits is not None:
            visits.append(list(drawn))
        return resolve_truncation(budget, gens[m])

    by_id = [None] + sorted(models, key=lambda mdl: mdl.id)
    llrs = [None] + [llr(mdl) for mdl in by_id[1:]]
    obs = [None] + [observe(mdl) for mdl in by_id[1:]]
    return [straightline.renewal_cycle(m, params.data_efficient, params.scales,
                                       params.budgets, params.mu, llrs, obs, resolve)
            for _ in range(cycles)]


def kernel_rows(params, models, seed, cycles):
    out = _RenewalKernel(params, models, seed).run(cycles)
    width = params.m + 1
    return [list(out[k:k + width]) for k in range(0, cycles * width, width)]


@st.composite
def _renewal_policies(draw):
    m = draw(st.integers(1, 3))
    de = draw(st.booleans())
    # two decimals in [0, 4], with integers and zeros drawn often
    budget = st.one_of(st.floats(0.0, 4.0).map(lambda b: round(b, 2)),
                       st.integers(0, 4).map(float))
    return PolicyParams(
        m=m,
        A=3.0,
        scales={i: draw(st.floats(0.5, 10.0)) for i in range(1 if de else 2, m + 1)},
        budgets={j: draw(budget) for j in range(0 if de else 1, m)},
        mu=draw(st.floats(0.05, 0.3)) if de else None,
        data_efficient=de,
    )


@settings(deadline=None, max_examples=150)
@given(params=_renewal_policies(), models=st.sampled_from(_RENEWAL_MODELS),
       seed=st.integers(0, 2**32 - 1), cycles=st.integers(1, 40))
def test_renewal_kernel_matches_flat_cycle(params, models, seed, cycles):
    models = models[:params.m]
    assert kernel_rows(params, models, seed, cycles) == \
        renewal_oracle(params, models, seed, cycles)


def test_renewal_kernel_refills_mid_visit():
    # budget ~300 at scale 10: a level-1 visit opens far below its ceiling,
    # reflects there and runs its budget out, so the 16 -> 32 -> 64 block
    # refills of the level-1 stream fall inside visits. Every visit resolves
    # the fractional budget with one coin, so 60 cycles take the budget
    # stream past its 16 -> 32 refills as well.
    models = _RENEWAL_MODELS[0][:2]
    params = PolicyParams(m=2, A=3.0, scales={2: 10.0}, budgets={1: 299.5})
    visits = []
    oracle = renewal_oracle(params, models, 5, 60, visits)
    assert kernel_rows(params, models, 5, 60) == oracle
    assert len(visits) > 16 + 32  # one budget coin per visit
    starts = [drawn[1] for drawn in visits]  # level 1 is the only level entered
    ends = starts[1:] + [sum(row[1] for row in oracle)]
    for refill in (16, 16 + 32, 16 + 32 + 64):
        assert any(a < refill < b for a, b in zip(starts, ends)), refill


# Unrecorded episodes (episode_summary) take their pre-change steps on the
# renewal kernel, which adds LLR increments scored per block in numpy, and
# score the last few inline; recorded ones (run_episode) score every
# observation inline. Change points 48, 49 and 50 put the change
# at a single-level stream's 32 -> 64 block edge, 112 at its 64 -> 128 edge,
# and 9000 inside the 4096-value blocks.
_MODELS3 = (gaussian_model(1, 0.5), gaussian_model(2, 0.75), gaussian_model(3, 1.0))
_SCORED_POLICIES = {
    "cusum": PolicyParams(m=1, A=7.0),
    "2e": PolicyParams(m=2, A=7.0, scales={2: 1.0}, budgets={1: 2}),
    "3e": PolicyParams(m=3, A=7.0, scales={2: 1.0, 3: 1.5}, budgets={1: 2, 2: 3}),
    "de2e": PolicyParams(m=2, A=7.0, scales={1: 1.0, 2: 1.0}, budgets={0: 3, 1: 2},
                         mu=0.1, data_efficient=True),
    "truncated": PolicyParams(m=2, A=7.0, scales={2: 1.0}, budgets={1: 2},
                              top_truncation=4000.5),
    "fractional": PolicyParams(m=3, A=7.0, scales={2: 2.0, 3: 1.0},
                               budgets={1: 2.5, 2: 1.3}),
}
_SCORED_CHANGES = (1, 48, 49, 50, 112, 9000, math.inf)


def _crosses_into_scored_block(steps, nu):
    """Whether one visit takes a level's 48th and 49th observations, the
    last of its stream's 32-value block and the first of its 64-value one,
    before the change: a block that the kernel scores, drawn in mid-visit."""
    drawn = [0] * 4
    for prev, cur in zip((None,) + steps, steps):
        drawn[cur.level] += 1
        if drawn[cur.level] == 49 and cur.level and cur.n < nu and prev.level == cur.level:
            return True
    return False


@pytest.mark.parametrize("name", _SCORED_POLICIES)
def test_unrecorded_episodes_match_recorded_ones(name):
    params = _SCORED_POLICIES[name]
    models = _MODELS3[:params.m]
    crossed = False
    for nu in _SCORED_CHANGES:
        scenario = Scenario(models, nu, horizon=20_000)
        for seed in range(3):
            trace = run_episode(params, scenario, (seed,))
            summary = episode_summary(params, scenario, (seed,))
            assert (summary.stopping_time, summary.stop_reason, summary.counts) == \
                (trace.stopping_time, trace.stop_reason, trace.counts)
            crossed = crossed or _crosses_into_scored_block(trace.steps, nu)
    assert crossed


def _observations(mdl, seed, size, nu=math.inf, calls=None):
    """The observations an episode seeded seed draws from mdl's substream,
    one per call: pre-change before step nu, post-change from nu on.
    calls[0], shared by the experiments of one episode, counts the calls,
    which is the step n when every step draws."""
    z = iter(observation_generator(seed, mdl.id).standard_normal(size).tolist())
    calls = calls or [0]

    def draw():
        calls[0] += 1
        density = mdl.post if calls[0] >= nu else mdl.pre
        return density.mean + density.std * next(z)
    return draw


def _long_episodes(seed, A, horizon):
    """Pre-change cusum, 2e and de2e episodes seeded seed, with threshold A
    and the horizon, each as (engine summary, flat stopping time, flat
    records or None for cusum). The flat loops draw from the same substreams
    and resolve budgets from the episode's control stream."""
    cusum = episode_summary(PolicyParams(m=1, A=A),
                            Scenario(MODELS[:1], math.inf, horizon=horizon), seed)
    yield cusum, straightline.run_cusum(
        A, llr_x, _observations(MODELS[0], seed, horizon), max_steps=horizon), None
    two = PolicyParams(m=2, A=A, scales={2: 1.0}, budgets={1: 2.5})
    de = PolicyParams(m=2, A=A, scales={1: 1.0, 2: 1.0}, budgets={0: 3.5, 1: 2},
                      mu=0.1, data_efficient=True)
    scenario = Scenario(MODELS, math.inf, horizon=horizon)
    for params, flat, args in ((two, straightline.run_2e, (1.0, 2.5)),
                               (de, straightline.run_de2e, (1.0, 1.0, 2, 3.5, 0.1))):
        ctrl = control_generator(seed)
        records, stop, _ = flat(*args, A, llr_y, llr_x,
                                _observations(MODELS[1], seed, horizon),
                                _observations(MODELS[0], seed, horizon),
                                lambda v: resolve_truncation(v, ctrl),
                                max_steps=horizon)
        yield episode_summary(params, scenario, seed), stop, records


@st.composite
def _top_walk_policies(draw, ms=st.integers(2, 3), flat=False):
    """Policies for the top-walk identity; flat: ones the straight-line
    loops run, which have no top truncation in the data-efficient scheme."""
    m = draw(ms)
    de = draw(st.booleans())
    # two decimals in [0, 3], with integers and zeros drawn often
    budget = st.one_of(st.floats(0.0, 3.0).map(lambda b: round(b, 2)),
                       st.integers(0, 3).map(float))
    top = st.none() if flat and de else \
        st.one_of(st.none(), st.floats(0.0, 30.0).map(lambda t: round(t, 1)))
    return PolicyParams(
        m=m,
        A=draw(st.floats(0.5, 3.0)),
        scales={i: draw(st.floats(0.25, 4.0)) for i in range(1 if de else 2, m + 1)},
        budgets={j: draw(budget) for j in range(0 if de else 1, m)},
        mu=draw(st.floats(0.05, 0.3)) if de else None,
        data_efficient=de,
        top_truncation=draw(top),
    )


@settings(deadline=None, max_examples=40)
@given(params=_top_walk_policies(), nu=st.sampled_from([1, math.inf]),
       seed=st.integers(0, 2**32 - 1))
def test_top_walk_is_the_top_experiments_cusum(params, nu, seed):
    # with the change at 1 or never, an episode's top steps are the plain
    # CUSUM (m = 1, same A) on the top experiment's stream: a visit below
    # the top reads only lower streams and control coins, and the top
    # starts again at 0.0, where the CUSUM reflects. A top truncation K,
    # resolved by the control stream's first coin, stops the walk at
    # min(T, K) top steps; an episode that the horizon cuts short has
    # taken fewer
    m = params.m
    models = _MODELS3[:m]
    terms = llr_terms(models[-1])
    trials, horizon = 6, 20_000
    want = []
    for t in range(trials):
        T = straightline.run_cusum(params.A, lambda x: llr_from_terms(terms, x),
                                   _observations(models[-1], (seed, t), horizon, nu),
                                   max_steps=horizon)
        K = math.inf if params.top_truncation is None else \
            resolve_truncation(params.top_truncation, control_generator((seed, t)))
        want.append(min(math.inf if T is None else T, K))
    for handoff in (sys.maxsize, 2):
        with patch.object(simulate, "_MIN_ROWS", 4), \
                patch.object(simulate, "_HANDOFF_ROWS", handoff):
            times, counts = _trial_table(params, models, nu, horizon, trials, seed, 0.95)
        for time, got, top in zip(times.tolist(), counts[:, m].tolist(), want):
            assert got == top if time >= 0 else got < top


def _top_steps_and_cusum(params, seed, nu, horizon):
    """An episode of tests/straightline.py's two-experiment loops seeded
    seed, as (stopping time or None, its steps of experiment 2), and the
    plain CUSUM's stopping time capped by the top truncation, min(T, K),
    on the episode's experiment-2 stream."""
    models = _MODELS3[:2]
    terms_y, terms_x = llr_terms(models[1]), llr_terms(models[0])
    ctrl = control_generator(seed)
    streams = (lambda v: llr_from_terms(terms_y, v), lambda v: llr_from_terms(terms_x, v),
               _observations(models[1], seed, horizon, nu),
               _observations(models[0], seed, horizon, nu),
               lambda v: resolve_truncation(v, ctrl))
    a = params.scales
    if params.data_efficient:
        records, stop, _ = straightline.run_de2e(
            a[2], a[1], params.budgets[1], params.budgets[0], params.mu, params.A, *streams,
            max_steps=horizon)
    else:
        records, stop, _ = straightline.run_2e(
            a[2], params.budgets[1], params.A, *streams,
            top_budget=params.top_truncation, max_steps=horizon)
    T = straightline.run_cusum(params.A, streams[0], _observations(models[1], seed, horizon, nu),
                               max_steps=horizon)
    K = math.inf if params.top_truncation is None else \
        resolve_truncation(params.top_truncation, control_generator(seed))
    top = sum(source == 2 for _, source, _, _ in records)
    return stop, top, min(math.inf if T is None else T, K)


@settings(deadline=None, max_examples=40)
@given(params=_top_walk_policies(st.just(2), flat=True), nu=st.sampled_from([1, math.inf]),
       seed=st.integers(0, 2**32 - 1))
def test_flat_loops_top_walk_is_the_top_experiments_cusum(params, nu, seed):
    # the identity above on tests/straightline.py's run_2e and run_de2e,
    # which share no code with the engine, the lockstep runner or the
    # renewal kernel: an episode's experiment-2 steps are the plain CUSUM's
    # stopping time on the experiment-2 stream, min(T, K) with a top
    # truncation K, and fewer when the horizon cuts the episode short
    for t in range(6):
        stop, top, want = _top_steps_and_cusum(params, (seed, t), nu, 2000)
        assert top == want if stop is not None else top < want


def test_unrecorded_long_episodes_match_the_flat_loops():
    # long pre-change episodes, which the renewal kernel takes nearly whole,
    # against the flat loops. At A = 6 every one stops at the threshold,
    # after 268 to 17290 steps; at A = inf every one is cut at its horizon,
    # some inside a visit below the top
    stops = []
    cut_below = 0
    for seed in range(6):
        for A, horizon in ((6.0, 60_000), (math.inf, 9000 + 101 * seed)):
            for got, stop, records in _long_episodes(seed, A, horizon):
                assert got.stopping_time == stop
                if records is None:
                    assert got.counts[1] == got.steps_run
                else:
                    counts = Counter(source for _, source, _, _ in records)
                    assert got.counts == {j: counts[j] for j in range(3)}
                if math.isinf(A):
                    assert stop is None and got.steps_run == horizon
                    if records is not None:
                        # the last step neither is at the top nor returns to it
                        cut_below += records[-1][1] != 2 and records[-1][3] != 0.0
                else:
                    stops.append(stop)
    assert None not in stops
    # some outlast the 16 + 32 + ... + 4096 = 8176 steps of the block schedule
    assert sum(n > 8176 for n in stops) >= 4
    assert cut_below >= 3


def _in_level1_visit(seed):
    """A step k > 64 at which the pre-change 2e episode seeded seed is in a
    level-1 visit that step k - 1 did not end, or None."""
    ctrl = control_generator(seed)
    records, _, _ = straightline.run_2e(
        1.0, 2.5, math.inf, llr_y, llr_x, _observations(MODELS[1], seed, 400),
        _observations(MODELS[0], seed, 400),
        lambda v: resolve_truncation(v, ctrl), max_steps=400)
    for n, source, _, d in records[64:]:
        if source == 1 and d != 0.0:
            return n + 1
    return None


def test_episodes_across_the_change_match_the_flat_loops():
    # the engine runs the steps before nu and the steps from nu on as two
    # runs; the flat loops switch densities inside one loop. Change points 49
    # and 113 are the first values of a single stream's 64- and 128-value
    # blocks; the last one falls inside a level-1 visit
    two = PolicyParams(m=2, A=6.0, scales={2: 1.0}, budgets={1: 2.5})
    spans = 0
    for seed in range(4):
        for nu in (2, 49, 50, 113, _in_level1_visit(seed)):
            cusum = episode_summary(PolicyParams(m=1, A=6.0), Scenario(MODELS[:1], nu), seed)
            assert cusum.stopping_time == straightline.run_cusum(
                6.0, llr_x, _observations(MODELS[0], seed, 2000, nu), max_steps=2000)
            calls = [0]
            ctrl = control_generator(seed)
            records, stop, reason = straightline.run_2e(
                1.0, 2.5, 6.0, llr_y, llr_x, _observations(MODELS[1], seed, 2000, nu, calls),
                _observations(MODELS[0], seed, 2000, nu, calls),
                lambda v: resolve_truncation(v, ctrl), max_steps=2000)
            got = episode_summary(two, Scenario(MODELS, nu), seed)
            counts = Counter(source for _, source, _, _ in records)
            assert (got.stopping_time, got.stop_reason, got.counts) == \
                (stop, reason, {j: counts[j] for j in range(3)})
            assert calls[0] == stop
            # a level-1 visit that step nu - 1 leaves open runs on at nu
            if stop is not None and nu < stop:
                n, source, _, d = records[nu - 2]
                spans += source == 1 and d != 0.0
    assert spans >= 4
