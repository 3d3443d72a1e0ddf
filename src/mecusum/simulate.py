"""Episode simulation: change-point scenarios driving the detection engine.

Observations for each experiment come from their own counter-based substream,
so trials are reproducible and order-independent: the stream for experiment i
in a run seeded s is Philox keyed by (s..., OBS_STREAM_TAG, i), and all coin
flips and budget resolutions draw from a separate control stream. The
change point ends one run and starts the next: steps before nu map the
buffered standard normals through the pre-change densities, the rest through
the post-change ones, so the change never perturbs stream alignment.

Every stream is an engine._Stream, read in blocks that grow from 16 values,
and its generator is built on its first draw. The engine takes the control
stream's uniforms one at a time through random(), for fractional budgets;
an RSS episode reads them a block at a time as its coins, in _run_rss, a
private loop over locals that takes the same steps as the public,
callback-fed engine.run_rss. The public single-episode calls build a fresh
generator per stream. The estimators instead pass an EpisodeKeys table: it
hashes the Philox keys of every episode in one vectorised pass
(SeedSequence's hash, ported to numpy) and re-keys one reused generator per
stream on its first draw. The keys are SeedSequence's, so the values are
the same either way. An episode with a finite change point and no horizon
stops at the estimators' safety horizon, 1e4 * e^A steps, so no episode
runs unbounded.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass
from functools import partial
from typing import Callable, Sequence

import numpy as np

from .densities import ExperimentModel, _count, check_models
from .engine import Action, PolicyParams, RssParams, _action, _EngineCore, _Stream

OBS_STREAM_TAG = 1
CONTROL_STREAM_TAG = 2

# Horizon used by config-driven flows when change_point is infinite and no
# horizon was given explicitly.
DEFAULT_INFINITE_HORIZON = 1_000_000


def seed_entropy(seed: int | Sequence[int]) -> tuple[int, ...]:
    """Normalize a seed (int or sequence of ints) into SeedSequence entropy.

    A non-empty tuple of non-negative plain ints is returned as it is."""
    if type(seed) is tuple and seed:
        for p in seed:
            if type(p) is not int or p < 0:
                break
        else:
            return seed
    if isinstance(seed, (int, np.integer)):
        seed = (seed,)
    elif isinstance(seed, (str, bytes)) or not isinstance(seed, Iterable):
        # iterating a str would split "12" into the seed (1, 2)
        raise ValueError(f"seed must be an int or a sequence of ints, got {seed!r}")
    parts = tuple(seed)
    if not parts:
        raise ValueError("seed must not be empty")
    for p in parts:
        # int() would truncate 1.5 to 1 and turn True into 1
        if isinstance(p, bool) or not isinstance(p, (int, np.integer)) or p < 0:
            raise ValueError(f"seed components must be non-negative ints, got {p!r}")
    return tuple(int(p) for p in parts)


def _philox(seed: Sequence[int] | np.random.SeedSequence) -> np.random.Generator:
    """A Philox generator keyed by SeedSequence entropy or a SeedSequence."""
    return np.random.Generator(np.random.Philox(seed))


def observation_generator(seed: int | Sequence[int], experiment_id: int) -> np.random.Generator:
    return _philox(seed_entropy(seed) + (OBS_STREAM_TAG, experiment_id))


def control_generator(seed: int | Sequence[int]) -> np.random.Generator:
    return _philox(seed_entropy(seed) + (CONTROL_STREAM_TAG,))


def _fresh_generator(entropy: tuple[int, ...], tag: tuple[int, ...]) -> np.random.Generator:
    # looked up by module name when called, so a patched name takes effect
    if tag[0] == CONTROL_STREAM_TAG:
        return control_generator(entropy)
    return observation_generator(entropy, tag[1])


# SeedSequence's entropy hash (numpy/random/bit_generator.pyx) over uint32
# words. Its hash constant advances the same way for every entropy, so the
# constants are Python ints and only the words are arrays.
_M32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16


def _seed_words(entropy: Sequence[int]) -> list[int]:
    """The uint32 words SeedSequence reads from non-negative ints: each
    int's words, least significant first; 0 is one word."""
    words = []
    for v in entropy:
        words.append(v & _M32)
        v >>= 32
        while v:
            words.append(v & _M32)
            v >>= 32
    return words


def _hash_consts(const: int, mult: int):
    while True:
        nxt = const * mult & _M32
        yield np.uint32(const), np.uint32(nxt)
        const = nxt


def _hashmix(value: np.ndarray, consts) -> np.ndarray:
    xor, mult = next(consts)
    value = (value ^ xor) * mult
    return value ^ value >> _XSHIFT


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
    return r ^ r >> _XSHIFT


def _philox_keys(words: np.ndarray) -> np.ndarray:
    """Row k is SeedSequence(e).generate_state(2, np.uint64), where row k of
    the uint32 matrix words holds the words of entropy e."""
    rows, width = words.shape
    cols = [words[:, i] for i in range(width)]
    consts = _hash_consts(_INIT_A, _MULT_A)
    with np.errstate(over="ignore"):
        # entropy words into the pool, padded with hashed zeros
        pool = [_hashmix(cols[i] if i < width else np.zeros(rows, np.uint32), consts)
                for i in range(_POOL_SIZE)]
        for src in range(_POOL_SIZE):
            for dst in range(_POOL_SIZE):
                if src != dst:
                    pool[dst] = _mix(pool[dst], _hashmix(pool[src], consts))
        for src in range(_POOL_SIZE, width):
            for dst in range(_POOL_SIZE):
                pool[dst] = _mix(pool[dst], _hashmix(cols[src], consts))
        # two uint64 are four uint32 words: the pool read once, paired
        # little-endian
        consts = _hash_consts(_INIT_B, _MULT_B)
        state = [_hashmix(word, consts).astype(np.uint64) for word in pool]
    return np.stack([state[0] | state[1] << np.uint64(32),
                     state[2] | state[3] << np.uint64(32)], axis=1)


_KEY_CHUNK = 4096


class EpisodeKeys:
    """Philox keys of the episodes seeded base + (t,) for 0 <= t < trials,
    with one reused generator per stream tag.

    An episode re-keys a tag's generator on its first draw from that stream,
    to the key a fresh generator for the same seed and tag gets, so it draws
    the same values. Keys are hashed for _KEY_CHUNK trials at a time, per
    tag, when a tag is first drawn from in that chunk. The episodes must run one after
    another: an episode's streams share the table's generators.
    """

    def __init__(self, base: tuple[int, ...], trials: int) -> None:
        if trials > 2**32:
            # the trial number must stay one uint32 word
            raise ValueError(f"at most 2**32 trials can be keyed, got {trials}")
        self.base = base
        self.trials = trials
        self.words = _seed_words(base)
        self.start = 0
        self.keys: dict[tuple[int, ...], np.ndarray] = {}  # per tag, this chunk's
        self.gens: dict[tuple[int, ...], np.random.Generator] = {}
        # a fresh Philox's state; the setter copies it, so one dict serves all
        self.state = {"bit_generator": "Philox",
                      "state": {"counter": [0, 0, 0, 0], "key": None},
                      "buffer": [0, 0, 0, 0], "buffer_pos": 4,
                      "has_uint32": 0, "uinteger": 0}

    def generators(
        self, entropy: tuple[int, ...]
    ) -> Callable[[tuple[int, ...]], np.random.Generator]:
        """The generator source of the episode seeded entropy."""
        t = entropy[-1]
        if entropy[:-1] != self.base or not 0 <= t < self.trials:
            raise ValueError(f"seed {entropy} is not base {self.base} plus a trial "
                             f"below {self.trials}")
        return partial(self.rekey, t)

    def rekey(self, t: int, tag: tuple[int, ...]) -> np.random.Generator:
        """Tag's generator, keyed for trial t with a fresh counter and buffer."""
        start = t - t % _KEY_CHUNK
        if start != self.start:
            self.start, self.keys = start, {}
        keys = self.keys.get(tag)
        if keys is None:
            keys = self.keys[tag] = self._hash(tag)
        gen = self.gens.get(tag)
        if gen is None:
            gen = self.gens[tag] = np.random.Generator(np.random.Philox(0))
        self.state["state"]["key"] = keys[t - start].tolist()
        gen.bit_generator.state = self.state
        return gen

    def _hash(self, tag: tuple[int, ...]) -> np.ndarray:
        start = self.start
        stop = min(start + _KEY_CHUNK, self.trials)
        n = len(self.words)
        tag_words = _seed_words(tag)
        words = np.empty((stop - start, n + 1 + len(tag_words)), np.uint32)
        words[:, :n] = self.words
        words[:, n] = np.arange(start, stop, dtype=np.uint32)
        words[:, n + 1:] = tag_words
        return _philox_keys(words)


@dataclass(frozen=True)
class Scenario:
    """Experiment set plus the change point nu (integer >= 1, or math.inf for
    a run that never changes). horizon caps the episode length.

    by_id, check_models' [None, model 1, ..., model m], is kept as a plain
    attribute, not a field, so an episode of an m-experiment policy reuses
    it instead of checking the set again.
    """

    models: tuple[ExperimentModel, ...]
    change_point: float
    horizon: int | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "models", tuple(self.models))
        object.__setattr__(self, "by_id", check_models(self.models))
        nu = self.change_point
        if math.isinf(nu) and nu > 0:
            object.__setattr__(self, "change_point", math.inf)
        elif not isinstance(nu, bool) and float(nu).is_integer() and nu >= 1:
            object.__setattr__(self, "change_point", int(nu))
        else:
            raise ValueError(
                f"change_point must be an integer >= 1 or infinity, got {nu}"
            )
        if self.horizon is not None:
            object.__setattr__(self, "horizon", _count("horizon", self.horizon, 1))


@dataclass(frozen=True)
class TraceStep:
    n: int
    action: Action
    observation: float | None
    statistic: float
    level: int  # level at which the action was taken; experiment id for RSS
    event: str


@dataclass(frozen=True)
class EpisodeTrace:
    steps: tuple[TraceStep, ...]
    stopping_time: int | None  # None when the horizon cut the episode short
    stop_reason: str | None
    counts: dict[int, int]  # observations per experiment id; key 0 counts idle steps
    seed: int | tuple[int, ...]


@dataclass(frozen=True)
class EpisodeSummary:
    stopping_time: int | None
    stop_reason: str | None
    counts: dict[int, int]
    steps_run: int


def run_episode(
    params: PolicyParams | RssParams,
    scenario: Scenario,
    seed: int | Sequence[int],
) -> EpisodeTrace:
    """Simulate one episode and keep the full step-by-step trace."""
    entropy = seed_entropy(seed)
    steps = []
    stopping_time, stop_reason, counts = _drive(params, scenario, entropy, steps.append)
    return EpisodeTrace(
        steps=tuple(steps),
        stopping_time=stopping_time,
        stop_reason=stop_reason,
        counts=counts,
        seed=entropy[0] if isinstance(seed, (int, np.integer)) else entropy,
    )


def episode_summary(
    params: PolicyParams | RssParams,
    scenario: Scenario,
    seed: int | Sequence[int],
    *,
    keys: EpisodeKeys | None = None,
) -> EpisodeSummary:
    """Simulate one episode, keeping only the stopping time and counts.

    With keys, a table whose trials include seed, the streams re-key its
    generators instead of building fresh ones; the values are the same.
    """
    entropy = seed_entropy(seed)
    make_gen = None if keys is None else keys.generators(entropy)
    stopping_time, stop_reason, counts = _drive(params, scenario, entropy, make_gen=make_gen)
    return EpisodeSummary(stopping_time, stop_reason, counts, sum(counts.values()))


def _default_safety_horizon(A: float) -> int:
    # 10^4 times the false-alarm target implied by the threshold; the cap on
    # the exponent only guards math.exp overflow for absurd thresholds.
    return int(10_000.0 * math.exp(min(A, 700.0)))


def _drive(params, scenario, entropy, record=None, make_gen=None):
    """Run one episode; returns (stopping time, stop reason, counts).

    record, when given, gets each step as a TraceStep when it is taken.
    The callers pass entropy through seed_entropy, so a bad seed fails
    before the first step even when the episode never draws. make_gen(tag)
    gives the generator of the stream tagged tag, on the stream's first
    draw; by default a fresh one, built through the module-level
    observation_generator and control_generator. Without a horizon, an
    episode is cut at the safety horizon, 1e4 * e^A steps.
    """
    if make_gen is None:
        make_gen = partial(_fresh_generator, entropy)
    nu = scenario.change_point
    horizon = scenario.horizon
    if horizon is None:
        if math.isinf(nu):
            raise ValueError("a horizon is required when change_point is infinite")
        horizon = _default_safety_horizon(params.A)
    rss = isinstance(params, RssParams)
    m = 2 if rss else params.m
    # the scenario has checked its models for m = their number
    by_id = scenario.by_id if m == len(scenario.models) else check_models(scenario.models, m)
    # streams[i] is experiment i's observation stream
    streams = [None] + [_Stream(partial(make_gen, (OBS_STREAM_TAG, mdl.id)), mdl)
                        for mdl in by_id[1:]]
    ctrl = _Stream(partial(make_gen, (CONTROL_STREAM_TAG,)))
    on_step = None
    if record is not None:
        def on_step(n, lvl, x, d, event):
            record(TraceStep(n, _action(lvl), x, d, lvl, event))
    if rss:
        stopping_time, counts = _run_rss(params, streams, ctrl, nu, horizon, on_step)
        return stopping_time, None if stopping_time is None else "threshold", counts
    core = _EngineCore(params, ctrl)
    # the change point ends one run and starts the next on the same core
    if nu > 1:
        core.run(streams, False, min(nu - 1, horizon), on_step)
    core.run(streams, True, horizon, on_step)
    stopping_time = core.time if core.stopped else None
    return stopping_time, core.stop_reason, dict(enumerate(core.counts))


def _run_rss(params, streams, ctrl, nu, horizon, record=None):
    """engine.run_rss on an episode's streams: (stopping time or None,
    counts with key 0 for the idle steps, which RSS never takes).

    The same steps, values and record rows as run_rss fed by the streams'
    observations (post-change from step nu on) and ctrl.random(), as one
    loop over locals, like _EngineCore.run: each experiment's stream and
    LLR terms live in locals (lo for experiment 1, hi for 2), and so does
    the control stream's block of coins. It runs the pre-change steps, then
    the post-change ones, with that regime's means and stds in locals.
    Every step n >= 2 takes a coin, whatever p_hi is.
    """
    A, p_hi = params.A, params.p_hi
    lo, hi = streams[1], streams[2]
    lbuf, lpos, lend = lo.buf, lo.pos, lo.end
    lc, lq0, lm0, lq1, lm1 = lo.terms
    hbuf, hpos, hend = hi.buf, hi.pos, hi.end
    hc, hq0, hm0, hq1, hm1 = hi.terms
    # step 1 takes experiment 2 without a coin: a coin of -inf stands in
    coins, cpos, cend = [-math.inf], 0, 1
    d = 0.0
    n = lows = 0
    for stop, lm, ls, hm, hs in (
        (min(nu - 1, horizon), lo.pre_mean, lo.pre_std, hi.pre_mean, hi.pre_std),
        (horizon, lo.post_mean, lo.post_std, hi.post_mean, hi.post_std),
    ):
        while n < stop:
            n += 1
            if cpos == cend:
                ctrl.refill()
                coins, cend, cpos = ctrl.buf, ctrl.end, 0
            up = coins[cpos] < p_hi
            cpos += 1
            if up:
                if hpos == hend:
                    hi.refill()
                    hbuf, hend, hpos = hi.buf, hi.end, 0
                x = hm + hs * hbuf[hpos]
                hpos += 1
                d0 = x - hm0
                d1 = x - hm1
                d += hc + hq0 * d0 * d0 - hq1 * d1 * d1
            else:
                lows += 1
                if lpos == lend:
                    lo.refill()
                    lbuf, lend, lpos = lo.buf, lo.end, 0
                x = lm + ls * lbuf[lpos]
                lpos += 1
                d0 = x - lm0
                d1 = x - lm1
                d += lc + lq0 * d0 * d0 - lq1 * d1 * d1
            if d < 0.0:  # max(d, 0.0), as run_rss reflects
                d = 0.0
            if d >= A:
                if record is not None:
                    record(n, 2 if up else 1, x, d, "stop")
                return n, {0: 0, 1: lows, 2: n - lows}
            if record is not None:
                record(n, 2 if up else 1, x, d, "")
    return None, {0: 0, 1: lows, 2: n - lows}
