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
generator per stream. The estimators' episodes instead draw from an
EpisodeKeys table: it hashes the Philox keys of every episode in one
vectorised pass (SeedSequence's hash, ported to numpy) and re-keys one
reused generator per stream on its first draw. The keys are SeedSequence's,
so the values are the same either way. An episode with a finite change point and no horizon
stops at the estimators' safety horizon, 1e4 * e^A steps, so no episode
runs unbounded.

An episode's steps run on two loops. An unrecorded episode takes its
pre-change steps on the renewal kernel's visit recursion
(_RenewalKernel.pre_change), the loop that estimate_por_renewal and
calibrate run, on the episode's streams and control coins: so the direct
and renewal POR routes share it. Its top walk reads the top stream a block
slice at a time and runs level m - 1's visits inline; the levels below
run as visit closures, built per call, that read fractional-budget coins
inline. It hands the episode to _EngineCore.run at
the top level once a top step and the longest visit below it might pass
the change or the horizon, or the next top step might spend a top
truncation. The engine takes the rest: those last pre-change steps, the
post-change steps, and every step of a recorded episode. The tests that
compare recorded with unrecorded episodes check the recursion against
_EngineCore.run, and both against tests/straightline.py.

The estimators run their episodes on one runner, _lockstep: a batch of up
to _KEY_CHUNK trials advances one time step per numpy pass, every trial's
state held in arrays, and the scalar loops take its last _HANDOFF_ROWS
trials (the rule is at _HANDOFF_ROWS). Each trial reads its own streams,
keyed from the same EpisodeKeys table, in blocks whose sizes do not change
Philox's values, and each pass does the scalar loop's float operations in
its order, so every row is the one its episode gives alone. Single
episodes, traces and step() run on the scalar loops only.
"""

from __future__ import annotations

import math
import mmap
from collections.abc import Iterable
from dataclasses import dataclass
from functools import partial
from struct import pack
from typing import Sequence

import numpy as np

from .densities import ExperimentModel, _count, _real, check_models
from .engine import (
    Action,
    EngineState,
    LevelState,
    PolicyParams,
    RssParams,
    _action,
    _EngineCore,
    _frozen,
    _llrs,
    _Stream,
)

OBS_STREAM_TAG = 1
CONTROL_STREAM_TAG = 2
# the renewal kernel's own streams: (seed..., RENEWAL_TAG) spawns one per level
RENEWAL_TAG = 3

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

    def own(self, t: int, tag: tuple[int, ...]) -> np.random.Generator:
        """A generator of its own for trial t's stream tag, keyed as rekey
        keys the shared one."""
        self.rekey(t, tag)  # hashes the keys of t's chunk
        return np.random.Generator(np.random.Philox(key=self.keys[tag][t - self.start]))

    def first_blocks(self, tag: tuple[int, ...], trials: np.ndarray, out: np.ndarray) -> None:
        """Row k of out: the first values of trial trials[k]'s stream tag,
        each drawn as rekey keys it; the trials lie in one _KEY_CHUNK.
        Uniforms for the control tag, else standard normals."""
        gen = self.rekey(int(trials[0]), tag)
        draw = gen.random if tag[0] == CONTROL_STREAM_TAG else gen.standard_normal
        draw(out=out[0])
        state = self.state
        key, bits = state["state"], gen.bit_generator
        for row, k in zip(out[1:], self.keys[tag][trials[1:] - self.start].tolist()):
            key["key"] = k
            bits.state = state
            draw(out=row)

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
    a run that never changes). horizon caps the episode length. models is
    a list or tuple of ExperimentModel (check_models), kept as a tuple.

    by_id, check_models' [None, model 1, ..., model m], is kept as a plain
    attribute, not a field, so an episode of an m-experiment policy reuses
    it instead of checking the set again.
    """

    models: tuple[ExperimentModel, ...]
    change_point: float
    horizon: int | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "by_id", check_models(self.models))
        object.__setattr__(self, "models", tuple(self.models))
        nu = self.change_point
        # a bool is a real number, but no change point: it fails the range check
        if not isinstance(nu, bool) and _real("change_point", nu) == math.inf:
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
) -> EpisodeSummary:
    """Simulate one episode, keeping only the stopping time and counts."""
    stopping_time, stop_reason, counts = _drive(params, scenario, seed_entropy(seed))
    return EpisodeSummary(stopping_time, stop_reason, counts, sum(counts.values()))


def _default_safety_horizon(A: float) -> int:
    # 10^4 times the false-alarm target implied by the threshold; the cap on
    # the exponent only guards math.exp overflow for absurd thresholds.
    return int(10_000.0 * math.exp(min(A, 700.0)))


def _setup(params, scenario):
    """An episode's (by_id, change point, horizon): without a horizon, an
    episode is cut at the safety horizon, 1e4 * e^A steps."""
    nu = scenario.change_point
    horizon = scenario.horizon
    if horizon is None:
        if math.isinf(nu):
            raise ValueError("a horizon is required when change_point is infinite")
        horizon = _default_safety_horizon(params.A)
    m = 2 if isinstance(params, RssParams) else params.m
    # the scenario has checked its models for m = their number
    by_id = scenario.by_id if m == len(scenario.models) else check_models(scenario.models, m)
    return by_id, nu, horizon


def _drive(params, scenario, entropy, record=None):
    """Run one episode; returns (stopping time, stop reason, counts).

    record, when given, gets each step as a TraceStep when it is taken.
    The callers pass entropy through seed_entropy, so a bad seed fails
    before the first step even when the episode never draws. Each stream
    gets a fresh generator on its first draw (_fresh_generator).
    """
    by_id, nu, horizon = _setup(params, scenario)
    # streams[i] is experiment i's observation stream
    streams = [None] + [_Stream(partial(_fresh_generator, entropy, (OBS_STREAM_TAG, mdl.id)),
                                mdl) for mdl in by_id[1:]]
    ctrl = _Stream(partial(_fresh_generator, entropy, (CONTROL_STREAM_TAG,)))
    on_step = None
    if record is not None:
        def on_step(n, lvl, x, d, event):
            record(TraceStep(n, _action(lvl), x, d, lvl, event))
    if isinstance(params, RssParams):
        stopping_time, counts = _run_rss(params, streams, ctrl, nu, horizon, on_step)
        return stopping_time, None if stopping_time is None else "threshold", counts
    core = _EngineCore(params, ctrl)
    _episode_runs(params, core, streams, ctrl, nu, horizon, on_step)
    stopping_time = core.time if core.stopped else None
    return stopping_time, core.stop_reason, dict(enumerate(core.counts))


def _episode_runs(params, core, streams, ctrl, nu, horizon, record=None):
    """Run core's episode on from its state at the top level. The change
    point ends one run and starts the next on the same core. Without
    record, the visit recursion takes the pre-change steps it can, and the
    engine takes the rest."""
    if nu > 1:
        stop = min(nu - 1, horizon)
        if record is None:
            _RenewalKernel.of_episode(params, streams, ctrl).pre_change(core, stop)
        core.run(streams, False, stop, record)
    core.run(streams, True, horizon, record)


def _run_rss(params, streams, ctrl, nu, horizon, record=None, n=0, d=0.0, lows=0):
    """engine.run_rss on an episode's streams: (stopping time or None,
    counts with key 0 for the idle steps, which RSS never takes).

    The same steps, values and record rows as run_rss fed by the streams'
    observations (post-change from step nu on) and ctrl.random(), as one
    loop over locals, like _EngineCore.run: each experiment's stream and
    LLR terms live in locals (lo for experiment 1, hi for 2), and so does
    the control stream's block of coins. It runs the pre-change steps, then
    the post-change ones, with that regime's means and stds in locals.
    Every step n >= 2 takes a coin, whatever p_hi is. An episode that the
    lockstep runner hands over resumes after step n, with statistic d and
    lows steps of experiment 1 taken.
    """
    A, p_hi = params.A, params.p_hi
    lo, hi = streams[1], streams[2]
    lbuf, lpos, lend = lo.buf, lo.pos, lo.end
    lc, lq0, lm0, lq1, lm1 = lo.terms
    hbuf, hpos, hend = hi.buf, hi.pos, hi.end
    hc, hq0, hm0, hq1, hm1 = hi.terms
    if n:
        coins, cpos, cend = ctrl.buf, ctrl.pos, ctrl.end
    else:
        # step 1 takes experiment 2 without a coin: a coin of -inf stands in
        coins, cpos, cend = [-math.inf], 0, 1
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


class _RenewalKernel:
    """The pre-change policy as a visit recursion: a zero-floor excursion at
    the top level, then the recursive truncated sub-policy opened by the
    undershoot. Both POR routes run on it: estimate_por_renewal and
    calibrate through run(), and an episode's pre-change steps, from
    estimate_por_direct and estimate_arlfa among others, through
    pre_change().

    run() and pre_change() hold the top walk; each call builds one visit
    closure per lower level (_visit), which loads its stream's buf, pos and
    end when a visit starts and stores pos when it ends. The closures go
    when the call returns, so no reference cycle outlives it. pre_change()
    runs level m - 1 inline, on locals held for the whole call.
    The statistic moves by d += buf[pos]: the level streams are scored, each
    block holding its LLR increments, computed in numpy in llr_from_terms's
    operation order, so the sums are the bits a scalar loop would give. A
    fractional budget reads a coin from budget_rng, a _Stream of uniforms,
    at each entry, as resolve_truncation does. With record = j, run() also
    appends the steps of each level-j visit to self.visits, as native int64
    in visit order: the calibration search reads them. The top walk is the
    top experiment's CUSUM; tests/test_oracles.py pins that identity.

    The renewal constructor draws from streams of its own, keyed by the
    seed and RENEWAL_TAG; of_episode() builds a kernel on an episode's
    level streams and control stream instead.
    """

    def __init__(self, params: PolicyParams, models: Sequence[ExperimentModel], base_seed,
                 record: int = -1) -> None:
        m = params.m
        by_id = check_models(models, m)
        self._tables(params)
        entropy = seed_entropy(base_seed) + (RENEWAL_TAG,)
        children = np.random.SeedSequence(entropy).spawn(m + 1)
        # by level, as the engine reads them; pre-change draws only
        self.streams = [None] + [_Stream(partial(_philox, children[mdl.id - 1]), mdl,
                                         scored=True) for mdl in by_id[1:]]
        self.budget_rng = _Stream(partial(_philox, children[m]))
        self.recorded = record
        self.visits = bytearray()

    @classmethod
    def of_episode(cls, params: PolicyParams, streams: list, ctrl: _Stream) -> _RenewalKernel:
        """A kernel on an episode's streams: level j reads streams[j] and
        the budget coins come from ctrl, so it draws what _EngineCore.run
        draws. reach is the most steps one visit below the top can take:
        B_j = ceil(N_j) * (1 + B_(j-1)) at level j, B_(m-1) in all."""
        self = cls.__new__(cls)
        self._tables(params)
        self.streams = streams
        self.budget_rng = ctrl
        self.recorded = -1
        reach = 0
        for j in range(0 if self.de else 1, self.m):
            reach = math.ceil(params.budgets[j]) * (1 + reach)
        self.reach = reach
        return self

    def _tables(self, params: PolicyParams) -> None:
        self.m = m = params.m
        self.de = params.data_efficient
        self.mu = params.mu if params.mu is not None else 0.0
        # keyed by level: a descent from level j reads a[j] and the budget of j - 1
        self.a = [0.0] * (m + 1)
        for i, v in params.scales.items():
            self.a[i] = v
        self.N = params.budgets
        self.fixed = params.fixed_budgets

    def _budget(self, j: int) -> tuple:
        """Level j's (fixed, coin, low, below): an integer budget and None, or
        None and budget_rng.random, whose coin < below resolves to low, else low + 1."""
        fixed = self.fixed[j]
        if fixed is not None:
            return fixed, None, 0, 0.0
        low = math.floor(self.N[j])
        return None, self.budget_rng.random, low, low + 1.0 - self.N[j]

    def _visit(self, j: int, out):
        """Level j's visit as a closure visit(floor, ceiling, at), which adds
        its steps to out[at + j], or None where no visit opens: below the
        lowest level, and at a fixed budget of 0, where the level above
        reflects instead."""
        if j < (0 if self.de else 1) or self.fixed[j] == 0:
            return None
        child = self._visit(j - 1, out)
        fixed, coin, low, below = self._budget(j)
        record = self.visits.extend if j == self.recorded else None
        if j == 0:
            mu = self.mu

            def visit(floor, ceiling, at):
                budget = fixed if coin is None else low if coin() < below else low + 1
                if not budget:
                    return
                used = 0
                d = floor
                while True:
                    d += mu
                    used += 1
                    if d > ceiling or used == budget:
                        break
                out[at] += used
                if record is not None:
                    record(pack("q", used))
            return visit
        a = self.a[j]
        # nothing opens below level 1 of a plain policy, nor below a fixed
        # budget of 0 (which draws nothing), so there the level reflects
        reflects = child is None
        s = self.streams[j]

        def visit(floor, ceiling, at):
            budget = fixed if coin is None else low if coin() < below else low + 1
            if not budget:
                return
            used = 0
            d = floor
            buf, pos, end = s.buf, s.pos, s.end
            while True:
                if pos == end:
                    s.refill()
                    buf, end, pos = s.buf, s.end, 0
                d += buf[pos]
                pos += 1
                used += 1
                if reflects and d < floor:
                    d = floor
                if d > ceiling:
                    break
                if d < floor:
                    # the budget's last observation may still open the level
                    # below; the level closes when that one does. The visit
                    # below reads only its own stream, so these locals stay
                    # valid across it.
                    child(floor + a * (d - floor), floor, at)
                    d = floor
                if used == budget:
                    break
            s.pos = pos
            out[at + j] += used
            if record is not None:
                record(pack("q", used))
        return visit

    def run(self, cycles: int) -> memoryview:
        """Steps spent at each source in the next `cycles` cycles, as a flat
        memoryview of doubles: cycle k's count for source j (0 = idle) is at
        index k * (m + 1) + j."""
        m = self.m
        width = m + 1
        # zeroed doubles over a bytearray, which numpy views without a copy
        out = memoryview(bytearray(8 * width * cycles)).cast("d")
        visit = self._visit(m - 1, out)
        a = self.a[m]
        s = self.streams[m]
        buf, pos, end = s.buf, s.pos, s.end
        for at in range(0, width * cycles, width):
            d = 0.0
            steps = 0
            while True:
                if pos == end:
                    s.refill()
                    buf, end, pos = s.buf, s.end, 0
                d += buf[pos]
                pos += 1
                steps += 1
                if d < 0.0:
                    break
            out[at + m] = steps
            if visit is not None:
                visit(a * d, 0.0, at)
        s.pos = pos
        return out

    def pre_change(self, core: _EngineCore, stop: int) -> None:
        """Take the pre-change steps of core's episode, from its state at the
        top level, up to time stop, and leave the rest to core.

        The top loop adds the top stream's increments, a block slice at a
        time, and stops above A; an undershoot opens a visit of level m - 1,
        run inline, and the statistic then starts again at 0.0, as the
        engine's ascent to the top floor sets it (a plain m = 1 policy
        reflects instead). These are _EngineCore.run's steps: the same
        increments in the same order, and the same budget coins at the same
        descents. The loop runs while a top step and the visit below it end
        by stop, and takes at most all but one of the top budget's steps,
        so the engine takes the step that spends it. The core goes on from
        the top level, with the statistic, time, counts and top budget, and
        the streams become engine streams again at the same position, unless
        the walk stopped: no step follows a stop, so they stay scored. A run
        with stop within reach of the core's time goes to the engine whole.
        The time, the sum of the counts, is summed once per stride of top
        steps that all begin in time and within the budget.
        """
        m, A, counts = self.m, core.A, core.counts
        width = 1 + self.reach  # the most steps of a top step and its visit below
        last = stop - width  # the latest time a top step may begin at
        n = core.time
        top = counts[m]
        most = top + core.remaining[m] - 1.0  # inf without a top truncation
        if n > last or top >= most:
            return
        streams = self.streams
        for s in streams[1:]:
            s.score()
        # level j = m - 1's visits run in the top loop, on locals, when they
        # read a stream; an m = 1 policy has at most the idle level's closure.
        # Against a level m - 1 closure, this took false_alarm's op_ms_p50
        # from 1206 to 1122 ms (medians of 10 runs each, 2-CPU Xeon VM).
        j = m - 1
        inline = j > 0 and self.fixed[j] != 0
        visit = None if inline else self._visit(j, counts)
        if inline:
            child = self._visit(j - 1, counts)
            reflects = child is None
            fixed, coin, low, below = self._budget(j)
            aj = self.a[j]
            sj = streams[j]
            jbuf, jpos, jend = sj.buf, sj.pos, sj.end
        a = self.a[m]
        s = streams[m]
        buf, pos, end = s.buf, s.pos, s.end
        d = core.D
        counts[m] = 0  # top counts the top steps until the end
        stopped = False
        while n <= last and top < most and not stopped:
            # each top step up to this one begins by last
            upto = min(top + (last - n) // width + 1, most)
            while top < upto and not stopped:
                if pos == end:
                    s.refill()
                    buf, end, pos = s.buf, s.end, 0
                start = pos
                for pos, x in enumerate(buf[pos:min(end, pos + int(upto - top))], pos + 1):
                    d += x
                    if d < 0.0:
                        if inline:
                            budget = fixed if coin is None else low if coin() < below else low + 1
                            if budget:
                                floor = v = a * d
                                used = 0
                                while True:
                                    if jpos == jend:
                                        sj.refill()
                                        jbuf, jend, jpos = sj.buf, sj.end, 0
                                    v += jbuf[jpos]
                                    jpos += 1
                                    used += 1
                                    if reflects and v < floor:
                                        v = floor
                                    if v > 0.0:
                                        break
                                    if v < floor:
                                        child(floor + aj * (v - floor), floor, 0)
                                        v = floor
                                    if used == budget:
                                        break
                                counts[j] += used
                        elif visit is not None:
                            visit(a * d, 0.0, 0)
                        d = 0.0
                    elif d > A:
                        stopped = True
                        break
                top += pos - start
            n = top + sum(counts)
        s.pos = pos
        if inline:
            sj.pos = jpos
        core.remaining[m] = most + 1.0 - top
        counts[m] = top
        core.D, core.time = d, n
        if stopped:
            core.stopped, core.stop_reason = True, "threshold"
        else:
            for s in streams[1:]:
                s.unscore()


# A lockstep stream is read in blocks of _ROW values; a refill draws and
# scores the blocks of at most _FILL_ROWS streams at a time. A batch's
# arrays keep at least _MIN_ROWS rows: numpy keeps freed arrays under 1 KiB
# for reuse, a few of each size, so masks of every size below 1024 rows,
# from a set of trials that shrank step by step, would pile up there.
# _HANDOFF_ROWS is the one rule that picks a trial's loop. A pass costs
# ~100 us however few trials are left, so once at most _HANDOFF_ROWS trials
# of a batch are live, each goes to the scalar loops at the top level if
# its normals are known: at time 0 in a call of at most _HANDOFF_ROWS
# trials, or in a run that starts before the change, which keeps them.
# CPU on a 2-CPU VM, alternating runs, the same estimates:
# - a batch that starts in lockstep with no threshold never hands off: a
#   20k-step 2e estimate_por_direct took 1.90 s at 150 trials and 2.16 s
#   at 300 in lockstep, 0.50 and 1.02 s on the scalar loops;
# - a hand-off at 999 live pre-change trials, not 128: uncapped 1000-trial
#   estimate_arlfa 2e 6.35 -> 3.34 s, 3e 13.50 -> 7.96 s; criterion 1's
#   four 5000-trial calls 16.3-17.1 -> 14.9-15.0 s;
# - a batch handed off at time 0 still builds its arrays: 0.1-0.3 ms more
#   per 30-300-trial estimate_wadd than a loop of single episodes;
# - after the change lockstep pays from about 1000 trials on: 5000-trial
#   estimate_wadd calls (batches of 4096 and 904) on cusum/2e/3e/rss took
#   22.7/37.3/44.7/58.2 ms with the 904 in lockstep, 29.6/44.8/56.7/62.7
#   with them handed off at time 0 (medians of 10 rounds).
_ROW = 32
_FILL_ROWS = 128
_MIN_ROWS = 1024
_HANDOFF_ROWS = 999


def _mapped(streams: int) -> np.ndarray:
    """Zeroed rows of _ROW doubles on an anonymous map, which goes back to
    the system when the array goes: freed through malloc, buffers this size
    would leave the process holding their pages."""
    return np.frombuffer(mmap.mmap(-1, streams * _ROW * 8)).reshape(streams, _ROW)


class _TrialStreams:
    """The streams of a batch of trials, for the lockstep runner: stream
    (i - 1) * stride + r holds row r's experiment i observations, as LLR
    increments of the current regime, and, when the runs read coins,
    stream m * stride + r its control stream (uniforms). Row r < rows is
    trial first + r; slot rows of each plane is a ghost stream of zeros,
    which the runners point stopped trials at and which never runs out.
    buf[s, pos[s]:] holds stream s's next values.

    A stream's first block is drawn on its first read, re-keyed as its
    scalar episode's stream is. Its first refill gives it a generator of
    its own, with the same key, which skips the first block and draws the
    rest. On Philox the values do not depend on the block sizes, so each
    row reads the values its scalar episode reads. The increments are
    scored per block in llr_from_terms's operation order (engine._llrs), so
    they are the bits the scalar loop adds. A run that starts before the
    change keeps the normals in raw as well: it scores them again at the
    change, and hands them to the scalar loops that take its last trials.
    """

    def __init__(self, keys: EpisodeKeys, first: int, rows: int,
                 by_id: Sequence[ExperimentModel | None], nu: float, coins: bool) -> None:
        self.keys = keys
        self.first = first
        self.stride = stride = rows + 1
        self.by_id = by_id
        self.m = m = len(by_id) - 1
        streams = (m + coins) * stride
        self.buf = _mapped(streams)
        self.pos = np.full(streams, _ROW)  # every stream starts with a block read
        self.ghosts = np.arange(rows, streams, stride)
        self.pos[self.ghosts] = 0
        self.drawn = np.zeros(streams, bool)
        self.gens: dict[int, np.random.Generator] = {}
        self.post = nu == 1
        # zeros, so that rows never drawn score to finite values at the change
        self.raw = None if self.post else _mapped(streams)

    def take(self, streams: np.ndarray) -> np.ndarray:
        """The next value of each of streams, which are distinct but for
        the ghosts."""
        pos = self.pos[streams]
        empty = pos == _ROW
        if empty.any():
            self._refill(streams[empty])
            pos[empty] = 0
        self.pos[streams] = pos + 1
        self.pos[self.ghosts] = 0
        return self.buf.ravel().take(streams * _ROW + pos)

    def scalar(self, plane: int, row: int) -> _Stream:
        """A scalar _Stream that goes on from where stream plane * stride +
        row stands: experiment plane + 1's observations, as normals, or the
        control stream's uniforms for plane m."""
        i, tag = self._plane(plane)
        t = self.first + row
        s = _Stream(partial(self.keys.rekey, t, tag), self.by_id[i] if i else None)
        sid = plane * self.stride + row
        if self.drawn[sid]:
            gen = self._continued(sid, t, tag)
            s.draw = gen.standard_normal if i else gen.random
            s.buf = (self.raw if i else self.buf)[sid].tolist()
            s.pos, s.end = int(self.pos[sid]), _ROW
        return s

    def _plane(self, plane: int) -> tuple[int, tuple[int, ...]]:
        """The experiment id of a plane, 0 for the control stream, and its tag."""
        if plane < self.m:
            return plane + 1, (OBS_STREAM_TAG, plane + 1)
        return 0, (CONTROL_STREAM_TAG,)

    def _continued(self, sid: int, t: int, tag: tuple[int, ...]) -> np.random.Generator:
        """Stream sid's own generator, past its first block."""
        gen = self.gens.get(sid)
        if gen is None:
            gen = self.gens[sid] = self.keys.own(t, tag)
            (gen.random if tag[0] == CONTROL_STREAM_TAG else gen.standard_normal)(_ROW)
        return gen

    def switch(self) -> None:
        """Score every observation for the post-change regime."""
        self.post = True
        k = self.stride
        for i in range(1, self.m + 1):
            self.buf[(i - 1) * k:i * k] = self._score(i, self.raw[(i - 1) * k:i * k])
        self.buf[self.ghosts] = 0.0

    def _score(self, i: int, z: np.ndarray) -> np.ndarray:
        model = self.by_id[i]
        side = model.post if self.post else model.pre
        return _llrs(z, side.mean, side.std, model.terms)

    def _refill(self, streams: np.ndarray) -> None:
        """Draw the next block of each of streams, in trial order per plane."""
        k = self.stride
        planes = streams // k
        for plane in sorted(set(planes.tolist())):
            i, tag = self._plane(plane)
            ids = streams[planes == plane]
            new = ~self.drawn[ids]
            self.drawn[ids] = True
            for group, fresh in ((ids[new], True), (ids[~new], False)):
                for at in range(0, group.size, _FILL_ROWS):
                    part = group[at:at + _FILL_ROWS]
                    z = np.empty((part.size, _ROW))
                    if fresh:
                        self.keys.first_blocks(tag, self.first + part - plane * k, z)
                    else:
                        for row, s in zip(z, part.tolist()):
                            gen = self._continued(s, self.first + s - plane * k, tag)
                            (gen.standard_normal if i else gen.random)(out=row)
                    if i and self.raw is not None:
                        self.raw[part] = z
                    self.buf[part] = self._score(i, z) if i else z


def _lockstep(params, scenario, keys):
    """The stopping times (-1 for none) and the steps per experiment id of
    the episodes of keys, as int64 arrays in trial order, each row the one
    episode_summary gives: each _KEY_CHUNK of trials runs as one batch, its
    episodes stepped together, one pass per time step."""
    by_id, nu, horizon = _setup(params, scenario)
    if isinstance(params, RssParams):
        run, coins = _lockstep_rss, True
    else:
        run = _lockstep_engine
        top = params.top_truncation
        coins = (top is not None and not top.is_integer()
                 or None in params.fixed_budgets[0 if params.data_efficient else 1:])
    small = keys.trials <= _HANDOFF_ROWS  # by the call's trials, not a batch's
    parts = []
    for first in range(0, keys.trials, _KEY_CHUNK):
        rows = min(_KEY_CHUNK, keys.trials - first)
        # the streams go when the run returns
        parts.append(run(params, nu, horizon,
                         _TrialStreams(keys, first, rows, by_id, nu, coins), rows, small))
    times, counts = zip(*parts)
    return np.concatenate(times), np.concatenate(counts)


def _lockstep_engine(params, nu, horizon, streams, k, small):
    """_EngineCore.run's decision tree over k trials at once: returns the
    stopping times (-1 for none) and the steps per level.

    Row r of the arrays holds the statistic, level, stream, visit start,
    floor, ceiling and budget left of trial rows[r]; floors[r, j] and
    budgets[r, j] hold level j's, with floors[:, 0] = -inf (the idle level
    has no floor), floors[:, m] = 0 and floors[:, m + 1] = A, so a level's
    ceiling is the floor above it. A stopped trial's row becomes a ghost:
    trial k, which reads a ghost stream and never leaves its band. The
    rows are compacted when half of them are ghosts, down to _MIN_ROWS
    rows, so every mask of a pass spans the rows. The last _HANDOFF_ROWS
    trials go to the scalar loops, each as it reaches the top level, its
    core loaded with its row's state: at time 0 if small (a call of at
    most _HANDOFF_ROWS trials), or later in a run that starts before the
    change, which keeps its normals. Every float operation is the scalar
    loop's, in its order, so the values are the same bits.
    """
    m, A, de = params.m, params.A, params.data_efficient
    mu = params.mu if params.mu is not None else 0.0
    stride = streams.stride
    scale = np.array([params.scales.get(j, 0.0) for j in range(m + 1)])
    # a descent into level j takes budget[j], or with a control coin
    # (coined[j]) low = budget[j] below (low + 1 - N_j), else low + 1
    fixed = params.fixed_budgets
    coined = np.array([b is None for b in fixed] + [False])
    lows = [math.floor(params.budgets.get(j, 0.0)) for j in range(m)]
    budget = np.array([low if b is None else b for low, b in zip(lows, fixed)] + [0.0])
    below = np.array([low + 1.0 - params.budgets.get(j, 0.0) for j, low in enumerate(lows)]
                     + [0.0])
    lowest = 0 if de else 1
    coins = coined[lowest:m].any()
    bounces = coins or not budget[lowest:m].all()
    # row k of the results is the ghosts'
    times = np.full(k + 1, -1, np.int64)
    counts = np.zeros((k + 1, m + 1), np.int64)
    rows = np.arange(k)
    D = np.zeros(k)
    floor = np.zeros(k)
    ceil = np.full(k, A)
    top = params.top_truncation
    if top is None:
        rem = np.full(k, math.inf)
    elif top.is_integer():
        rem = np.full(k, top)
    else:
        # the first control coin
        low = math.floor(top)
        rem = np.where(streams.take(m * stride + rows) < low + 1.0 - top, float(low), low + 1.0)
    lvl = np.full(k, m, np.intp)
    start = np.zeros(k, np.int64)
    floors = np.zeros((k, m + 2))
    floors[:, 0] = -math.inf
    floors[:, m + 1] = A
    budgets = np.zeros((k, m + 1))
    budgets[:, m] = rem
    # a ghost reads a ghost stream, stays in band and counts for row k
    gone = (rem == 0.0).nonzero()[0]  # stopped at time 0
    times[gone] = 0
    rows[gone] = k
    floor[gone] = -math.inf
    ceil[gone] = rem[gone] = math.inf
    live = k - gone.size
    n = 0
    while live and n < horizon:
        if live <= _HANDOFF_ROWS and (streams.raw is not None or n == 0 and small):
            # the scalar loops run the last trials on, each from its row at
            # the top level; a row below it is back there within B_(m-1) passes
            for r in ((lvl == m) & (rows < k)).nonzero()[0].tolist():
                t = int(rows[r])
                ctrl = streams.scalar(m, t) if coins else None
                entry = _frozen(LevelState, level=m, floor=0.0, remaining=float(rem[r]))
                core = _EngineCore(params, ctrl, _frozen(
                    EngineState, statistic=float(D[r]), stack=(entry,), stopped=False,
                    stop_reason=None, time=n))
                core.counts = counts[t].tolist()
                core.counts[m] += n - int(start[r])
                _episode_runs(params, core, [None] + [streams.scalar(i, t) for i in range(m)],
                              ctrl, nu, horizon)
                if core.stopped:
                    times[t] = core.time
                counts[t] = core.counts
                rows[r] = k
                rem[r] = math.inf
                live -= 1
            if not live:
                break
        n += 1
        if n == nu and n > 1:
            streams.switch()
        sid = (lvl - 1) * stride + rows  # the stream of each row's level
        if de:
            d = D + mu  # the idle level climbs deterministically
            at = lvl.nonzero()[0]
            d[at] = D[at] + streams.take(sid[at])
        else:
            d = D + streams.take(sid)
        D = d
        rem -= 1.0
        spent = rem <= 0.0
        high = d > ceil
        low = d < floor
        out = low | high | spent  # the steps that leave the band or spend the budget
        if not out.any():
            continue
        gone = (out & (lvl == m) & (high | spent)).nonzero()[0]
        if gone.size:
            slot = rows[gone]
            times[slot] = n
            counts[slot, m] += n - start[gone]
            out[gone] = False
        if not de:
            # the bottom level reflects at its floor
            reflect = low & out & (lvl == 1)
            np.copyto(d, floor, where=reflect)
            low &= ~reflect
        down = low & out
        up = out & ~down & (high | spent)
        at = down.nonzero()[0]
        child = lvl[at] - 1
        if at.size and bounces:
            size = budget[child]
            if coins:
                coin = coined[child].nonzero()[0]
                size[coin] += streams.take(m * stride + rows[at[coin]]) >= below[child[coin]]
            # a budget of 0 is never entered: the statistic snaps back to the
            # floor, and on the budget's last observation the level closes
            bounce = size == 0.0
            D[at[bounce]] = floor[at[bounce]]
            up[at[bounce]] = spent[at[bounce]]
            at, child, size = at[~bounce], child[~bounce], size[~bounce]
        else:
            size = budget[child]
        base = floor[at]
        D[at] = entered = base + scale[lvl[at]] * (d[at] - base)
        floors[at, child] = np.where(child > 0, entered, -math.inf) if de else entered
        budgets[at, child] = size
        ups = up.nonzero()[0]
        higher = lvl[ups] + 1
        if m > lowest + 1:
            # closing a level may land on a parent whose budget is spent,
            # which closes as well
            for _ in range(m - 1):
                more = (higher < m) & (budgets[ups, higher] <= 0.0)
                if not more.any():
                    break
                higher += more
        D[ups] = floors[ups, higher]
        # the visits that end: their level's budget and steps are saved
        ids = np.concatenate((at, ups))
        if ids.size:
            was, now = lvl[ids], np.concatenate((child, higher))
            counts[rows[ids], was] += n - start[ids]
            budgets[ids, was] = rem[ids]
            start[ids] = n
            lvl[ids] = now
            rem[ids] = budgets[ids, now]
            floor[ids] = floors[ids, now]
            ceil[ids] = floors[ids, now + 1]
        if gone.size:
            rows[gone] = k
            D[gone] = 0.0
            floor[gone] = -math.inf
            ceil[gone] = rem[gone] = math.inf
            live -= gone.size
            if _MIN_ROWS <= live <= rows.size // 2:
                keep = (rows < k).nonzero()[0]
                rows, D, lvl, start, rem, floor, ceil, floors, budgets = (
                    a[keep] for a in (rows, D, lvl, start, rem, floor, ceil, floors, budgets))
    counts[rows, lvl] += n - start
    return times[:k], counts[:k]


def _lockstep_rss(params, nu, horizon, streams, k, small):
    """_run_rss over k trials at once, returning what _lockstep_engine
    returns: the coin rule, the LLR sum and the reflection are the scalar
    loop's operations, in its order. Stopped trials become ghosts, and the
    last trials go on in _run_rss, under _lockstep_engine's rule."""
    A, p_hi = params.A, params.p_hi
    stride = streams.stride
    times = np.full(k + 1, -1, np.int64)
    lows = np.zeros(k + 1, np.int64)
    rows = np.arange(k)
    d = np.zeros(k)
    live = k
    n = 0
    while live and n < horizon:
        if live <= _HANDOFF_ROWS and (streams.raw is not None or n == 0 and small):
            # the scalar loop runs the last trials on, each from its row
            for r in (rows < k).nonzero()[0].tolist():
                t = int(rows[r])
                stop, c = _run_rss(params, [None, streams.scalar(0, t), streams.scalar(1, t)],
                                   streams.scalar(2, t), nu, horizon, None, n, float(d[r]),
                                   int(lows[t]))
                if stop is not None:
                    times[t] = stop
                lows[t] = c[1]
            # a trial still running is cut at the horizon
            n = horizon
            break
        n += 1
        if n == nu and n > 1:
            streams.switch()
        if n == 1:
            sid = stride + rows  # step 1 takes experiment 2 without a coin
        else:
            low = streams.take(2 * stride + rows) >= p_hi
            lows[rows] += low
            sid = (1 - low) * stride + rows
        d = d + streams.take(sid)
        np.copyto(d, 0.0, where=d < 0.0)
        gone = (d >= A).nonzero()[0]
        if gone.size:
            times[rows[gone]] = n
            # a ghost reads zeros, so its statistic stays at 0 < A
            rows[gone] = k
            d[gone] = 0.0
            live -= gone.size
            if _MIN_ROWS <= live <= rows.size // 2:
                keep = (rows < k).nonzero()[0]
                rows, d = rows[keep], d[keep]
    counts = np.zeros((k, 3), np.int64)
    counts[:, 1] = lows[:k]
    counts[:, 2] = np.where(times[:k] < 0, n, times[:k]) - lows[:k]
    return times[:k], counts
