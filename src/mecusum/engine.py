"""Detection engine: the multi-level statistic recursion and the RSS baseline.

One statistic D is shared by a stack of levels. Level m watches the
highest-quality experiment against the stopping threshold; an undershoot of a
level's floor opens the level below with a scaled, deeper floor and a
(possibly randomized) observation budget; climbing back above the parent
floor, or exhausting the budget, closes the level again. Data-efficient
policies add level 0, which takes no observations and climbs deterministically.

_EngineCore.run is the step loop of the policy: traces, the public step(),
every post-change step and the pre-change steps that the visit recursion
does not take advance the policy state through it. It is one flat loop over
locals, with the observation draw, the log-likelihood ratio and the level
changes written inline; the tables it reads (each model's LLR terms, each
level's integer budget) are built once, on the frozen ExperimentModel and
PolicyParams. An episode runs its pre-change steps, then its post-change
steps, as two runs. An unrecorded episode without top truncation takes its
pre-change steps on the renewal kernel's visit recursion
(simulate._RenewalKernel.pre_change) up to a few steps before the change or
the horizon, and the core goes on from there; the recorded-against-
unrecorded tests check the two loops against each other, and both against
tests/straightline.py. The RSS baseline has its own loop:
the public run_rss, fed by callbacks, is the reference for the private
locals loop that simulated RSS episodes run (simulate._run_rss). All of them
report each step to record(n, experiment, x, statistic, event). The core
takes no models (its streams carry their LLR terms); callers check them.

Every random value a loop reads comes through one buffered class, _Stream:
an experiment's standard normals, an episode's control coins, and the
renewal kernel's budget coins and scored observations (each one's LLR
increment, computed per block in numpy), each drawn in blocks of 16, 32,
..., 4096. A pre-change run that records nothing scores its experiment
streams' blocks in numpy as well (sbuf), so a long pre-change run pays one
addition per step for its LLR; it serves the episodes that the visit
recursion hands over, top-truncated policies and the lockstep runner's last
trials. Scoring in numpy follows llr_from_terms's operations in order, so
every path gives the same bits.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from numbers import Real
from typing import Callable, Sequence

import numpy as np

from .densities import ExperimentModel, _count, _real, check_models, llr_from_terms


@dataclass(frozen=True)
class Action:
    """What the policy asks for next: sample an experiment, idle, or stop."""

    kind: str  # "sample" | "idle" | "stop"
    experiment: int | None = None


IDLE = Action("idle")
STOP = Action("stop")


@dataclass(frozen=True)
class PolicyParams:
    """Parameters of an m-experiment policy.

    scales maps experiment index i to the floor-scaling factor a_i for
    i = 2..m, plus i = 1 when data_efficient. budgets maps level j to the
    observation budget N_j for j = 1..m-1, plus j = 0 when data_efficient;
    budgets may be fractional and are resolved to integers at every level
    entry. top_truncation, when set, caps the total number of level-m
    observations for the whole run.

    fixed_budgets, built once here, holds by level the budgets that are
    integers and so resolve without a draw, and None where a fractional
    budget resolves at every entry. It is a plain attribute, not a field, so
    equality, hashing, repr and dataclasses.replace see only the fields.
    """

    m: int
    A: float
    scales: dict[int, float] = field(default_factory=dict)
    budgets: dict[int, float] = field(default_factory=dict)
    mu: float | None = None
    data_efficient: bool = False
    top_truncation: float | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "m", _count("m", self.m, 1))
        if math.isnan(_real("threshold A", self.A)) or self.A < 0.0:
            raise ValueError(f"threshold A must be >= 0, got {self.A}")
        scales = {int(k): _real(f"scale a_{k}", v) for k, v in self.scales.items()}
        budgets = {int(k): _real(f"budget N_{k}", v) for k, v in self.budgets.items()}
        object.__setattr__(self, "scales", scales)
        object.__setattr__(self, "budgets", budgets)
        want_scales = set(range(2, self.m + 1)) | ({1} if self.data_efficient else set())
        if set(scales) != want_scales:
            raise ValueError(
                f"scales must have keys {sorted(want_scales)}, got {sorted(scales)}"
            )
        for i, a in scales.items():
            if not (math.isfinite(a) and a > 0.0):
                raise ValueError(f"scale a_{i} must be positive and finite, got {a}")
        want_budgets = set(range(1, self.m)) | ({0} if self.data_efficient else set())
        if set(budgets) != want_budgets:
            raise ValueError(
                f"budgets must have keys {sorted(want_budgets)}, got {sorted(budgets)}"
            )
        for j, n in budgets.items():
            if not (math.isfinite(n) and n >= 0.0):
                raise ValueError(f"budget N_{j} must be >= 0 and finite, got {n}")
        if self.data_efficient:
            if self.mu is None or not (math.isfinite(_real("mu", self.mu)) and self.mu > 0.0):
                raise ValueError(
                    f"data-efficient policies need a climb rate mu > 0, got {self.mu}"
                )
        elif self.mu is not None:
            raise ValueError("mu is only meaningful for data-efficient policies")
        if self.top_truncation is not None:
            t = _real("top_truncation", self.top_truncation)
            if not (math.isfinite(t) and t >= 0.0):
                raise ValueError(f"top_truncation must be >= 0 and finite, got {t}")
            object.__setattr__(self, "top_truncation", t)
        object.__setattr__(self, "fixed_budgets", tuple(
            n if n is not None and n.is_integer() else None
            for n in map(budgets.get, range(self.m))))


def set_threshold(gamma: float) -> float:
    """Threshold for a false-alarm target: A = ln(gamma).

    gamma = 1 gives the degenerate A = 0 (stop almost immediately) and is
    allowed with a warning; gamma < 1 is rejected.
    """
    if math.isnan(_real("gamma", gamma)) or gamma < 1.0:
        raise ValueError(f"the false-alarm target gamma must be >= 1, got {gamma}")
    if gamma == 1.0:
        warnings.warn("gamma = 1 gives threshold 0: the policy stops almost immediately")
    return math.log(gamma)


@dataclass(frozen=True)
class RssParams:
    """Random-switch baseline: one reflected statistic, coin-flip experiment
    choice with probability p_hi for the higher-quality experiment."""

    A: float
    p_hi: float

    def __post_init__(self) -> None:
        if math.isnan(_real("threshold A", self.A)) or self.A <= 0.0:
            raise ValueError(f"threshold A must be > 0, got {self.A}")
        if not (0.0 <= _real("p_hi", self.p_hi) <= 1.0):
            raise ValueError(f"p_hi must be in [0, 1], got {self.p_hi}")


@dataclass(frozen=True)
class LevelState:
    """One open level: its floor and the observations it may still take.

    remaining is math.inf for the unbounded top level.
    """

    level: int
    floor: float
    remaining: float


@dataclass(frozen=True)
class EngineState:
    statistic: float
    stack: tuple[LevelState, ...]  # level m first, active level last
    stopped: bool
    stop_reason: str | None
    time: int


@dataclass(frozen=True)
class StepResult:
    state: EngineState
    event: str  # "", "reflect", "descend", "bounce", "ascend", "stop"
    action: Action


def resolve_truncation(budget: float, rng: np.random.Generator | None = None) -> int:
    """Resolve a possibly fractional budget to an integer.

    Integers pass through without touching the rng. A fractional value N
    resolves to floor(N) with probability ceil(N) - N and to ceil(N)
    otherwise, so the resolved budget has mean N.
    """
    # a float skips _real's isinstance tests: each renewal-cycle coin comes here
    b = budget if type(budget) is float else _real("budget", budget)
    if not (math.isfinite(b) and b >= 0.0):
        raise ValueError(f"budget must be >= 0 and finite, got {budget}")
    low = math.floor(b)
    if low == b:
        return int(low)
    if rng is None:
        raise ValueError("a random generator is required to resolve a fractional budget")
    if rng.random() < (low + 1.0 - b):
        return int(low)
    return int(low) + 1


def _llrs(z: np.ndarray, mean: float, std: float, terms: tuple) -> np.ndarray:
    """The LLR increments of the observations mean + std * z. The operations
    are those of llr_from_terms, in its order; a float64 ufunc rounds each
    one as a Python float operation does, so the values are the same bits as
    the scalar loop's."""
    c, q0, m0, q1, m1 = terms
    x = mean + std * z
    d0 = x - m0
    d1 = x - m1
    return c + q0 * d0 * d0 - q1 * d1 * d1


# Values are drawn in blocks of 16, 32, ..., 4096, then 4096 from there on:
# a ~15-step detection episode draws 16 values per stream, not 4096.
_FIRST_BLOCK = 16
_MAX_BLOCK = 4096


class _Stream:
    """A buffered stream of random values: buf[pos:end] holds the next ones.

    make_gen builds the stream's generator; it runs on the first refill(),
    so an episode builds only the generators it draws from. Values come in
    blocks of 16, 32, ..., 4096, then 4096 each. A stream with a model draws
    standard normals and carries the model's pre- and post-change means and
    stds, which map a normal z to an observation mean + std * z, and its LLR
    terms. A scored stream (the renewal kernel's, which reads pre-change
    observations only) holds instead each observation's LLR increment,
    llr_from_terms(terms, pre_mean + pre_std * z), computed per block in
    numpy (llrs), and keeps the block's normals in normals. An engine
    observation stream keeps its normals in buf; sbuf, None until then,
    holds the increments (llrs) of the last block that a pre-change run
    without record drew. unscore() turns a scored stream into an engine
    stream at the same position, with both, when the kernel hands an
    episode's pre-change run to the engine. Only pre-change runs read sbuf,
    and an episode's streams see one pre-change run, before any other, so
    while read it belongs to the current block. A stream without a model
    draws uniforms, which random() hands out one at a time. On Philox,
    chunked draws give the same sequence as one large block or as many
    scalar calls, so the values do not depend on the block sizes. The
    engine (sbuf too), the RSS loop and the renewal kernel read buf, pos
    and end directly and call refill() at the end of a block.
    """

    __slots__ = ("make_gen", "scored", "draw", "buf", "sbuf", "normals", "pos", "end",
                 "pre_mean", "pre_std", "post_mean", "post_std", "terms")

    def __init__(self, make_gen: Callable[[], np.random.Generator] | None,
                 model: ExperimentModel | None = None, scored: bool = False) -> None:
        self.make_gen = make_gen
        self.scored = scored
        self.buf = ()
        self.sbuf = None
        self.pos = self.end = 0  # end is len(buf): len() costs ~50 ns
        if model is None:
            self.terms = None
        else:
            self.pre_mean = model.pre.mean
            self.pre_std = model.pre.std
            self.post_mean = model.post.mean
            self.post_std = model.post.std
            self.terms = model.terms

    def refill(self) -> np.ndarray:
        """Draw the next block into buf and return it as an array."""
        if self.end:
            size = min(2 * self.end, _MAX_BLOCK)
        else:
            # draw(size) gives the next block as an array, chosen once
            gen = self.make_gen()
            self.draw = gen.random if self.terms is None else gen.standard_normal
            size = _FIRST_BLOCK
        block = self.draw(size)
        if self.scored:
            self.normals = block
            block = self.llrs(block)
        # plain-float list: python float arithmetic beats numpy scalars here
        self.buf = block.tolist()
        self.end = size
        return block

    def llrs(self, z: np.ndarray) -> np.ndarray:
        """The LLR increments of the pre-change observations of the normals z."""
        return _llrs(z, self.pre_mean, self.pre_std, self.terms)

    def unscore(self) -> None:
        """Make a scored stream an engine stream at the same position: the
        current block's normals in buf and its increments in sbuf, as a
        pre-change run without record leaves them."""
        self.scored = False
        if self.end:
            self.buf, self.sbuf = self.normals.tolist(), self.buf

    def random(self) -> float:
        """The next uniform, as Generator.random() would give it."""
        pos = self.pos
        if pos == self.end:
            self.refill()
            pos = 0
        self.pos = pos + 1
        return self.buf[pos]


class _EngineCore:
    """Mutable policy state and the step loop that moves it.

    run() takes every step of the traces, of the public step() and of an
    episode's post-change run, and the pre-change steps that the renewal
    kernel's visit recursion leaves to it. It is one flat loop over
    locals, reading tables built once on the frozen inputs
    (the streams' LLR terms, PolicyParams.fixed_budgets); it takes no models,
    which its callers have checked. A core either starts an episode,
    resolving a fractional top truncation with rng, or loads an EngineState.
    """

    __slots__ = (
        "m", "A", "de", "mu", "a", "N", "fixed", "rng",
        "D", "level", "floors", "remaining", "stopped", "stop_reason", "time", "counts",
    )

    def __init__(
        self,
        params: PolicyParams,
        rng: np.random.Generator | None = None,
        state: EngineState | None = None,
    ) -> None:
        self.m = m = params.m
        self.A = params.A
        self.de = params.data_efficient
        self.mu = params.mu if params.mu is not None else 0.0
        # keyed by level: a descent from level i reads a[i] and N[i - 1]
        self.a = params.scales
        self.N = params.budgets
        self.fixed = params.fixed_budgets
        self.rng = rng
        self.floors = [0.0] * (m + 1)
        self.remaining = [0.0] * (m + 1)
        self.counts = [0] * (m + 1)
        if state is None:
            top = params.top_truncation
            self.remaining[m] = math.inf if top is None else float(resolve_truncation(top, rng))
            self.D = 0.0
            self.level = m
            self.stopped = self.remaining[m] == 0.0
            self.stop_reason = "truncation" if self.stopped else None
            self.time = 0
            return
        lowest = 0 if self.de else 1
        level = m + 1
        for entry in state.stack:
            level -= 1
            if entry.level != level or level < lowest:
                level = m + 1  # reject below, as for an empty stack
                break
            self.floors[level] = entry.floor
            self.remaining[level] = entry.remaining
        if level > m:
            raise ValueError(
                f"a policy with m={m} needs a state whose levels run {m}, {m - 1}, ... "
                f"down to {lowest} at the lowest, got {[e.level for e in state.stack]}"
            )
        self.D = state.statistic
        self.level = level
        self.stopped = state.stopped
        self.stop_reason = state.stop_reason
        self.time = state.time

    def run(
        self,
        streams: Sequence[object | None],
        post: bool,
        horizon: int,
        record: Callable[[int, int, float | None, float, str], None] | None = None,
    ) -> str:
        """Take steps of one regime until a stop or until the time reaches
        horizon: an episode runs its pre-change steps (post False), then its
        post-change ones, on one core.

        streams[j] is level j's _Stream of standard normals: buf[pos:end],
        refill() for the next block, each regime's mean and std that map a
        normal z to the observation mean + std * z, and the model's LLR
        terms. rng, a _Stream of uniforms in an episode, resolves fractional
        budgets. counts[j] counts the steps taken at level j (0 is idle).
        record, when given, gets (n, level, x, statistic, event) after every
        step, with x None at the idle level. Returns the last step's event
        ("" when no step was taken).

        The state lives in locals while the loop runs and is saved back at
        the end. The active level's stream, regime mean and std, LLR
        constants, floor and ceiling (the parent floor, or A at the top) are
        loaded into locals when a visit of the level begins; its budget,
        step count and stream position are saved back when the visit or the
        run ends, and the next run resumes the visit.

        A pre-change run without record scores each block it draws into
        sbuf (llrs) and adds the precomputed increments, the same bits as
        scoring x inline; it reads the sbuf its streams hold, so it comes
        before any other run on them. Other runs score x inline.
        """
        if self.stopped:
            return ""
        m, A, de, mu = self.m, self.A, self.de, self.mu
        a, N, fixed, rng = self.a, self.N, self.fixed, self.rng
        floors, remaining, counts = self.floors, self.remaining, self.counts
        score = not post and record is None
        D = self.D
        lvl = self.level
        n = self.time
        stopped = False
        reason = None
        event = ""
        while n < horizon:
            # one visit of level lvl
            start = n
            rem = remaining[lvl]
            top = lvl == m
            idle = lvl == 0
            reflects = lvl == 1 and not de  # the bottom level reflects at its floor
            # the top level's floor is 0 whatever the state holds
            floor = 0.0 if top else -math.inf if idle else floors[lvl]
            ceil = A if top else floors[lvl + 1]
            if not idle:
                s = streams[lvl]
                # a 3-name unpack swaps on the stack; a 4-name one builds a tuple
                buf, pos, end = s.buf, s.pos, s.end
                if post:
                    sbuf, mean, std = None, s.post_mean, s.post_std
                else:
                    sbuf, mean, std = s.sbuf, s.pre_mean, s.pre_std
                c, q0, m0, q1, m1 = s.terms
            new = lvl
            while n < horizon:
                n += 1
                rem -= 1.0
                if idle:
                    # the idle level climbs deterministically
                    x = None
                    d = D + mu
                else:
                    if pos == end:
                        block = s.refill()
                        buf, end, pos = s.buf, s.end, 0
                        if score:
                            sbuf = s.sbuf = s.llrs(block).tolist()
                    if sbuf is not None:
                        d = D + sbuf[pos]
                    else:
                        x = mean + std * buf[pos]
                        d0 = x - m0
                        d1 = x - m1
                        d = D + (c + q0 * d0 * d0 - q1 * d1 * d1)
                    pos += 1
                if floor <= d <= ceil and rem > 0.0:
                    D = d
                    event = ""
                    if record is not None:
                        record(n, lvl, x, D, event)
                    continue
                up = False
                if top and (d > ceil or rem <= 0.0):
                    D = d
                    stopped = True
                    reason = "threshold" if d > ceil else "truncation"
                    event = "stop"
                else:
                    event = ""
                    if d < floor and reflects:
                        d = floor
                        event = "reflect"
                    if d > ceil:
                        up = True
                    elif d < floor:
                        # an undershoot opens the level below even on the
                        # observation that consumed the last of this level's
                        # budget; the exhaustion pop then fires when the
                        # opened level closes
                        child = lvl - 1
                        budget = fixed[child]
                        if budget is None:
                            budget = float(resolve_truncation(N[child], rng))
                        if budget == 0.0:
                            D = floor  # never entered: snap back to the current floor
                            event = "bounce"
                            up = rem <= 0.0
                        else:
                            D = floors[child] = floor + a[lvl] * (d - floor)
                            remaining[child] = budget
                            event = "descend"
                            new = child
                    elif rem <= 0.0:
                        up = True
                    else:
                        D = d
                if up:
                    # closing a level may land on a parent whose own budget
                    # is spent, which closes immediately as well
                    new = lvl + 1
                    while new < m and remaining[new] <= 0.0:
                        new += 1
                    D = floors[new]
                    event = "ascend"
                if record is not None:
                    record(n, lvl, x, D, event)
                if new != lvl or stopped:
                    break
            remaining[lvl] = rem
            counts[lvl] += n - start
            if not idle:
                s.pos = pos
            lvl = new
            if stopped:
                break
        self.D = D
        self.level = lvl
        self.time = n
        if stopped:
            self.stopped = True
            self.stop_reason = reason
        return event

    def snapshot(self, kept: tuple[LevelState, ...] = ()) -> EngineState:
        """The state as an EngineState.

        kept holds entries of the top levels (level m first) that are known
        to be unchanged, and are reused instead of built again: one step
        writes only the level it starts at and the levels below it.
        """
        level = self.level
        depth = self.m - level + 1
        if len(kept) >= depth:
            stack = kept[:depth]
        else:
            floors, remaining = self.floors, self.remaining
            stack = kept + tuple([
                LevelState(i, floors[i], remaining[i])
                for i in range(self.m - len(kept), level - 1, -1)
            ])
        return EngineState(self.D, stack, self.stopped, self.stop_reason, self.time)


def _observed(x: float | None, terms: tuple | None) -> _Stream:
    """A stream that holds the one value x, with a level's LLR terms: with
    post-change mean 0.0 and std 1.0, a post-change run reads 0.0 + 1.0 * x,
    which is x. It is never refilled, so it skips __init__ and sets only the
    slots a post-change run reads: step() builds one per call."""
    s = _Stream.__new__(_Stream)
    s.buf, s.pos, s.end, s.terms = [x], 0, 1, terms
    s.post_mean, s.post_std = 0.0, 1.0
    return s


# one Action per level: Action is frozen, so the policy hands out the same one
_SAMPLE: dict[int, Action] = {}


def _action(level: int) -> Action:
    """The action of a step at level: idle at level 0, else sample level."""
    if level == 0:
        return IDLE
    action = _SAMPLE.get(level)
    if action is None:
        action = _SAMPLE[level] = Action("sample", level)
    return action


def init(params: PolicyParams, rng: np.random.Generator | None = None) -> EngineState:
    """Fresh engine state: statistic 0 at level m.

    rng is needed only when top_truncation is fractional. A top budget that
    resolves to zero yields a state that is already stopped at time 0.
    """
    return _EngineCore(params, rng).snapshot()


def next_action(state: EngineState) -> Action:
    """The action the policy requests from the current state."""
    if state.stopped:
        raise RuntimeError("the engine has stopped; no further action exists")
    return _action(state.stack[-1].level)


def step(
    state: EngineState,
    params: PolicyParams,
    models: Sequence[ExperimentModel],
    observation: float | None,
    rng: np.random.Generator | None = None,
) -> StepResult:
    """Pure one-step transition: (state, observation) -> (state, event, action).

    observation must be None exactly when the active level is the idle level.
    rng is consumed only when a descent resolves a fractional budget. Models
    that check_models rejects, or levels not running m, m-1, ... raise ValueError.
    """
    if state.stopped:
        raise RuntimeError("cannot step a stopped engine")
    m = params.m
    by_id = check_models(models, m)
    core = _EngineCore(params, rng, state)
    level = core.level
    if level == 0:
        if observation is not None:
            raise ValueError("idle steps take no observation")
    else:
        if observation is None:
            raise ValueError(f"level {level} requires an observation")
        # a bool is not an observation, though float(True) is 1.0; a float
        # skips the isinstance tests (an ABC check costs about 0.4 us)
        if (type(observation) is not float
                and (isinstance(observation, bool) or not isinstance(observation, Real))
                or not math.isfinite(observation)):
            raise ValueError(f"observation must be a finite real number, got {observation!r}")
        observation = float(observation)
    obs = _observed(observation, None if level == 0 else by_id[level].terms)
    # obs maps its normal to x in the post-change regime, which scores x
    # inline: the step reads x, whichever side of a change it is on
    event = core.run([obs] * (m + 1), True, state.time + 1)
    # the levels above the starting one are as the state had them
    new_state = core.snapshot(state.stack[:m - level])
    return StepResult(new_state, event, STOP if core.stopped else _action(core.level))


@dataclass(frozen=True)
class RssRun:
    stopping_time: int | None
    counts: dict[int, int]
    statistic: float


def run_rss(
    params: RssParams,
    models: Sequence[ExperimentModel],
    next_obs: Callable[[int, int], float],
    rng: np.random.Generator,
    max_steps: int | None = None,
    record: Callable[[int, int, float, float, str], None] | None = None,
) -> RssRun:
    """Run the random-switch baseline on two experiments.

    next_obs(experiment_id, n) supplies the observation for step n. The
    first step always uses the higher-quality experiment; afterwards the
    coin picks it with probability p_hi. Stops once the reflected statistic
    reaches A. record, when given, gets (n, experiment, x, statistic, event)
    after every step, with event "stop" on the stopping step and "" before.
    """
    by_id = check_models(models, 2)
    A, p_hi = params.A, params.p_hi
    d = 0.0
    n = 0
    counts = {1: 0, 2: 0}
    while max_steps is None or n < max_steps:
        n += 1
        exp = 2 if n == 1 or rng.random() < p_hi else 1
        x = next_obs(exp, n)
        d = max(d + llr_from_terms(by_id[exp].terms, x), 0.0)
        counts[exp] += 1
        if d >= A:
            if record is not None:
                record(n, exp, x, d, "stop")
            return RssRun(n, counts, d)
        if record is not None:
            record(n, exp, x, d, "")
    return RssRun(None, counts, d)
