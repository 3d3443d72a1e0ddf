"""Detection engine: the multi-level statistic recursion and the RSS baseline.

One statistic D is shared by a stack of levels. Level m watches the
highest-quality experiment against the stopping threshold; an undershoot of a
level's floor opens the level below with a scaled, deeper floor and a
(possibly randomized) observation budget; climbing back above the parent
floor, or exhausting the budget, closes the level again. Data-efficient
policies add level 0, which takes no observations and climbs deterministically.

_EngineCore.run is the step loop of the policy: traces, every post-change
step and the pre-change steps that the visit recursion does not take
advance the policy state through it. It is one flat loop over locals, with
the observation draw, the log-likelihood ratio and the level changes
written inline; the tables it reads (each model's LLR terms, each level's
integer budget) are built once, on the frozen ExperimentModel and
PolicyParams. An episode runs its pre-change steps, then its post-change
steps, as two runs. An unrecorded episode takes its pre-change steps on the
renewal kernel's visit recursion (simulate._RenewalKernel.pre_change) up to
a few steps before the change or the horizon, and the core goes on from
there; the recorded-against-unrecorded tests check the two loops against
each other, and both against tests/straightline.py. The RSS baseline has
its own loop: the public run_rss, fed by callbacks, is the reference for
the private locals loop that simulated RSS episodes run (simulate._run_rss).
All of them report each step to record(n, experiment, x, statistic, event).
The core takes no models (its streams carry their LLR terms); callers check
them.

The public step() is run's step written out on the frozen EngineState,
with the same float operations in the same order (the replay tests feed it
episodes' observations and control coins). It checks a tuple of models
once, keeps the stack entries that a step leaves as they were, and builds
its records, as init() does, with _frozen, past the field checks that a
state built by hand goes through.

Every random value a loop reads comes through one buffered class, _Stream:
an experiment's standard normals, an episode's control coins, and the
renewal kernel's budget coins and scored observations (each one's LLR
increment, computed per block in numpy), each drawn in blocks of 16, 32,
..., 4096. Scoring in numpy follows llr_from_terms's operations in order,
so every path gives the same bits.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Mapping
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
    budget resolves at every entry; kernel_layout (simulate._layout) is
    built on first use. Both are plain attributes, not fields, so equality,
    hashing, repr and dataclasses.replace see only the fields. As they are
    built from scales and budgets, those are read-only dicts; a pickle or a
    copy holds plain dicts and fixed_budgets.
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
        if not isinstance(self.data_efficient, bool):
            raise ValueError(f"data_efficient must be a bool, got {self.data_efficient!r}")
        if math.isnan(_real("threshold A", self.A)) or self.A < 0.0:
            raise ValueError(f"threshold A must be >= 0, got {self.A}")
        for name, levels in (("scales", self.scales), ("budgets", self.budgets)):
            if not isinstance(levels, Mapping):
                raise ValueError(f"{name} must be a mapping of level to value, got {levels!r}")
        # a key is a level: 3.0 reads as 3, but a bool or 1.5 is not one
        scales = {_count("scales key", k, 0): _real(f"scale a_{k}", v)
                  for k, v in self.scales.items()}
        budgets = {_count("budgets key", k, 0): _real(f"budget N_{k}", v)
                   for k, v in self.budgets.items()}
        object.__setattr__(self, "scales", _ReadOnlyDict(scales))
        object.__setattr__(self, "budgets", _ReadOnlyDict(budgets))
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

    def __getstate__(self) -> dict:
        state = dict(self.__dict__, scales=dict(self.scales), budgets=dict(self.budgets))
        state.pop("kernel_layout", None)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state, scales=_ReadOnlyDict(state["scales"]),
                             budgets=_ReadOnlyDict(state["budgets"]))


class _ReadOnlyDict(dict):
    """A dict that refuses writes; a copy or a pickle builds another one
    through dict's constructor."""

    __slots__ = ()

    def _refuse(self, *args, **kwargs):
        raise TypeError("a policy's scales and budgets are read-only; "
                        "dataclasses.replace builds a policy with other ones")

    __setitem__ = __delitem__ = __ior__ = clear = pop = popitem = setdefault = update = _refuse

    def __reduce__(self):
        return type(self), (dict(self),)


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

    remaining is math.inf for the unbounded top level. A state built by
    hand is checked here, field by field; the library builds its own with
    _frozen, past the checks.
    """

    level: int
    floor: float
    remaining: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "level", _count("level", self.level, 0))
        floor = _real("floor", self.floor)
        if math.isnan(floor):
            raise ValueError(f"floor must not be NaN, got {floor}")
        remaining = _real("remaining", self.remaining)
        if not (remaining >= 0.0 and (remaining == math.inf or remaining.is_integer())):
            raise ValueError(f"remaining must be a whole number >= 0 or inf, got {remaining}")
        object.__setattr__(self, "floor", floor)
        object.__setattr__(self, "remaining", remaining)


_STOP_REASONS = ("threshold", "truncation")


@dataclass(frozen=True)
class EngineState:
    """The policy state between steps. A state built by hand is checked
    here: each field, a stack whose floors start at 0.0 at the top and do
    not rise down the stack, and a live statistic between the active floor
    and the floor above. Whether it fits a policy (levels m, m - 1, ...
    down, and a live top statistic at most A) is checked when it is
    stepped, against the policy."""

    statistic: float
    stack: tuple[LevelState, ...]  # level m first, active level last
    stopped: bool
    stop_reason: str | None
    time: int

    def __post_init__(self) -> None:
        statistic = _real("statistic", self.statistic)
        if math.isnan(statistic):
            raise ValueError(f"statistic must not be NaN, got {statistic}")
        if not (isinstance(self.stack, tuple)
                and all(isinstance(entry, LevelState) for entry in self.stack)):
            raise ValueError(f"stack must be a tuple of LevelState, got {self.stack!r}")
        if not isinstance(self.stopped, bool):
            raise ValueError(f"stopped must be a bool, got {self.stopped!r}")
        if self.stop_reason not in (_STOP_REASONS if self.stopped else (None,)):
            want = f"one of {_STOP_REASONS}" if self.stopped else "None"
            raise ValueError(f"stop_reason of a state with stopped={self.stopped} must be "
                             f"{want}, got {self.stop_reason!r}")
        stack = self.stack
        if stack and stack[0].floor != 0.0:
            raise ValueError(f"stack must start with the top floor 0.0, got {stack[0].floor}")
        for upper, lower in zip(stack, stack[1:]):
            if lower.floor > upper.floor:
                raise ValueError(f"stack floors must not rise down the stack: level "
                                 f"{lower.level}'s {lower.floor} > level {upper.level}'s "
                                 f"{upper.floor}")
        # a live statistic lies in [the active floor, the floor above]; the
        # top's ceiling, A, is the policy's, checked when the state loads
        if stack and not self.stopped and not (
                stack[-1].floor <= statistic <= (stack[-2].floor if len(stack) > 1 else math.inf)):
            raise ValueError(f"statistic {statistic} of a live state must lie between the "
                             f"active floor and the floor above, got the stack {stack!r}")
        object.__setattr__(self, "statistic", statistic)
        object.__setattr__(self, "time", _count("time", self.time, 0))


@dataclass(frozen=True)
class StepResult:
    state: EngineState
    event: str  # "", "reflect", "descend", "bounce", "ascend", "stop"
    action: Action


def _frozen(cls, **fields):
    """An instance of the frozen dataclass cls with the given fields, every
    one named, built without cls.__init__. That __init__ pays one
    object.__setattr__ per field and runs __post_init__'s checks; the
    states and results the library builds from values it has checked come
    through here instead. The instance equals, hashes, prints, pickles and
    goes through dataclasses.replace as cls(**fields) does."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


def resolve_truncation(budget: float, rng: np.random.Generator | None = None) -> int:
    """Resolve a possibly fractional budget to an integer.

    Integers pass through without touching the rng. A fractional value N
    resolves to floor(N) with probability ceil(N) - N and to ceil(N)
    otherwise, so the resolved budget has mean N. An rng without random(),
    None among them, fails here, where the coin is read.
    """
    # a float skips _real's isinstance tests: each engine coin comes here
    b = budget if type(budget) is float else _real("budget", budget)
    if not (math.isfinite(b) and b >= 0.0):
        raise ValueError(f"budget must be >= 0 and finite, got {budget}")
    low = math.floor(b)
    if low == b:
        return int(low)
    try:
        coin = rng.random()
    except AttributeError:
        raise ValueError(f"rng must be a random generator to resolve the fractional "
                         f"budget {b}, got {rng!r}") from None
    if coin < (low + 1.0 - b):
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
    numpy (llrs), and keeps the block's normals in normals. score() and
    unscore() turn an engine stream into a scored one and back at the same
    position, when an episode's pre-change steps go to the kernel and come
    back. A stream without a model draws uniforms, which random() hands out
    one at a time. On Philox, chunked draws give the same sequence as one
    large block or as many scalar calls, so the values do not depend on the
    block sizes. The engine, the RSS loop and the renewal kernel read buf,
    pos and end directly and call refill() at the end of a block.
    """

    __slots__ = ("make_gen", "scored", "draw", "buf", "normals", "pos", "end",
                 "pre_mean", "pre_std", "post_mean", "post_std", "terms")

    def __init__(self, make_gen: Callable[[], np.random.Generator] | None,
                 model: ExperimentModel | None = None, scored: bool = False) -> None:
        self.make_gen = make_gen
        self.scored = scored
        self.buf = ()
        self.pos = self.end = 0  # end is len(buf): len() costs ~50 ns
        if model is None:
            self.terms = None
        else:
            self.pre_mean = model.pre.mean
            self.pre_std = model.pre.std
            self.post_mean = model.post.mean
            self.post_std = model.post.std
            self.terms = model.terms

    def refill(self) -> None:
        """Draw the next block into buf."""
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

    def llrs(self, z: np.ndarray) -> np.ndarray:
        """The LLR increments of the pre-change observations of the normals z."""
        return _llrs(z, self.pre_mean, self.pre_std, self.terms)

    def score(self) -> None:
        """Make an engine stream a scored one at the same position."""
        self.scored = True
        if self.end:
            self.normals = np.array(self.buf)
            self.buf = self.llrs(self.normals).tolist()

    def unscore(self) -> None:
        """Make a scored stream an engine stream at the same position."""
        self.scored = False
        if self.end:
            self.buf = self.normals.tolist()

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

    run() takes every step of the traces and of an episode's post-change
    run, and the pre-change steps that the renewal kernel's visit recursion
    leaves to it. It is one flat loop over locals, reading tables built once
    on the frozen inputs (the streams' LLR terms, PolicyParams.fixed_budgets);
    it takes no models, which its callers have checked. A core starts an episode at the top
    level with statistic 0 at time 0. Its top budget, unless given, is the
    top truncation, resolved with rng when fractional; the lockstep runner
    gives a trial it hands over its budget, and sets its statistic, time
    and counts.
    """

    __slots__ = (
        "m", "A", "de", "mu", "a", "N", "fixed", "rng",
        "D", "level", "floors", "remaining", "stopped", "stop_reason", "time", "counts",
    )

    def __init__(
        self,
        params: PolicyParams,
        rng: np.random.Generator | None = None,
        top: float | None = None,
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
        if top is None:
            top = params.top_truncation
            top = math.inf if top is None else float(resolve_truncation(top, rng))
        self.remaining[m] = top
        self.D = 0.0
        self.level = m
        self.stopped = top == 0.0
        self.stop_reason = "truncation" if self.stopped else None
        self.time = 0

    def run(
        self,
        streams: Sequence[object | None],
        post: bool,
        horizon: int,
        record: Callable[[int, int, float | None, float, str], None] | None = None,
    ) -> None:
        """Take steps of one regime until a stop or until the time reaches
        horizon: an episode runs its pre-change steps (post False), then its
        post-change ones, on one core.

        streams[j] is level j's _Stream of standard normals: buf[pos:end],
        refill() for the next block, each regime's mean and std that map a
        normal z to the observation mean + std * z, and the model's LLR
        terms. rng, a _Stream of uniforms in an episode, resolves fractional
        budgets. counts[j] counts the steps taken at level j (0 is idle).
        record, when given, gets (n, level, x, statistic, event) after every
        step, with x None at the idle level.

        The state lives in locals while the loop runs and is saved back at
        the end. The active level's stream, regime mean and std, LLR
        constants, floor and ceiling (the parent floor, or A at the top) are
        loaded into locals when a visit of the level begins; its budget,
        step count and stream position are saved back when the visit or the
        run ends, and the next run resumes the visit.
        """
        if self.stopped:
            return
        m, A, de, mu = self.m, self.A, self.de, self.mu
        a, N, fixed, rng = self.a, self.N, self.fixed, self.rng
        floors, remaining, counts = self.floors, self.remaining, self.counts
        D = self.D
        lvl = self.level
        n = self.time
        stopped = False
        reason = None
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
                    mean, std = s.post_mean, s.post_std
                else:
                    mean, std = s.pre_mean, s.pre_std
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
                        s.refill()
                        buf, end, pos = s.buf, s.end, 0
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
    _check_params(params)
    top = params.top_truncation
    top = math.inf if top is None else float(resolve_truncation(top, rng))
    stopped = top == 0.0
    return _frozen(EngineState, statistic=0.0,
                   stack=(_frozen(LevelState, level=params.m, floor=0.0, remaining=top),),
                   stopped=stopped, stop_reason="truncation" if stopped else None, time=0)


def _check_state(state: EngineState) -> None:
    if not isinstance(state, EngineState):
        raise ValueError(f"state must be an EngineState, got {state!r}")


def _check_params(params: PolicyParams) -> None:
    if not isinstance(params, PolicyParams):
        raise ValueError(f"params must be PolicyParams, got {params!r}")


def next_action(state: EngineState) -> Action:
    """The action the policy requests from the current state."""
    _check_state(state)
    if state.stopped:
        raise RuntimeError("the engine has stopped; no further action exists")
    if not state.stack:
        raise ValueError(f"state has no level to act at, got the stack {state.stack!r}")
    return _action(state.stack[-1].level)


# step()'s one-entry cache of a checked model set: (models, m, by_id). Only
# a tuple is kept: a tuple of frozen ExperimentModel cannot change, so it
# passes check_models for that m for as long as it lives, and holding it
# keeps its id from going to another object.
_checked: tuple = (None, 0, None)


def step(
    state: EngineState,
    params: PolicyParams,
    models: Sequence[ExperimentModel],
    observation: float | None,
    rng: np.random.Generator | None = None,
) -> StepResult:
    """Pure one-step transition: (state, observation) -> (state, event, action).

    observation must be None exactly when the active level is the idle level.
    rng is consumed only when a descent resolves a fractional budget. A state
    that is no EngineState, params that are no PolicyParams, models that
    check_models rejects, or levels not running m, m-1, ... raise ValueError.
    A tuple of models is checked on its first step for an m and then kept,
    one set at a time; a list, which can change between steps, is checked on
    every call. The transition is _EngineCore.run's step, on the state's
    stack. The new state reuses the state's entries of the levels above the
    starting one, and the starting one's while its budget is unspent (the
    untruncated top's is inf), and the result is built with _frozen.
    """
    global _checked
    _check_state(state)
    _check_params(params)
    if state.stopped:
        raise RuntimeError("cannot step a stopped engine")
    m = params.m
    known, known_m, by_id = _checked
    if models is not known or m != known_m:
        by_id = check_models(models, m)
        if type(models) is tuple:
            _checked = (models, m, by_id)
    # whether the state fits the policy: levels m, m - 1, ... down, and a
    # live top statistic at most A
    stack = state.stack
    lowest = 0 if params.data_efficient else 1
    level = m + 1
    for entry in stack:
        level -= 1
        if entry.level != level or level < lowest:
            level = m + 1  # reject below, as for an empty stack
            break
    if level > m:
        raise ValueError(
            f"a policy with m={m} needs a state whose levels run {m}, {m - 1}, ... "
            f"down to {lowest} at the lowest, got {[e.level for e in stack]}"
        )
    A = params.A
    D = state.statistic
    if level == m and D > A:
        raise ValueError(f"statistic {D} of a live state at the top level "
                         f"must not exceed the threshold A = {A}")
    # _EngineCore.run's step, in its order: the state's entries hold the
    # active level's floor and budget and the floors and budgets above it
    entry = stack[-1]
    rem = entry.remaining - 1.0
    if level == 0:
        if observation is not None:
            raise ValueError("idle steps take no observation")
        # the idle level climbs deterministically
        d = D + params.mu
        floor = -math.inf
    else:
        if observation is None:
            raise ValueError(f"level {level} requires an observation")
        x = observation
        if type(x) is not float:
            # a float skips the isinstance tests (an ABC check costs about
            # 0.4 us); a bool is no observation, though float(True) is 1.0
            try:
                x = math.nan if isinstance(x, bool) or not isinstance(x, Real) else float(x)
            except OverflowError:  # an int past the float range
                x = math.nan
        if not math.isfinite(x):
            raise ValueError(f"observation must be a finite real number, got {observation!r}")
        # x read as a post-change run reads its stream, 0.0 + 1.0 * x, and
        # scored with run's operations
        d = D + llr_from_terms(by_id[level].terms, 0.0 + 1.0 * x)
        floor = 0.0 if level == m else entry.floor
    ceil = A if level == m else stack[-2].floor
    new = level
    reason = None
    if floor <= d <= ceil and rem > 0.0:
        event = ""
    elif level == m and (d > ceil or rem <= 0.0):
        reason = "threshold" if d > ceil else "truncation"
        event = "stop"
    else:
        up = False
        event = ""
        if d < floor and level == 1 and lowest:
            d = floor  # the bottom level reflects at its floor
            event = "reflect"
        if d > ceil:
            up = True
        elif d < floor:
            child = level - 1
            budget = params.fixed_budgets[child]
            if budget is None:
                budget = float(resolve_truncation(params.budgets[child], rng))
            if budget == 0.0:
                d = floor  # never entered: snap back to the current floor
                event = "bounce"
                up = rem <= 0.0
            else:
                d = floor + params.scales[level] * (d - floor)
                event = "descend"
                new = child
        elif rem <= 0.0:
            up = True
        if up:
            # closing a level may land on a parent whose own budget is
            # spent, which closes immediately as well
            new = level + 1
            while new < m and stack[m - new].remaining <= 0.0:
                new += 1
            d = stack[m - new].floor
            event = "ascend"
    # the levels above the starting one are as the state had them, and so
    # is the starting one when its budget is as it was (the untruncated
    # top's inf)
    if new > level:
        stack = stack[:m - new + 1]
    else:
        if rem != entry.remaining:
            stack = stack[:-1] + (_frozen(LevelState, level=level, floor=entry.floor,
                                          remaining=rem),)
        if new < level:
            stack += (_frozen(LevelState, level=new, floor=d, remaining=budget),)
    stopped = reason is not None
    return _frozen(StepResult, state=_frozen(EngineState, statistic=d, stack=stack,
                                             stopped=stopped, stop_reason=reason,
                                             time=state.time + 1),
                   event=event, action=STOP if stopped else _action(new))


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
