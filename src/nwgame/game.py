"""The query game between a student and an all-knowing teacher.

Solve mode: on a shared n-bit input, the student names rows of the design
and the teacher answers each row i with the unique permutation preimage of
the input's restriction to that row (packed once per input, then read from
the instance's memo).  The run succeeds the moment a reply's hard bit
disagrees with the published off-range string at the queried row; the
sequence of rows of a successful run is its trace.

Witness mode runs the same interaction but aborts on any disagreeing
reply, so the student's final output becomes a partial function of the
input: defined exactly where the solve-mode student fails.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import compress
from operator import not_
from typing import Any, Callable, Iterable, Iterator, NamedTuple, Sequence

from .bits import bits_to_int, check_bits, int_to_bits
from .design import restrict
from .errors import ABSENT, REQUIRED, CapabilityError, json_object, json_value
from .generator import Instance
from .seeds import derive_seed, seed_stream
from .sharding import run_sharded

EXHAUSTIVE_MAX_N = 14


@dataclass(frozen=True)
class Output:
    """A strategy's final move: stop querying and emit a value."""

    value: Any = None


@dataclass(frozen=True)
class ProtocolViolation:
    """A move that breaks the rules on purpose, e.g. a composite whose
    stage overruns its own budget: the run fails with the violation flag,
    as a query to a row that does not exist would."""


# A move is a row index to query, an Output to stop with a value, a
# ProtocolViolation to fail the run, or None to stop with nothing.
Move = Any


class GameView:
    """What a strategy is allowed to see and do.

    Public data: the design, the target string b, the budget c and the hard
    bit.  The forward permutation is free; invert, the student's own oracle
    (it never reads or fills the teacher's memo), is counted per use and
    gated on the strategy's own may_invert flag: a composite hands each
    unflagged stage the twin `without_invert`, which refuses it.
    """

    def __init__(self, inst: Instance, may_invert: bool) -> None:
        self.design = inst.design
        self.n, self.m, self.ell, self.b, self.c = inst.n, inst.m, inst.ell, inst.b, inst.c
        self.hard_bit = inst.hard_bit
        self.invert_calls = 0
        self._h = inst.h
        self._may_invert = may_invert
        self.without_invert = GameView(inst, False) if may_invert else self

    def apply(self, v: str) -> str:
        return self._h.apply(v)

    def invert(self, u: str) -> str:
        if not self._may_invert:
            raise CapabilityError("strategy is not flagged may_invert")
        self.invert_calls += 1
        return self._h.invert(u)


@dataclass(frozen=True)
class StudentStrategy:
    """A deterministic student.

    move(view, a, replies) sees the shared input and all teacher replies so
    far and returns the next row to query, an Output to stop with a value,
    or None to give up.
    """

    name: str
    max_queries: int
    move: Callable[[GameView, str, tuple[str, ...]], Move]
    may_invert: bool = False

    def __post_init__(self) -> None:
        if self.max_queries < 0:
            raise ValueError(f"strategy {self.name!r} has a negative query budget {self.max_queries}")


class Transcript(NamedTuple):
    """One full run.  `defined` is None in solve mode; in witness mode it
    records whether the run survived to produce an output.  Protocol
    violations never raise; they fail the run and set the flag."""

    a: str
    queries: tuple[int, ...]
    replies: tuple[str, ...]
    success: bool
    violation: bool = False
    defined: bool | None = None
    output: Any = None

    @property
    def trace(self) -> tuple[int, ...] | None:
        """The query sequence of a successful run; a violation never succeeds."""
        return self.queries if self.success else None

    def to_json_dict(self) -> dict:
        return {**self._asdict(), "queries": list(self.queries), "replies": list(self.replies)}


def _games(inst: Instance, strategy: StudentStrategy, witness: bool, column: bool = False) -> Callable:
    """The strategy's games on one view: games(inputs, packs) plays each
    n-bit input a in turn, its row restrictions packed as
    `inst.restrictions` packs them, until the first of:
    1. the student stops (None or an Output): the run fails;
    2. the move is not a legal query (a ProtocolViolation, a non-row, or in
       witness mode a query after max_queries replies): a violation;
    3. a reply's hard bit differs from b at the queried row: success;
    4. solve mode has answered min(max_queries, c) queries: the run fails
       and the student is not asked again.
    It yields each game's Transcript, or with `column` its trace or None."""
    if inst.b is None:
        raise ValueError("instance has no off-range string b; attach one first")
    view = GameView(inst, strategy.may_invert)
    move, limit = strategy.move, strategy.max_queries
    # witness mode asks once more after the last query, for the output
    steps = range(limit + 1) if witness else range(min(limit, inst.c))
    answers, (mask, offsets), m = inst._answers, inst._rows, inst.m
    rows = tuple(zip(offsets, inst.b))  # row -> (its slot's bit offset, its bit of b)

    def games(inputs: Iterable[str], packs: Iterable[int]) -> Iterator:
        for a, packed in zip(inputs, packs):
            queries: tuple[int, ...] = ()
            replies: tuple[str, ...] = ()
            success = violation = False
            output = None
            for step in steps:
                row = move(view, a, replies)
                if not (isinstance(row, int) and 0 <= row < m and step < limit):
                    if row is None or isinstance(row, Output):
                        output = getattr(row, "value", None)
                    else:
                        violation = True
                    break
                queries += (row,)
                shift, bit = rows[row]
                reply, hard = answers[packed >> shift & mask]
                replies += (reply,)
                if hard != bit:
                    success = True
                    break
            if column:
                yield queries if success else None
            else:
                yield Transcript(a, queries, replies, success, violation, *((not success, output) if witness else ()))

    return games


def _batch(inst: Instance, strategy: StudentStrategy, inputs: Sequence[str], witness: bool, column: bool = False) -> Iterator:
    """The games on the given n-bit strings, each checked and packed first."""
    packs = [inst.restrictions(bits_to_int(check_bits(a, inst.n, "game input"))) for a in inputs]
    return _games(inst, strategy, witness, column)(inputs, packs)


def play(inst: Instance, strategy: StudentStrategy, a: str) -> Transcript:
    """One solve-mode run on input a."""
    return next(_batch(inst, strategy, (a,), False))


def evaluate_partial(inst: Instance, strategy: StudentStrategy, a: str) -> Transcript:
    """One witness-mode run on input a; aborts on any disagreeing reply."""
    return next(_batch(inst, strategy, (a,), True))


@dataclass(frozen=True)
class FailureReport:
    """Inputs on which solve-mode runs fail.  Exhaustive for n <= EXHAUSTIVE_MAX_N;
    larger n only via an explicit, clearly-labeled Monte-Carlo sample."""

    n: int
    exhaustive: bool
    failures: tuple[str, ...]
    success_count: int
    sample_size: int | None = None
    seed: int | None = None

    @property
    def failure_count(self) -> int:
        return len(self.failures)

    def to_json_dict(self) -> dict:
        # vars, not dataclasses.asdict, which deep-copies every failure string
        return {**vars(self), "failures": list(self.failures), "failure_count": self.failure_count}


def scan(inst: Instance, strategy: StudentStrategy, witness: bool = False, jobs: int = 1) -> list:
    """Play each of the 2^n inputs once, in input order (n <= EXHAUSTIVE_MAX_N), on one
    view, reading each from `inst._inputs`, and return the trace column:
    the trace of each successful run (never empty), or None.

    Every exhaustive question about a strategy is a fold over this column;
    shards merge in input order, so `jobs` never changes the result.
    """
    if inst.n > EXHAUSTIVE_MAX_N:
        raise ValueError(f"n={inst.n} > {EXHAUSTIVE_MAX_N}: exhaustive scan refused")
    games = _games(inst, strategy, witness, True)
    inputs, packed = inst._inputs
    shards = run_sharded(1 << inst.n, jobs, lambda lo, hi: list(games(inputs[lo:hi], packed[lo:hi])))
    return [trace for shard in shards for trace in shard]


def failure_set(inst: Instance, strategy: StudentStrategy, jobs: int = 1, sample: tuple[int, int] | None = None) -> FailureReport:
    """All inputs where the solve-mode run fails (exhaustive, n <= EXHAUSTIVE_MAX_N), or
    a seeded sample of them when `sample=(size, seed)` is given."""
    if sample is not None:
        size, seed = sample
        if size < 1:
            raise ValueError(f"sample size must be at least 1, got {size}")
        rng = random.Random(derive_seed("failure-sample", seed))
        values = [rng.randrange(1 << inst.n) for _ in range(size)]
        inputs = [int_to_bits(x, inst.n) for x in values]
        column = _games(inst, strategy, False, True)(inputs, map(inst.restrictions, values))
    else:
        column = scan(inst, strategy, jobs=jobs)  # refuses n > EXHAUSTIVE_MAX_N before the input table is built
        inputs = inst._inputs[0]
    failures = tuple(compress(inputs, map(not_, column)))
    return FailureReport(inst.n, sample is None, failures, len(inputs) - len(failures), *(sample or ()))


# ---------------------------------------------------------------------------
# Built-in strategy library


def constant_strategy(row: int, queries: int = 1, output: Any = None, name: str | None = None) -> StudentStrategy:
    """Query the same row `queries` times, then stop with `output`.
    queries=0 makes a zero-query student that just emits."""
    stop = Output(output)

    def move(view: GameView, a: str, replies: tuple[str, ...]) -> Move:
        return row if len(replies) < queries else stop

    return StudentStrategy(name or f"constant-{row}x{queries}", max_queries=queries, move=move)


def round_robin_strategy(max_queries: int, start: int = 0, output: Any = None, name: str | None = None) -> StudentStrategy:
    """Query rows start, start+1, ... mod m, then stop with `output`."""
    stop = Output(output)

    def move(view: GameView, a: str, replies: tuple[str, ...]) -> Move:
        step = len(replies)
        return (start + step) % view.m if step < max_queries else stop

    return StudentStrategy(name or f"round-robin-{max_queries}@{start}", max_queries=max_queries, move=move)


def seeded_random_strategy(max_queries: int, seed: int = 0, output: Any = None, name: str | None = None) -> StudentStrategy:
    """Rows drawn from a per-(input, step) derived stream: row
    derive_seed("srand", seed, a, step) mod m, deterministic as a strategy
    and uncorrelated with the design's structure.

    One dict memoizes the 64-bit hashes, a -> slots for steps 0..k, k the
    latest step asked on a, each hashed when first asked and reduced mod m
    after the lookup, so one strategy serves any m.  Its size follows the
    steps played, not max_queries; it is emptied when it holds 2^16 inputs."""

    row_seed, stop = seed_stream("srand", seed), Output(output)
    hashes: dict[str, list[int | None]] = {}

    def move(view: GameView, a: str, replies: tuple[str, ...]) -> Move:
        step = len(replies)
        if step >= max_queries:
            return stop
        known = hashes.get(a)
        if known is None:
            if len(hashes) >= 1 << 16:
                hashes.clear()
            known = hashes[a] = []
        while len(known) <= step:
            known.append(None)
        row = known[step]
        if row is None:
            row = known[step] = row_seed(a, step)
        return row % view.m

    return StudentStrategy(name or f"seeded-random-{max_queries}s{seed}", max_queries=max_queries, move=move)


def omniscient_strategy(name: str | None = None) -> StudentStrategy:
    """Inverts the permutation directly to find a disagreeing row and
    queries it first.  Needs the may_invert capability."""

    def move(view: GameView, a: str, replies: tuple[str, ...]) -> Move:
        for i, row in enumerate(view.design.sets):
            bit = view.hard_bit.value(view.invert(restrict(a, row)))
            if bit != int(view.b[i]):
                return i
        return Output(None)

    return StudentStrategy(name or "omniscient", max_queries=1, move=move, may_invert=True)


def table_strategy(moves: dict[str, tuple], max_queries: int, name: str | None = None, output: Any = None) -> StudentStrategy:
    """Scripted per-input play: moves[a] lists the rows to query for input
    a, after which the student stops with `output`.  Inputs missing from
    the table stop immediately.  The keys are '0'/'1' strings of one
    width, and a move on an instance of another n is a ValueError."""

    first = next(iter(moves), "")
    frozen = {check_bits(a, len(first), "table key"): tuple(seq) for a, seq in moves.items()}
    stop = Output(output)

    def move(view: GameView, a: str, replies: tuple[str, ...]) -> Move:
        if frozen and view.n != len(first):
            raise ValueError(f"table key {first!r} has {len(first)} bits, the instance has n = {view.n}")
        seq, step = frozen.get(a, ()), len(replies)
        return seq[step] if step < len(seq) else stop

    return StudentStrategy(name or "table", max_queries=max_queries, move=move)


def _table_from_spec(moves: dict, max_queries: int | None = None, **rest: Any) -> StudentStrategy:
    """table_strategy from a spec: each move list holds integer rows, and
    max_queries defaults to the longest list."""
    rows = {a: json_value(seq, list, f"table moves for {a!r}") for a, seq in moves.items()}
    rows = {a: tuple(json_value(r, int, f"table row for {a!r}") for r in seq) for a, seq in rows.items()}
    if max_queries is None:
        max_queries = max(map(len, rows.values()), default=1)
    return table_strategy(rows, max_queries, **rest)


# Each kind's builder and the table of its spec fields.  The shorthand
# kind[:arg[:arg]] fills the fields before the shared ones, in this order,
# each with an integer, so a kind with another field there has none.
_NAMED = {"kind": (str, REQUIRED), "name": (str, ABSENT)}
_SHARED = {"output": (object, ABSENT), **_NAMED}
_KINDS: dict[str, tuple[Callable[..., StudentStrategy], dict[str, tuple[type, Any]]]] = {
    "constant": (constant_strategy, {"row": (int, REQUIRED), "queries": (int, ABSENT), **_SHARED}),
    "round-robin": (round_robin_strategy, {"max_queries": (int, REQUIRED), "start": (int, ABSENT), **_SHARED}),
    "seeded-random": (seeded_random_strategy, {"max_queries": (int, REQUIRED), "seed": (int, ABSENT), **_SHARED}),
    "omniscient": (omniscient_strategy, _NAMED),
    "table": (_table_from_spec, {"moves": (dict, REQUIRED), "max_queries": (int, ABSENT), **_SHARED}),
}


def strategy_from_spec(spec: dict | str) -> StudentStrategy:
    """Build a library strategy from a JSON-style description, or from the
    shorthand constant:ROW[:QUERIES], round-robin:MAX[:START],
    seeded-random:MAX[:SEED] or omniscient.

    Kinds: constant {row, queries?, output?}, round-robin {max_queries,
    start?, output?}, seeded-random {max_queries, seed?, output?},
    omniscient {}, table {moves, max_queries?, output?}.  Each accepts an
    optional name.  A missing required field, a field of the wrong JSON
    type or a field outside the kind's table is a ValueError.
    """
    if isinstance(spec, str):
        kind, *args = spec.strip().split(":")
        fields = [field for field in _KINDS[kind][1] if field not in _SHARED] if kind in _KINDS else None
        if fields is None or any(_KINDS[kind][1][field][0] is not int for field in fields):
            raise ValueError(f"cannot parse strategy {spec!r}")
        if not min(1, len(fields)) <= len(args) <= len(fields):
            usage = ":".join([kind, *fields[:1]]) + "".join(f"[:{field}]" for field in fields[1:])
            raise ValueError(f"strategy {spec!r} does not match {usage}")
        spec = {"kind": kind, **{field: int(arg) for field, arg in zip(fields, args)}}
    kind = json_value(spec, dict, "strategy spec").get("kind")
    if not isinstance(kind, str) or kind not in _KINDS:
        raise ValueError(f"strategy 'kind' must be one of {list(_KINDS)}, got {kind!r}")
    builder, fields = _KINDS[kind]
    args = json_object(spec, fields, f"{kind} strategy")
    del args["kind"]
    return builder(**args)
