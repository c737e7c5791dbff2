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
from dataclasses import dataclass, replace
from itertools import compress, islice, takewhile
from operator import not_
from typing import Any, Callable, Iterable, NamedTuple, Sequence

from .bits import bits_to_int, check_bits, int_to_bits
from .design import restrict
from .errors import ABSENT, REQUIRED, CapabilityError, json_object, json_value
from .generator import EXHAUSTIVE_MAX_N, Instance
from .seeds import derive_seed, seed_stream
from .sharding import run_sharded

# The caps on a game's step budget (the game loop is quadratic in it; the largest
# composite budget failure_bound admits is 4,465) and on a sampled failure set's size
MAX_STEPS = 1 << 14
MAX_SAMPLE = 1 << 16
_DIFFERS = {ord("0"): bytes.maketrans(b"01", b"\0\xff"), ord("1"): bytes.maketrans(b"01", b"\xff\0")}


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
    or None to give up.  plan, set when those rows depend on neither a nor the
    replies, maps m to an iterable of them in order, drawn no further than the
    step budget; scans then ask no move, so a copy that changes move must clear
    plan, as play does.
    """

    name: str
    max_queries: int
    move: Callable[[GameView, str, tuple[str, ...]], Move]
    may_invert: bool = False
    plan: Callable[[int], Iterable[int]] | None = None

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


def _column(inst: Instance, strategy: StudentStrategy, witness: bool) -> Callable:
    """The game loop: column(inputs, packs, span=None) plays each n-bit input
    a in turn on one view, its row restrictions packed as `inst.restrictions`
    packs them, and returns the list of each game's trace or None.

    A game asks the student once per step until the first of:
    1. the student stops (None or an Output): the run fails;
    2. the move is not a legal query (a ProtocolViolation, a non-row, or
       a query on witness mode's extra ask for the output after the
       steps): a violation;
    3. a reply's hard bit differs from b at the queried row: success;
    4. solve mode has answered min(max_queries, c) queries: the run fails
       and the student is not asked again.
    That step budget, an int of any size, is refused past MAX_STEPS before any
    move, range or plan draw.
    Each row maps to (bit offset of its slot, its bit of b) in a dict, so a
    move must be an int to be a row: `rows.get(1.0)` would find row 1.  A
    successful game's last reply is never added, since no move reads it.

    A plan (m < 256, ell <= EXHAUSTIVE_MAX_N) plays no game: drawn up to the
    step budget and cut at its first non-row (rule 2), it ends at the first row
    whose hard bit differs from b's (rule 3), read off the packs themselves or,
    in a scan, off every input's: the scan keeps the whole column in
    `inst._plan_column`, one slot that the next plan scanned refills, and
    returns its `span`."""
    if inst.b is None:
        raise ValueError("instance has no off-range string b; attach one first")
    budget = strategy.max_queries if witness else min(strategy.max_queries, inst.c)
    if budget > MAX_STEPS:
        raise ValueError(f"{strategy.name!r} has a step budget of {budget}, more than MAX_STEPS = {MAX_STEPS}")
    if strategy.plan is not None and inst.m < 256 and inst.ell <= EXHAUSTIVE_MAX_N:
        m, b, kept, (mask, offsets) = inst.m, inst.b.encode(), inst._plan_column, inst._rows
        plan = tuple(takewhile(lambda row: isinstance(row, int) and 0 <= row < m, islice(strategy.plan(m), budget)))
        firsts = tuple(dict.fromkeys(plan))  # a row asked again repeats its bit
        ends = [plan[: plan.index(row) + 1] for row in firsts] + [None]

        def plan_column(inputs: Sequence[str], packs: Sequence[int], span: slice | None = None) -> list:
            if span is not None and (held := kept[0])[0] == plan:  # one read of the pair; a later scan of the plan slices it
                return held[1][span]
            packs = packs if span is None else inst._inputs[1]  # a plan's first scan builds all of it
            hard, ones = inst._hard_bits, int.from_bytes(b"\1" * len(packs), "little")
            first = ones * len(firsts)  # one byte per input: its index in ends, below 256 as m is
            for step, row in reversed(list(enumerate(firsts))):  # so the first success is written last
                shift = offsets[row]
                bits = bytes([hard[p >> shift & mask] for p in packs])  # the row's hard bit on each input
                hit = int.from_bytes(bits.translate(_DIFFERS[b[row]]), "little")  # 0xff where b's bit differs
                first = first & ~hit | ones * step & hit
            column = list(map(ends.__getitem__, first.to_bytes(len(packs), "little")))
            if span is not None:
                kept[0] = plan, column
            return column if span is None else column[span]

        return plan_column
    view, move, answers, (mask, offsets) = GameView(inst, strategy.may_invert), strategy.move, inst._answers, inst._rows
    rows = dict(enumerate(zip(offsets, inst.b)))
    steps = range(budget)

    def column(inputs: Iterable[str], packs: Iterable[int], span: slice | None = None) -> list:
        traces: list = []
        for a, packed in zip(inputs, packs):
            queries: tuple[int, ...] = ()
            replies: tuple[str, ...] = ()
            for _ in steps:
                row = move(view, a, replies)
                hit = rows.get(row) if isinstance(row, int) else None
                if hit is None:
                    traces.append(None)
                    break
                shift, bit = hit
                reply, hard = answers[packed >> shift & mask]
                queries += (row,)
                if hard != bit:
                    traces.append(queries)
                    break
                replies += (reply,)
            else:
                if witness:
                    move(view, a, replies)
                traces.append(None)
        return traces

    return column


def _play(inst: Instance, strategy: StudentStrategy, a: str, witness: bool) -> Transcript:
    """One game on input a, checked and packed first, played by `_column`
    with a copy of the strategy that records each ask's row and only the
    latest ask's replies, so memory stays linear in the queries asked.
    Every ask but the last was answered, and the last only on a success or,
    in solve mode, as a legal row (rule 4); else rules 1-2 read its move."""
    packed = inst.restrictions(bits_to_int(check_bits(a, inst.n, "game input")))
    asks: list = []
    latest: list = [()]

    def move(view: GameView, a: str, replies: tuple[str, ...]) -> Move:
        latest[-1] = replies
        asks.append(strategy.move(view, a, replies))
        return asks[-1]

    [trace] = _column(inst, replace(strategy, move=move, plan=None), witness)((a,), (packed,))
    replies, row = latest[-1], asks[-1] if asks else None  # a solve budget of 0 asks nothing
    answered = trace is not None or not witness and isinstance(row, int) and 0 <= row < inst.m
    if answered:
        mask, offsets = inst._rows
        replies += (inst._answers[packed >> offsets[row] & mask][0],)
    violation = not answered and row is not None and not isinstance(row, Output)
    output = row.value if isinstance(row, Output) else None
    queries = tuple(asks[: len(replies)])
    return Transcript(a, queries, replies, trace is not None, violation, *((trace is None, output) if witness else ()))


def play(inst: Instance, strategy: StudentStrategy, a: str) -> Transcript:
    """One solve-mode run on input a."""
    return _play(inst, strategy, a, False)


def evaluate_partial(inst: Instance, strategy: StudentStrategy, a: str) -> Transcript:
    """One witness-mode run on input a; aborts on any disagreeing reply."""
    return _play(inst, strategy, a, True)


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
    """Play each of the 2^n inputs once, in input order (n <= EXHAUSTIVE_MAX_N),
    through `_column` (a plan's kept column, else the game loop on `inst._inputs`), and
    return its column: the trace of each successful run (never empty), or None.

    Every exhaustive question about a strategy is a fold over this column;
    shards merge in input order, so `jobs` never changes the result.
    """
    if inst.n > EXHAUSTIVE_MAX_N:
        raise ValueError(f"n={inst.n} > {EXHAUSTIVE_MAX_N}: exhaustive scan refused")
    column = _column(inst, strategy, witness)
    inputs, packed = inst._inputs
    shards = run_sharded(1 << inst.n, jobs, lambda lo, hi: column(inputs[lo:hi], packed[lo:hi], slice(lo, hi)))
    return shards[0] if len(shards) == 1 else [trace for shard in shards for trace in shard]


def failure_set(inst: Instance, strategy: StudentStrategy, sample: tuple[int, int] | None = None) -> FailureReport:
    """All inputs where the solve-mode run fails (exhaustive, n <= EXHAUSTIVE_MAX_N), or
    a seeded sample of them when `sample=(size, seed)`, size in 1..MAX_SAMPLE, is given."""
    if sample is not None:
        size, seed = sample
        if not 1 <= size <= MAX_SAMPLE:
            raise ValueError(f"sample size must be in 1..{MAX_SAMPLE} (MAX_SAMPLE), got {size}")
        play_sample = _column(inst, strategy, False)  # refuses a budget past MAX_STEPS before any list
        rng = random.Random(derive_seed("failure-sample", seed))
        values = [rng.randrange(1 << inst.n) for _ in range(size)]
        inputs = [int_to_bits(x, inst.n) for x in values]
        column = play_sample(inputs, list(map(inst.restrictions, values)))
    else:
        column = scan(inst, strategy)  # refuses n > EXHAUSTIVE_MAX_N before the input table is built
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

    return StudentStrategy(name or f"constant-{row}x{queries}", max_queries=queries, move=move, plan=lambda m: (row for _ in range(queries)))


def round_robin_strategy(max_queries: int, start: int = 0, output: Any = None, name: str | None = None) -> StudentStrategy:
    """Query rows start, start+1, ... mod m, then stop with `output`."""
    stop = Output(output)

    def move(view: GameView, a: str, replies: tuple[str, ...]) -> Move:
        step = len(replies)
        return (start + step) % view.m if step < max_queries else stop

    plan = lambda m: ((start + s) % m for s in range(max_queries))  # noqa: E731
    return StudentStrategy(name or f"round-robin-{max_queries}@{start}", max_queries=max_queries, move=move, plan=plan)


def seeded_random_strategy(max_queries: int, seed: int = 0, output: Any = None, name: str | None = None) -> StudentStrategy:
    """Rows drawn from a per-(input, step) derived stream: row
    derive_seed("srand", seed, a, step) mod m, deterministic as a strategy
    and uncorrelated with the design's structure.

    One dict memoizes the 64-bit hashes, a -> those of steps 0..k in step
    order (k the furthest step asked on a, each step hashed once), reduced
    mod m after the lookup so one strategy serves any m.  Its size follows
    the steps played, not max_queries; it is emptied when it holds 2^16 inputs."""

    row_seed, stop = seed_stream("srand", seed), Output(output)
    hashes: dict[str, list[int]] = {}

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
            known.append(row_seed(a, len(known)))
        return known[step] % view.m

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
