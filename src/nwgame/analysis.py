"""Trace counting, assignment search, witness compilation, and the
compiled row-predictor, all in exact integer and rational arithmetic.

The pipeline turns a successful student into a predictor for the hard bit
of permutation preimages: count traces over all inputs, pick a trace whose
count beats its extensions, fix the bits outside the final queried row,
precompute teacher replies for every earlier query, and let the student's
own moves decide the guess.  The predictor never inverts the permutation
at run time; the advice is built from the instance's preimage memo.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import asdict, dataclass, field
from fractions import Fraction

from .bits import all_bitstrings, bits_to_int, check_bits, int_to_bits
from .design import embed, restrict
from .game import GameView, StudentStrategy, _column, failure_set, scan
from .generator import Instance

Trace = tuple[int, ...]


def _score_key(m: int):
    """Argmax key for weight * (3m)^len, exact integers, ties to shorter
    traces then lexicographic order.  The counting arguments guarantee some
    trace clears a bound of this shape, so maximizing it finds a witness."""

    def key(item: tuple[Trace, int]):
        trace, weight = item
        return (-weight * (3 * m) ** len(trace), len(trace), trace)

    return key


@dataclass(frozen=True)
class TraceCensus:
    """Counts of every trace over all 2^n inputs, plus the best one by the
    count-score rule.  best_trace is None when no run succeeds."""

    m: int
    w_size: int
    counts: dict[Trace, int]
    best_trace: Trace | None
    best_count: int

    @property
    def bound_ok(self) -> bool | None:
        """Whether best_count * (3m)^len >= 2 * w_size, exactly."""
        if self.best_trace is None:
            return None
        return self.best_count * (3 * self.m) ** len(self.best_trace) >= 2 * self.w_size

    def margin(self, trace: Trace) -> int:
        """count(trace) minus the counts of all proper extensions of it."""
        exact = self.counts.get(trace, 0)
        longer = sum(
            count
            for other, count in self.counts.items()
            if len(other) > len(trace) and other[: len(trace)] == trace
        )
        return exact - longer

    def margins(self) -> dict[Trace, int]:
        """margin(trace) for every counted trace, in one pass: each trace's
        count is taken off each of its proper prefixes that was counted."""
        margins = dict(self.counts)
        for trace, count in self.counts.items():
            for k in range(len(trace)):
                prefix = trace[:k]
                if prefix in margins:
                    margins[prefix] -= count
        return margins

    def to_json_dict(self) -> dict:
        ordered = sorted(self.counts.items(), key=lambda kv: (len(kv[0]), kv[0]))
        best = None
        if self.best_trace is not None:
            best = {
                "trace": list(self.best_trace),
                "count": self.best_count,
                "bound_ok": self.bound_ok,
            }
        return {
            "w_size": self.w_size,
            "traces": [{"trace": list(t), "count": count} for t, count in ordered],
            "best": best,
        }


def trace_census(inst: Instance, strategy: StudentStrategy) -> TraceCensus:
    """Play every input and tally traces of successful runs (n <= EXHAUSTIVE_MAX_N)."""
    counts: dict[Trace, int] = dict(Counter(filter(None, scan(inst, strategy))))
    best, best_count = min(counts.items(), key=_score_key(inst.m), default=(None, 0))
    return TraceCensus(inst.m, sum(counts.values()), counts, best, best_count)


def best_margin_trace(census: TraceCensus) -> tuple[Trace, int] | None:
    """The trace maximizing margin * (3m)^(-len); this is the selection the
    reduction uses, since exact-count wins can be cancelled by extensions."""
    return min(census.margins().items(), key=_score_key(census.m), default=None)


@dataclass(frozen=True)
class PartialAssignment:
    """A fixing of the input bits outside the final queried row.

    row: last entry of the trace; the free bits live on that row's set.
    outside: the fixed bits, ascending position order.
    margin: exact-trace count minus proper-extension count over the free bits.
    """

    row: int
    outside: str
    margin: int
    exact_count: int
    proper_count: int

    def to_json_dict(self) -> dict:
        return asdict(self)


def _classify(trace: Trace | None, target: Trace) -> str:
    if trace == target:
        return "exact"
    if trace is not None and len(trace) > len(target) and trace[: len(target)] == target:
        return "proper"
    return "other"


def _final_row(inst: Instance, trace: Trace) -> int:
    """Check the one trace rule of the reduction's entry points; return trace[-1]."""
    if not trace or trace[-1] in trace[:-1] or not all(isinstance(row, int) and 0 <= row < inst.m for row in trace):
        raise ValueError(f"trace must be nonempty rows in 0..{inst.m - 1}, its final row not queried before: {list(trace)}")
    return trace[-1]


def best_partial_assignment(inst: Instance, strategy: StudentStrategy, trace: Trace) -> PartialAssignment:
    """Group all 2^n inputs by their bits outside the trace's final row and
    keep the fixing maximizing the margin; ties go to the lexicographically
    smallest fixing.

    Each distinct trace of the scan is scored once: exact +1, proper -1,
    other 0.  A fixing's group is its 2^ell inputs fixing | deposit(u) over
    the row's positions, so its margin is the sum of its group's scores,
    and the first maximum in ascending fixing order is the lex-min fixing.

    The best margin is at least ceil(full_margin / 2^(n-ell)) by averaging:
    summing per-fixing margins over all fixings gives the full margin.
    """
    row, n = _final_row(inst, trace), inst.n
    inside = inst.design.sets[row]
    # both built from the lowest bit up, so `fixings` ascends, and the i-th
    # fixing's outside bits read as the n - ell bits of i
    deposits, fixings = [0], [0]
    for p in reversed(range(n)):
        group = deposits if p in inside else fixings
        group += [x | 1 << (n - 1 - p) for x in group]

    played, size = scan(inst, strategy), len(deposits)
    score = {"exact": 1, "proper": -1, "other": 0}
    scored = {seen: score[_classify(seen, trace)] for seen in set(played)}
    scores = [scored[played[fixing | u]] for fixing in fixings for u in deposits]
    margins = list(map(sum, zip(*[iter(scores)] * size)))
    best = margins.index(max(margins))
    won = scores[best * size : (best + 1) * size]
    return PartialAssignment(row, int_to_bits(best, n - inst.ell), margins[best], won.count(1), won.count(-1))


def _group(inst: Instance, row: int, outside: str) -> tuple[list[str], list[int]]:
    """The 2^ell inputs fixing `outside` off design row `row`, the one at
    index v placing u of value v on the row, and their `restrictions` packs."""
    check_bits(outside, inst.n - inst.ell, "outside bits")
    inputs = [embed(u, outside, inst.design.sets[row], inst.n) for u in all_bitstrings(inst.ell)]
    return inputs, list(map(inst.restrictions, map(bits_to_int, inputs)))


def build_witness_tables(
    inst: Instance, trace: Trace, outside: str, group: tuple[list[str], list[int]] | None = None
) -> dict[int, dict[str, str]]:
    """Precompute teacher replies for every row other than the trace's last.

    With the outside bits fixed, the inputs are the embeddings of every
    ell-bit u on the final row (`group`, built here when not given), and a
    row's restriction depends only on the bits it shares with that row, so
    each table has at most 2^d entries: the map from the row's restriction z
    to its preimage, read off the inputs' packs in order of first meeting.
    """
    row_k = _final_row(inst, trace)
    packs = (group or _group(inst, row_k, outside))[1]
    (mask, shifts), answers, names = inst._rows, inst._answers, list(all_bitstrings(inst.ell))
    return {
        i: {names[z]: answers[z][0] for z in dict.fromkeys([p >> shift & mask for p in packs])}
        for i, shift in enumerate(shifts)
        if i != row_k
    }


@dataclass
class Predictor:
    """Compiled guesser for the hard bit of the preimage of an ell-bit u.

    run(u) takes the input placing u on the final trace row from `inputs`
    (the fixing's 2^ell inputs, indexed by u's value) and replays the student
    on the earlier rows, answering each from the prebuilt witness tables
    (checked by the forward permutation only, never inverted); any deviation,
    or a reply whose hard bit disagrees with b, returns the default bit.  It
    then asks the final move once and bets against b's bit only if it is that
    row.  A u that is not ell bits is a ValueError.
    """

    inst: Instance
    strategy: StudentStrategy
    trace: Trace
    outside: str
    tables: dict[int, dict[str, str]]
    default_bit: int
    view: GameView
    inputs: list[str]
    missing_witness: int = 0
    forward_check_failures: int = 0

    def run(self, u: str) -> int:
        inst = self.inst
        trace = self.trace
        a = self.inputs[bits_to_int(check_bits(u, inst.ell, "predictor input"))]
        replies: tuple[str, ...] = ()
        for expected in trace[:-1]:
            move = self.strategy.move(self.view, a, replies)
            if not isinstance(move, int) or move != expected:
                return self.default_bit
            z = restrict(a, inst.design.sets[expected])
            witness = self.tables.get(expected, {}).get(z)
            if witness is None:
                self.missing_witness += 1
                return self.default_bit
            if inst.h.apply(witness) != z:
                self.forward_check_failures += 1
                return self.default_bit
            if inst.hard_bit.value(witness) != int(inst.b[expected]):
                # live game would have stopped here, short of the full trace
                return self.default_bit
            replies += (witness,)
        move = self.strategy.move(self.view, a, replies)
        if isinstance(move, int) and move == trace[-1]:
            # the live run reached the final query; bet that it succeeded
            return 1 - int(inst.b[trace[-1]])
        return self.default_bit


def build_predictor(
    inst: Instance,
    strategy: StudentStrategy,
    trace: Trace,
    outside: str,
    tables: dict[int, dict[str, str]] | None = None,
) -> Predictor:
    """Assemble the advice: witness tables plus the default bit, computed as
    the exact majority of the true hard bit over the inputs whose live trace
    neither equals nor extends the chosen trace (ties and empty sets to 0).
    The tables, the default bit's batch and `Predictor.run` share one group
    of the fixing's inputs.  Inversion is confined to this build step."""
    row = _final_row(inst, trace)
    budget = min(strategy.max_queries, inst.c)  # the live game never asks the final row of a longer trace
    if len(trace) > budget:
        raise ValueError(f"trace has {len(trace)} rows, more than the solve budget min(max_queries, c) = {budget}")
    group = _group(inst, row, outside)
    if tables is None:
        tables = build_witness_tables(inst, trace, outside, group)
    ones = total = 0
    for value, played in enumerate(_column(inst, strategy, False)(*group)):
        if _classify(played, trace) == "other":
            total += 1
            ones += int(inst._answers[value][1])
    default_bit = 1 if 2 * ones > total else 0
    return Predictor(
        inst=inst,
        strategy=strategy,
        trace=trace,
        outside=outside,
        tables=tables,
        default_bit=default_bit,
        view=GameView(inst, strategy.may_invert),
        inputs=group[0],
    )


def measure_advantage(inst: Instance, predictor: Predictor) -> Fraction:
    """Exact advantage over a coin flip: agreement rate with the true hard
    bit across all 2^ell points, minus one half."""
    agree = 0
    for value, u in enumerate(all_bitstrings(inst.ell)):
        if predictor.run(u) == int(inst._answers[value][1]):
            agree += 1
    return Fraction(agree, 1 << inst.ell) - Fraction(1, 2)


# Python's default cap on the digits of an int converted to text
MAX_BOUND_DIGITS = 4300


def failure_bound(ell: int, m: int, c: int) -> Fraction:
    """Ceiling on tolerable solve-mode failures: 2^ell / (2 * (3m)^c).  A
    budget whose denominator would have more than MAX_BOUND_DIGITS digits
    cannot be reported, so it is refused before the power is formed."""
    if ell < 0 or m < 1 or c < 1:
        raise ValueError(f"need ell >= 0, m >= 1, c >= 1; got {(ell, m, c)}")
    if math.log10(2) + c * math.log10(3 * m) >= MAX_BOUND_DIGITS:
        raise ValueError(f"budget c={c} at m={m}: 2*(3m)^c has more than {MAX_BOUND_DIGITS} digits")
    return Fraction(2**ell, 2 * (3 * m) ** c)


@dataclass(frozen=True)
class ReductionReport:
    """Everything the trace-to-predictor pipeline produced, exactly.  The
    fields from trace to met are None when no run succeeds."""

    census: TraceCensus
    target: Fraction
    failure_count: int
    bound: Fraction
    trace: Trace | None = None
    margin: int | None = None
    assignment: PartialAssignment | None = None
    default_bit: int | None = None
    advantage: Fraction | None = None
    met: bool | None = None
    diagnostics: dict[str, int] = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "census": self.census.to_json_dict(),
            "trace": None if self.trace is None else list(self.trace),
            "margin": self.margin,
            "assignment": None if self.assignment is None else self.assignment.to_json_dict(),
            "default_bit": self.default_bit,
            "advantage": None if self.advantage is None else _fraction_json(self.advantage),
            "target": _fraction_json(self.target),
            "met": self.met,
            "failure_count": self.failure_count,
            "failure_bound": _fraction_json(self.bound),
            "diagnostics": dict(sorted(self.diagnostics.items())),
        }


def _fraction_json(value: Fraction) -> dict:
    return {"num": value.numerator, "den": value.denominator}


def run_reduction(inst: Instance, strategy: StudentStrategy) -> ReductionReport:
    """Full pipeline: census, margin-best trace, assignment search, witness
    tables, predictor build, exact advantage measurement."""
    target = failure_bound(0, inst.m, inst.c)
    bound = failure_bound(inst.ell, inst.m, inst.c)
    census = trace_census(inst, strategy)
    failures = failure_set(inst, strategy)
    picked = best_margin_trace(census)
    if picked is None:
        return ReductionReport(census, target, failures.failure_count, bound)
    trace, margin = picked
    assignment = best_partial_assignment(inst, strategy, trace)
    predictor = build_predictor(inst, strategy, trace, assignment.outside)
    advantage = measure_advantage(inst, predictor)
    diagnostics = {
        "missing_witness": predictor.missing_witness,
        "forward_check_failures": predictor.forward_check_failures,
        "student_invert_calls": predictor.view.invert_calls,
        "witness_entries": sum(len(t) for t in predictor.tables.values()),
    }
    return ReductionReport(
        census=census,
        trace=trace,
        margin=margin,
        assignment=assignment,
        default_bit=predictor.default_bit,
        advantage=advantage,
        target=target,
        met=advantage >= target,
        failure_count=failures.failure_count,
        bound=bound,
        diagnostics=diagnostics,
    )
