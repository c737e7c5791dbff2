import dataclasses
import itertools

import pytest
from hypothesis import given, settings, strategies as st

from nwgame import (
    CapabilityError,
    Design,
    HardBit,
    Instance,
    Output,
    Permutation,
    ProtocolViolation,
    StudentFamily,
    StudentStrategy,
    best_margin_trace,
    best_partial_assignment,
    compose,
    constant_strategy,
    definedness_set,
    embed,
    evaluate_partial,
    failure_set,
    omniscient_strategy,
    play,
    round_robin_strategy,
    seeded_random_strategy,
    strategy_from_spec,
    table_strategy,
    trace_census,
)
from nwgame.bits import all_bitstrings
from nwgame.design import restrict
from nwgame.game import GameView, Transcript, scan
from nwgame.generator import evaluate

from helpers import bad_index_strategy, greedy_instance, near_omniscient, reference_instance


def test_play_constant_row0_semantics(inst_a):
    # row 0 reads (x0, x2); with identity and last-bit, success iff x2 != b0 = 0
    s = constant_strategy(0)
    for a in all_bitstrings(4):
        t = play(inst_a, s, a)
        assert t.success == (a[2] == "1")
        assert t.queries == (0,)
        assert t.replies == (a[0] + a[2],)
        assert t.trace == ((0,) if t.success else None)
        assert t.defined is None


def test_play_budget_respects_c(inst_a):
    # c=1 caps a two-query student at one query
    s = round_robin_strategy(2)
    t = play(inst_a, s, "0000")
    assert t.queries == (0,)
    assert not t.success


def test_witness_budget_is_strategy_own(inst_a):
    # witness mode ignores c and lets the student use its declared budget
    s = round_robin_strategy(2, output="done")
    t = evaluate_partial(inst_a, s, "0000")
    assert t.queries == (0, 1)
    assert t.defined and t.output == "done"


def test_witness_aborts_on_disagreement(inst_a):
    s = round_robin_strategy(2, output="done")
    t = evaluate_partial(inst_a, s, "0010")  # x2=1 disagrees at row 0
    assert t.queries == (0,)
    assert t.defined is False
    assert t.output is None


def test_zero_query_student_is_always_defined(inst_a):
    s = constant_strategy(0, queries=0, output=7)
    for a in all_bitstrings(4):
        assert not play(inst_a, s, a).success
        t = evaluate_partial(inst_a, s, a)
        assert t.defined and t.output == 7 and t.queries == ()


def test_giving_up_is_failure_not_violation(inst_a):
    s = StudentStrategy("quitter", max_queries=2, move=lambda v, a, r: None)
    t = play(inst_a, s, "0010")
    assert not t.success and not t.violation
    w = evaluate_partial(inst_a, s, "0010")
    assert w.defined and w.output is None


def test_bad_index_is_violation_not_exception(inst_a):
    s = bad_index_strategy()
    t = play(inst_a, s, "0000")
    assert not t.success and t.violation
    w = evaluate_partial(inst_a, s, "0000")
    assert w.defined and w.violation and w.output is None


def test_over_budget_query_in_witness_mode_is_violation(inst_a):
    s = StudentStrategy("greedy", max_queries=1, move=lambda v, a, r: 1)
    w = evaluate_partial(inst_a, s, "0000")  # row 1 reads (x1,x3): agrees on 0000
    assert w.queries == (1,)
    assert w.violation and w.defined and w.output is None


def test_invert_capability_is_gated(inst_a):
    snoop = StudentStrategy("snoop", max_queries=1, move=lambda v, a, r: v.invert("00") and 0)
    with pytest.raises(CapabilityError):
        play(inst_a, snoop, "0000")
    # the forward permutation stays free to a student that may not invert
    inst = greedy_instance(6, 2, 1, seed=10, perm="table", perm_seed=7)
    view = GameView(inst, may_invert=False)
    assert [view.apply(v) for v in all_bitstrings(2)] == [inst.h.apply(v) for v in all_bitstrings(2)]
    with pytest.raises(CapabilityError):
        view.invert("00")
    assert view.invert_calls == 0


def test_games_refuse_an_instance_without_b_or_past_the_scan_cap(inst_a):
    unplayable = dataclasses.replace(inst_a, b=None)
    for game in (play, evaluate_partial):
        with pytest.raises(ValueError, match="no off-range string b"):
            game(unplayable, constant_strategy(0), "0000")
    with pytest.raises(ValueError, match="no off-range string b"):
        scan(unplayable, constant_strategy(0), lambda t: t.a)
    wide = Instance(Design(n=15, ell=2, d=0, sets=((0, 1),)), Permutation(ell=2, kind="identity"), HardBit(), c=1, b="1")
    with pytest.raises(ValueError, match="n=15 > 14"):
        scan(wide, constant_strategy(0), lambda t: t.a)


def test_omniscient_always_succeeds_in_one_query(inst_a):
    s = omniscient_strategy()
    for a in all_bitstrings(4):
        t = play(inst_a, s, a)
        assert t.success and len(t.queries) == 1
        row = t.queries[0]
        assert evaluate(inst_a, a)[row] != inst_a.b[row]


def test_failure_set_constant_row0(inst_a):
    report = failure_set(inst_a, constant_strategy(0))
    assert report.exhaustive
    assert report.failure_count == 8
    assert set(report.failures) == {a for a in all_bitstrings(4) if a[2] == "0"}
    assert report.success_count == 8


def test_failure_set_jobs_invariant(inst_a):
    base = failure_set(inst_a, seeded_random_strategy(1, seed=4))
    for jobs in (2, 3, 8):
        again = failure_set(inst_a, seeded_random_strategy(1, seed=4), jobs=jobs)
        assert again.failures == base.failures
        assert again.success_count == base.success_count


def test_failure_set_empty_for_near_omniscient():
    inst = reference_instance(c=2)
    report = failure_set(inst, near_omniscient(inst, seed=1))
    assert report.failure_count == 0


def test_failure_set_sampling_is_labeled(inst_a):
    report = failure_set(inst_a, constant_strategy(0), sample=(64, 5))
    assert not report.exhaustive
    assert report.sample_size == 64 and report.seed == 5
    assert report.failure_count + report.success_count == 64
    again = failure_set(inst_a, constant_strategy(0), sample=(64, 5))
    assert again.failures == report.failures
    with pytest.raises(ValueError):
        failure_set(inst_a, constant_strategy(0), sample=(0, 5))


def test_seeded_random_strategy_is_reproducible(inst_a):
    s = seeded_random_strategy(2, seed=9)
    t1 = play(inst_a, s, "0101")
    t2 = play(inst_a, s, "0101")
    assert t1.queries == t2.queries


def test_table_strategy_missing_input_stops(inst_a):
    s = table_strategy({"0010": (0,)}, max_queries=1)
    assert play(inst_a, s, "0010").success
    t = play(inst_a, s, "0011")
    assert not t.success and t.queries == ()


def test_strategy_from_spec_round_trip(inst_a):
    for spec in (
        {"kind": "constant", "row": 0},
        {"kind": "round-robin", "max_queries": 2, "start": 1},
        {"kind": "seeded-random", "max_queries": 1, "seed": 3},
        {"kind": "omniscient"},
        {"kind": "table", "moves": {"0010": [0]}, "max_queries": 1},
    ):
        s = strategy_from_spec(spec)
        play(inst_a, s, "0010")
    for shorthand, spec in (
        ("constant:1:2", {"kind": "constant", "row": 1, "queries": 2}),
        ("round-robin:2:1", {"kind": "round-robin", "max_queries": 2, "start": 1}),
        ("seeded-random:1:3", {"kind": "seeded-random", "max_queries": 1, "seed": 3}),
        ("omniscient", {"kind": "omniscient"}),
    ):
        assert strategy_from_spec(shorthand).name == strategy_from_spec(spec).name
    for bad in ({"kind": "psychic"}, "psychic", "constant", "constant:x", "round-robin:1:2:3", "omniscient:1", 7):
        with pytest.raises(ValueError):
            strategy_from_spec(bad)
    # every field has one JSON type: no numeric strings, floats or bools for
    # integers, and no TypeError or AttributeError on the way
    for bad in (
        {"kind": 5},
        {"kind": "constant"},
        {"kind": "constant", "row": [1]},
        {"kind": "constant", "row": "1"},
        {"kind": "round-robin", "max_queries": 2.0},
        {"kind": "seeded-random", "max_queries": True},
        {"kind": "omniscient", "name": 5},
        {"kind": "table", "moves": 5},
        {"kind": "table", "moves": {"0010": 5}},
        {"kind": "table", "moves": {"0010": ["0"]}},
        {"kind": "table", "moves": {"0010": [0]}, "max_queries": None},
        "table:1",
    ):
        with pytest.raises(ValueError):
            strategy_from_spec(bad)
    assert strategy_from_spec({"kind": "omniscient", "name": ""}).name == "omniscient"
    # a negative query budget is refused by name; zero queries is a student that just emits
    for bad, name in (
        ("round-robin:-2", "round-robin--2@0"),
        ("constant:0:-1", "constant-0x-1"),
        ("seeded-random:-1", "seeded-random--1s0"),
        ({"kind": "table", "moves": {}, "max_queries": -1}, "table"),
    ):
        with pytest.raises(ValueError, match=f"strategy '{name}' has a negative query budget"):
            strategy_from_spec(bad)
    assert strategy_from_spec("constant:0:0").max_queries == 0
    assert strategy_from_spec({"kind": "table", "moves": {"0010": [0, 1]}}).max_queries == 2


def test_transcript_json_shape(inst_a):
    t = play(inst_a, constant_strategy(0), "0010")
    data = t.to_json_dict()
    assert data["a"] == "0010"
    assert data["queries"] == [0]
    assert data["success"] is True


def test_output_move_in_solve_mode_is_failure(inst_a):
    s = StudentStrategy("confident", max_queries=2, move=lambda v, a, r: Output(1))
    t = play(inst_a, s, "0010")
    assert not t.success and t.queries == ()


@settings(max_examples=50)
@given(st.integers(0, 15), st.integers(1, 3), st.integers(0, 20))
def test_budget_property(a_value, max_queries, seed):
    inst = reference_instance(c=2)
    a = format(a_value, "04b")
    s = seeded_random_strategy(max_queries, seed=seed)
    solve = play(inst, s, a)
    assert len(solve.queries) <= min(max_queries, inst.c)
    witness = evaluate_partial(inst, s, a)
    assert len(witness.queries) <= max_queries


# n = 4, m = 5: the hand-checked instance at three budgets, and a table
# permutation on a greedy design
STOP_RULE_INSTANCES = [reference_instance(c) for c in (1, 2, 3)] + [greedy_instance(4, 2, 1, seed=5, c=2)]
SCRIPTED_MOVES = st.one_of(
    st.integers(0, 4),
    st.sampled_from([-1, 5, 9, "0", 1.0]),
    st.just(ProtocolViolation()),
    st.builds(Output, st.integers(0, 3)),
    st.none(),
)


def _stop_rule_reference(inst, strategy, a, witness):
    """The transcript and the number of moves asked, from the game's four
    stop rules; the teacher's reply is the preimage of a's restriction."""
    view = GameView(inst, strategy.may_invert)
    queries, replies = [], []

    def end(asked, success, violation=False, output=None):
        transcript = Transcript(
            a, tuple(queries), tuple(replies), success, violation,
            defined=(not success) if witness else None, output=output if witness else None,
        )
        return transcript, asked

    for step in itertools.count():
        if not witness and step == min(strategy.max_queries, inst.c):
            return end(step, False)  # 4: solve mode's budget is spent
        move = strategy.move(view, a, tuple(replies))
        if move is None or isinstance(move, Output):
            return end(step + 1, False, output=move and move.value)  # 1: the student stops
        if not (isinstance(move, int) and 0 <= move < inst.m and step < strategy.max_queries):
            return end(step + 1, False, violation=True)  # 2: not a legal query
        queries.append(move)
        replies.append(inst.h.invert(restrict(a, inst.design.sets[move])))
        if inst.hard_bit.value(replies[-1]) != int(inst.b[move]):
            return end(step + 1, True)  # 3: the reply disagrees with b


def _scan_matches_reference(inst, student, witness):
    """scan's transcripts and its count of move calls equal the reference's;
    returns the reference's (transcript, moves asked) per input."""
    expected = [_stop_rule_reference(inst, student, a, witness) for a in all_bitstrings(inst.n)]
    asked = []

    def counted(view, a, replies):
        asked.append(a)
        return student.move(view, a, replies)

    counting = dataclasses.replace(student, move=counted)
    assert scan(inst, counting, lambda t: t, witness=witness) == [t for t, _ in expected]
    assert len(asked) == sum(calls for _, calls in expected)
    return expected


@settings(max_examples=150, deadline=None)
@given(
    which=st.integers(0, len(STOP_RULE_INSTANCES) - 1),
    max_queries=st.integers(0, 4),
    scripts=st.lists(st.lists(SCRIPTED_MOVES, min_size=5, max_size=5), min_size=16, max_size=16),
    witness=st.booleans(),
)
def test_stop_rules_match_reference(which, max_queries, scripts, witness):
    inst = STOP_RULE_INSTANCES[which]
    script = dict(zip(all_bitstrings(inst.n), scripts))
    asked = []

    def move(view, a, replies):
        asked.append(a)
        return script[a][len(replies)]

    student = StudentStrategy("scripted", max_queries=max_queries, move=move)
    expected = _scan_matches_reference(inst, student, witness)
    run = evaluate_partial if witness else play
    for a, (transcript, calls) in zip(all_bitstrings(inst.n), expected):
        asked.clear()
        got = run(inst, student, a)
        assert (got, len(asked)) == (transcript, calls)
        assert got.trace == (got.queries if got.success else None)


@settings(max_examples=150, deadline=None)
@given(
    which=st.integers(0, len(STOP_RULE_INSTANCES) - 1),
    kind=st.sampled_from(["constant", "round-robin", "seeded-random", "omniscient", "composed"]),
    row=st.integers(0, 9),
    queries=st.integers(0, 4),
    seed=st.integers(0, 50),
    output=st.one_of(st.none(), st.integers(0, 3)),
    witness=st.booleans(),
)
def test_library_strategies_match_reference(which, kind, row, queries, seed, output, witness):
    inst = STOP_RULE_INSTANCES[which]
    student = {
        "constant": lambda: constant_strategy(row % inst.m, queries=queries, output=output),
        "round-robin": lambda: round_robin_strategy(queries, start=row, output=output),
        "seeded-random": lambda: seeded_random_strategy(queries, seed=seed, output=output),
        "omniscient": omniscient_strategy,
        "composed": lambda: compose(
            StudentFamily((constant_strategy(row % inst.m, output=output), seeded_random_strategy(2, seed=seed))), 2
        ),
    }[kind]()
    _scan_matches_reference(inst, student, witness)


def test_transcript_is_an_immutable_value(inst_a):
    t = evaluate_partial(inst_a, round_robin_strategy(2, output=("x", 1)), "0000")
    assert t == Transcript("0000", (0, 1), ("00", "00"), False, False, True, ("x", 1))
    for field in ("a", "queries", "success", "output"):
        with pytest.raises(AttributeError):
            setattr(t, field, None)
    assert hash(t) == hash(Transcript("0000", (0, 1), ("00", "00"), False, False, True, ("x", 1)))
    assert len({t, t._replace(queries=(0, 1))}) == 1
    assert Transcript("01", (), (), False) == Transcript("01", (), (), False, False, None, None)
    assert t.to_json_dict() == {
        "a": "0000", "queries": [0, 1], "replies": ["00", "00"], "success": False,
        "violation": False, "defined": True, "output": ("x", 1),
    }
    assert list(t.to_json_dict()) == ["a", "queries", "replies", "success", "violation", "defined", "output"]


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(5, 8),
    ell=st.integers(2, 3),
    seed=st.integers(0, 1000),
    c=st.integers(1, 2),
    hard=st.sampled_from(["last-bit", "parity"]),
    kind=st.sampled_from(["constant", "round-robin", "seeded-random", "omniscient", "composed"]),
    arg=st.integers(0, 20),
    jobs=st.integers(1, 3),
)
def test_scan_folds_match_per_input_reference(n, ell, seed, c, hard, kind, arg, jobs):
    inst = greedy_instance(n, ell, ell - 1, seed=seed, perm_seed=seed, hard=hard, c=c)
    student = {
        "constant": lambda: constant_strategy(arg % inst.m, queries=c),
        "round-robin": lambda: round_robin_strategy(c, start=arg),
        "seeded-random": lambda: seeded_random_strategy(c, seed=arg),
        "omniscient": omniscient_strategy,
        "composed": lambda: compose(
            StudentFamily((constant_strategy(arg % inst.m), seeded_random_strategy(2, seed=arg))), 2
        ),
    }[kind]()
    inputs = list(all_bitstrings(n))
    solve = [play(inst, student, a) for a in inputs]
    assert scan(inst, student, lambda t: t, jobs=jobs) == solve

    counts: dict = {}
    for t in solve:
        if t.trace is not None:
            counts[t.trace] = counts.get(t.trace, 0) + 1
    census = trace_census(inst, student, jobs=jobs)
    assert census.counts == counts

    report = failure_set(inst, student, jobs=jobs)
    assert report.failures == tuple(t.a for t in solve if not t.success)
    assert report.success_count == sum(t.success for t in solve)

    defined = {a for a in inputs if evaluate_partial(inst, student, a).defined}
    assert definedness_set(inst, student, jobs=jobs) == defined

    picked = best_margin_trace(census)
    for trace in ([picked[0]] if picked else []) + [(arg % inst.m,)]:
        positions = inst.design.sets[trace[-1]]
        best = None
        for outside in all_bitstrings(n - ell):
            exact = proper = 0
            for u in all_bitstrings(ell):
                played = play(inst, student, embed(u, outside, positions, n)).trace
                if played == trace:
                    exact += 1
                elif played and len(played) > len(trace) and played[: len(trace)] == trace:
                    proper += 1
            if best is None or exact - proper > best[0]:
                best = (exact - proper, outside, exact, proper)
        got = best_partial_assignment(inst, student, trace, jobs=jobs)
        assert got.row == trace[-1]
        assert (got.margin, got.outside, got.exact_count, got.proper_count) == best
