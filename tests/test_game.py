import dataclasses
import itertools
import json
import random
import re
import tracemalloc

import pytest
from hypothesis import example, given, settings, strategies as st

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
    build_predictor,
    compose,
    composed_budget,
    constant_strategy,
    definedness_set,
    embed,
    extend_greedy,
    evaluate_partial,
    failure_bound,
    failure_set,
    omniscient_strategy,
    play,
    round_robin_strategy,
    seeded_random_strategy,
    strategy_from_spec,
    table_strategy,
    trace_census,
)
from nwgame import cli, game
from nwgame.bits import all_bitstrings, int_to_bits
from nwgame.cli import EXIT_OK, main
from nwgame.design import restrict
from nwgame.game import MAX_SAMPLE, MAX_STEPS, FailureReport, GameView, Transcript, scan
from nwgame.generator import evaluate
from nwgame.seeds import derive_seed

from helpers import bad_index_strategy, greedy_instance, near_omniscient, reference_instance, two_byte_slot_instance


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


def test_a_witness_game_of_4000_answered_queries_holds_linear_memory():
    # the recording copy keeps each ask's row and only the latest replies,
    # not every ask's reply prefix (about q^2/2 references, 61 MiB here)
    inst = greedy_instance(8, 3, 2, seed=0)
    a = next(x for x in all_bitstrings(8) if evaluate(inst, x)[0] == inst.b[0])  # row 0 agrees with b
    evaluate_partial(inst, constant_strategy(0), a)  # builds the instance's tables outside the measure
    tracemalloc.start()
    try:
        transcript = evaluate_partial(inst, constant_strategy(0, 4000), a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert transcript.queries == (0,) * 4000 and len(transcript.replies) == 4000 and transcript.defined
    assert peak < 1 << 20


def _unplayable(budget: int) -> StudentStrategy:
    """A plan student whose move and plan both fail the test when asked."""

    def refuse(*args):
        raise AssertionError("asked past the step cap")

    return StudentStrategy("unplayable", budget, refuse, plan=refuse)


def test_a_step_budget_past_max_steps_is_refused_before_any_move_or_plan_draw(inst_a):
    # solve mode's budget is min(max_queries, c), witness mode's max_queries
    wide = dataclasses.replace(inst_a, c=MAX_STEPS + 1)
    student = _unplayable(MAX_STEPS + 1)
    refusals = (
        lambda: play(wide, student, "0000"),
        lambda: evaluate_partial(inst_a, student, "0000"),
        lambda: scan(wide, student),
        lambda: scan(wide, student, witness=True),
        lambda: failure_set(wide, student),
        lambda: failure_set(wide, student, sample=(MAX_SAMPLE, 0)),
        lambda: definedness_set(wide, student),
        lambda: build_predictor(wide, student, (0,), "00"),
    )
    tracemalloc.start()
    try:
        for refused in refusals:
            with pytest.raises(ValueError, match=f"'unplayable' has a step budget of {MAX_STEPS + 1}, more than MAX_STEPS"):
                refused()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16  # refused before the sample's lists, which take megabytes at MAX_SAMPLE
    assert "_inputs" not in vars(wide)  # refused before the scans' input table
    with pytest.raises(ValueError, match="MAX_STEPS"):
        play(wide, constant_strategy(0, MAX_STEPS + 1), "0000")
    assert play(inst_a, constant_strategy(0, MAX_STEPS + 1), "0010").trace == (0,)  # c = 1 caps the solve budget


def test_a_step_budget_past_2_to_the_63_is_cut_or_refused_without_overflow(inst_a):
    # len(range(...)) and itertools.repeat refuse counts past 2^63 - 1, so the
    # budget is compared as an int and a constant plan is drawn lazily
    huge, once = constant_strategy(0, 1 << 64), constant_strategy(0)
    reference = [play(inst_a, once, a).trace for a in all_bitstrings(inst_a.n)]
    assert scan(inst_a, huge) == reference == scan(inst_a, once)  # c = 1 cuts the solve budget to 1
    assert failure_set(inst_a, huge) == failure_set(inst_a, once)
    wide = dataclasses.replace(inst_a, c=1 << 64)
    refusals = (
        lambda: evaluate_partial(inst_a, huge, "0000"),
        lambda: scan(inst_a, huge, witness=True),
        lambda: play(wide, round_robin_strategy(1 << 64), "0000"),
        lambda: scan(wide, huge),
    )
    for refused in refusals:
        with pytest.raises(ValueError, match=f"step budget of {1 << 64}, more than MAX_STEPS"):
            refused()


def test_a_step_budget_at_max_steps_is_played(inst_a):
    """A plan student at the cap, drawn to the cap, in both modes; its
    repeated row decides each game at the first ask, so no long game runs."""
    wide, at_cap, once = dataclasses.replace(inst_a, c=MAX_STEPS), constant_strategy(0, MAX_STEPS), constant_strategy(0)
    assert scan(inst_a, at_cap, witness=True) == scan(inst_a, once, witness=True)
    assert scan(wide, at_cap) == scan(wide, once)
    assert failure_set(wide, at_cap, sample=(16, 0)) == failure_set(wide, once, sample=(16, 0))
    for run in (play, evaluate_partial):
        assert run(wide, at_cap, "0010").trace == (0,)  # row 0 disagrees with b at once
    # the largest composite budget the failure ceiling's digits admit fits under the cap
    assert composed_budget(94) == 4465 <= MAX_STEPS
    failure_bound(inst_a.ell, 1, 94 * 94)
    with pytest.raises(ValueError, match="digits"):
        failure_bound(inst_a.ell, 1, 95 * 95)


def test_a_sample_at_max_sample_is_played_and_past_it_refused_before_any_list(inst_a):
    report = failure_set(inst_a, constant_strategy(0), sample=(MAX_SAMPLE, 0))
    assert report.sample_size == report.failure_count + report.success_count == MAX_SAMPLE
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=rf"^sample size must be in 1\.\.{MAX_SAMPLE} \(MAX_SAMPLE\), got {MAX_SAMPLE + 1}$"):
            failure_set(inst_a, _unplayable(1), sample=(MAX_SAMPLE + 1, 0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16  # a list of MAX_SAMPLE + 1 sampled ints alone takes 512 KiB


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
    unplayable = dataclasses.replace(inst_a, b=None, b_certified=False)
    for game in (play, evaluate_partial):
        with pytest.raises(ValueError, match="no off-range string b"):
            game(unplayable, constant_strategy(0), "0000")
    with pytest.raises(ValueError, match="no off-range string b"):
        scan(unplayable, constant_strategy(0))
    wide = Instance(Design(n=15, ell=2, d=0, sets=((0, 1),)), Permutation(ell=2, kind="identity"), HardBit(), c=1, b="1")
    with pytest.raises(ValueError, match="n=15 > 14"):
        scan(wide, constant_strategy(0))


def test_the_one_input_of_a_zero_bit_instance_is_the_empty_string():
    empty = Instance(Design(n=0, ell=1, d=0, sets=()), Permutation(ell=1, kind="identity"), HardBit(), c=1, b="")
    student = constant_strategy(0, queries=0)
    assert play(empty, student, "") == Transcript("", (), (), False)
    assert scan(empty, student) == [None]
    assert failure_set(empty, student, sample=(3, 0)).failures == ("", "", "")


@pytest.mark.parametrize("n", range(9))
def test_input_table_is_each_inputs_string_and_packed_restrictions(n):
    # n = 0 keeps its design with no rows; its one input is ""
    ell = min(n, 2) or 1
    design = Design(n=n, ell=ell, d=ell - 1, sets=())
    if n:
        design = extend_greedy(design, max(n - 1, 1), seed=n)
    inst = Instance(design, Permutation(ell=ell, kind="identity"), HardBit(), c=1, b="0" * design.m)
    assert "_inputs" not in vars(inst)
    inputs, packed = inst._inputs
    assert list(zip(inputs, packed)) == [(int_to_bits(x, n), inst.restrictions(x)) for x in range(1 << n)]
    # every scan hands each game the table's own string for its input
    handed = []
    scan(inst, StudentStrategy("recorder", 0, lambda view, a, replies: handed.append(a)), witness=True)
    assert len(handed) == len(inputs) and all(a is b for a, b in zip(handed, inputs))


def test_omniscient_always_succeeds_in_one_query(inst_a):
    s = omniscient_strategy()
    for a in all_bitstrings(4):
        t = play(inst_a, s, a)
        assert t.success and len(t.queries) == 1
        row = t.queries[0]
        assert evaluate(inst_a, a)[row] != inst_a.b[row]


def test_omniscient_stops_with_nothing_where_every_row_agrees_with_b(inst_a):
    # an uncertified b in the range: on x no row disagrees, so the student stops without a query
    x = "0110"
    inst = dataclasses.replace(inst_a, b=evaluate(inst_a, x), b_certified=False)
    t = play(inst, omniscient_strategy(), x)
    assert (t.queries, t.success, t.violation, t.trace) == ((), False, False, None)
    failures = failure_set(inst, omniscient_strategy()).failures
    assert x in failures and failures == tuple(a for a in all_bitstrings(4) if evaluate(inst, a) == inst.b)


def test_failure_set_constant_row0(inst_a):
    report = failure_set(inst_a, constant_strategy(0))
    assert report.exhaustive
    assert report.failure_count == 8
    assert set(report.failures) == {a for a in all_bitstrings(4) if a[2] == "0"}
    assert report.success_count == 8


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


def test_seeded_random_hashes_each_step_of_an_input_once(monkeypatch, inst_a):
    """Each input's steps 0..k are hashed once each, in step order, when
    step k is first asked, whatever the ask order, and reduced mod the
    asking instance's m; a second scan hashes nothing."""
    hashed = []

    def counting_stream(*prefix, stream=game.seed_stream):
        def row_seed(*rest, draw=stream(*prefix)):
            hashed.append(rest)
            return draw(*rest)

        return row_seed

    monkeypatch.setattr(game, "seed_stream", counting_stream)
    student = seeded_random_strategy(4, seed=9, output="s")
    inst = greedy_instance(8, 3, 2, seed=2, c=2)
    for view in (GameView(inst_a, False), GameView(inst, False)):
        for step in (2, 0, 3, 1, 2, 4):
            want = derive_seed("srand", 9, "0101", step) % view.m if step < 4 else Output("s")
            assert student.move(view, "0101", ("00",) * step) == want
    assert hashed == [("0101", 0), ("0101", 1), ("0101", 2), ("0101", 3)]
    for witness in (True, False):
        hashed.clear()
        first = scan(inst, student, witness)
        assert len(hashed) == (sum(4 if t is None else len(t) for t in first) if witness else 0)
        hashed.clear()
        assert scan(inst, student, witness) == first and hashed == []


def test_seeded_random_memo_follows_the_steps_played(tmp_path):
    """A solve-mode scan at c = 1 asks one step per input, so a budget of
    100,000 steps must not cost a row of 100,000 slots per input."""
    design, instance = tmp_path / "design.json", tmp_path / "instance.json"
    build = ["design", "build", "--q", "2", "--degree", "1", "--extend-to", "5", "--seed", "0", "--out", str(design)]
    assert main(build) == EXIT_OK
    assert main(["instance", "make", "--design", str(design), "--c", "1", "--out", str(instance)]) == EXIT_OK
    inst = Instance.from_json_dict(json.loads(instance.read_text()))
    assert (inst.n, inst.c) == (4, 1)
    tracemalloc.start()
    try:
        column = scan(inst, seeded_random_strategy(100_000, seed=1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(column) == 16 and peak < 1_000_000


def test_seeded_random_memo_empties_past_two_to_the_sixteen_inputs(monkeypatch, inst_a):
    """The memo holds 2^16 inputs; the next new input empties it, after
    which rows still follow derive_seed and the first input, asked again,
    is hashed again exactly once."""
    hashed = []

    def counting_stream(*prefix, stream=game.seed_stream):
        def row_seed(*rest, draw=stream(*prefix)):
            hashed.append(rest)
            return draw(*rest)

        return row_seed

    monkeypatch.setattr(game, "seed_stream", counting_stream)
    student = seeded_random_strategy(2, seed=4)
    view = GameView(inst_a, False)
    inputs = [format(x, "017b") for x in range((1 << 16) + 1)]
    for a in inputs[:-1]:
        student.move(view, a, ())
    first = inputs[0]
    assert len(hashed) == 1 << 16
    assert student.move(view, first, ()) == derive_seed("srand", 4, first, 0) % view.m
    assert len(hashed) == 1 << 16  # still memoized: the bound is not yet reached
    hashed.clear()
    for a, step in ((inputs[-1], 0), (first, 0), (first, 0), (inputs[-1], 0), (first, 1)):
        assert student.move(view, a, ("00",) * step) == derive_seed("srand", 4, a, step) % view.m
    assert hashed == [(inputs[-1], 0), (first, 0), (first, 1)]


def test_table_strategy_missing_input_stops(inst_a):
    s = table_strategy({"0010": (0,)}, max_queries=1)
    assert play(inst_a, s, "0010").success
    t = play(inst_a, s, "0011")
    assert not t.success and t.queries == ()


@pytest.mark.parametrize(
    "moves, key",
    [({"01x": [1], "0101010": [0]}, "01x"), ({"0101": [0], "010": [1]}, "010"), ({"": [0], "0": [1]}, "0")],
    ids=["not-bits", "two-widths", "empty-then-one-bit"],
)
def test_table_spec_refuses_keys_that_are_not_one_width_of_bits(moves, key):
    with pytest.raises(ValueError, match=repr(key)):
        strategy_from_spec({"kind": "table", "moves": moves})
    with pytest.raises(ValueError, match=repr(key)):
        table_strategy(moves, max_queries=1)


def test_table_of_another_width_refuses_the_first_move(inst_a):
    """A table keyed by 7-bit inputs on an n = 4 instance stops the scan
    at its first move, before any query, rather than stopping every game
    as if the table were empty."""
    student = strategy_from_spec({"kind": "table", "moves": {"0101010": [0]}})
    asked = []

    def move(view, a, replies):
        asked.append(replies)
        return student.move(view, a, replies)

    with pytest.raises(ValueError, match="'0101010' has 7 bits, the instance has n = 4"):
        scan(inst_a, dataclasses.replace(student, move=move))
    assert asked == [()]
    with pytest.raises(ValueError, match="'0101010'"):
        evaluate_partial(inst_a, student, "0000")
    # an empty table has no width and plays on any instance
    assert play(inst_a, table_strategy({}, max_queries=0), "0000").queries == ()


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
    for bad, message in (
        ({"kind": "psychic"}, "strategy 'kind' must be one of"),
        ("psychic", "cannot parse strategy 'psychic'"),
        ("constant", "strategy 'constant' does not match constant:row[:queries]"),
        ("constant:x", "invalid literal for int()"),
        ("round-robin:1:2:3", "does not match round-robin:max_queries[:start]"),
        ("omniscient:1", "strategy 'omniscient:1' does not match omniscient"),
        (7, "strategy spec must be an object"),
        # a table's moves are a JSON object, so `table` has no shorthand
        ("table", "cannot parse strategy 'table'"),
        ("table:1", "cannot parse strategy 'table:1'"),
    ):
        with pytest.raises(ValueError, match=re.escape(message)):
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
    st.sampled_from([-1, 5, 9, "0", 1.0, True, False]),
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
    """The game loop's transcripts (through play or evaluate_partial) and
    trace column (scan at jobs 1 and 3), and the count of move calls of
    each, equal the reference's; so does the column of `scan` on the
    student as built, which skips the game loop when it has a plan.
    Returns the reference's (transcript, moves asked) per input."""
    expected = [_stop_rule_reference(inst, student, a, witness) for a in all_bitstrings(inst.n)]
    column = [t.trace for t, _ in expected]
    moves = sum(calls for _, calls in expected)
    asked = []

    def counted(view, a, replies):
        asked.append(a)
        return student.move(view, a, replies)

    counting = dataclasses.replace(student, move=counted, plan=None)
    run = evaluate_partial if witness else play
    assert [run(inst, counting, a) for a in all_bitstrings(inst.n)] == [t for t, _ in expected]
    assert len(asked) == moves
    for jobs in (1, 3):
        asked.clear()
        assert scan(inst, counting, witness, jobs) == column
        assert len(asked) == moves
        assert scan(inst, student, witness, jobs) == column
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


def _library_students(inst):
    """Every library kind, each at a budget below and above the instance's c."""
    table = {a: (i % inst.m, (i + 2) % inst.m) for i, a in enumerate(all_bitstrings(inst.n)) if i % 3}
    return [
        constant_strategy(1, queries=0, output="zero"),
        constant_strategy(2, queries=1),
        constant_strategy(3, queries=3, output=7),
        round_robin_strategy(1, start=2, output=(1,)),
        round_robin_strategy(3, start=4),
        seeded_random_strategy(1, seed=6),
        seeded_random_strategy(4, seed=9, output="s"),
        table_strategy(table, 2, output="t"),
        table_strategy(table, 3),
    ]


@pytest.mark.parametrize("which", range(len(STOP_RULE_INSTANCES)))
@pytest.mark.parametrize("witness", [False, True])
def test_scan_asks_as_many_moves_as_the_reference(which, witness):
    inst = STOP_RULE_INSTANCES[which]
    library = _library_students(inst)
    family = StudentFamily((library[1], seeded_random_strategy(2, seed=3), round_robin_strategy(3, start=1, output="r")))
    for student in library + [omniscient_strategy()] + [compose(family, k) for k in (1, 2, 3)]:
        _scan_matches_reference(inst, student, witness)


@pytest.mark.parametrize("which", range(len(STOP_RULE_INSTANCES)))
def test_library_student_stops_with_one_output_object(which):
    inst = STOP_RULE_INSTANCES[which]
    view = GameView(inst, may_invert=False)
    for student in _library_students(inst):
        spent = ("0" * inst.ell,) * student.max_queries
        stops = [student.move(view, a, spent) for a in all_bitstrings(inst.n)]
        assert isinstance(stops[0], Output) and all(out is stops[0] for out in stops), student.name

        def recorded(view, a, replies, move=student.move):
            out = move(view, a, replies)
            assert not isinstance(out, Output) or out is stops[0]
            return out

        for witness in (False, True):
            scan(inst, dataclasses.replace(student, move=recorded, plan=None), witness=witness)


# rows of ell = 9 bits take two bytes each, so a plan there reads its columns
# off the hard bits of every 9-bit restriction (`Instance._hard_bits`)
PLAN_INSTANCES = STOP_RULE_INSTANCES + [two_byte_slot_instance()]


@settings(max_examples=60, deadline=None)
@given(
    which=st.integers(0, len(PLAN_INSTANCES) - 1),
    kind=st.sampled_from(["constant", "round-robin"]),
    row=st.one_of(st.integers(-3, 12), st.sampled_from([1.0, True])),  # the game loop takes True as row 1, 1.0 as no row
    queries=st.integers(0, 5),
    output=st.one_of(st.none(), st.integers(0, 3)),
    sample_seed=st.integers(0, 99),
    outside=st.integers(0, 255),
)
@example(which=0, kind="constant", row=1.0, queries=1, output=None, sample_seed=0, outside=0)
@example(which=0, kind="constant", row=0, queries=0, output=None, sample_seed=0, outside=0)
def test_plan_columns_match_the_game_loop_and_the_reference(which, kind, row, queries, output, sample_seed, outside):
    inst = PLAN_INSTANCES[which]
    if kind == "constant":
        built = constant_strategy(row, queries=queries, output=output)
    else:
        built = round_robin_strategy(queries, start=row, output=output)
    looped = dataclasses.replace(built, plan=None)
    inputs = list(all_bitstrings(inst.n))
    for witness in (True, False):  # the solve column is the one kept
        reference = [_stop_rule_reference(inst, built, a, witness)[0].trace for a in inputs]
        assert scan(inst, built, witness) == scan(inst, looped, witness) == reference

    rng = random.Random(derive_seed("failure-sample", sample_seed))
    failures = tuple(inputs[x] for x in [rng.randrange(1 << inst.n) for _ in range(30)] if reference[x] is None)
    for student in (built, looped):
        assert failure_set(inst, student, sample=(30, sample_seed)).failures == failures

    trace = next(filter(None, reference), (0,))
    fixed = int_to_bits(outside % (1 << (inst.n - inst.ell)), inst.n - inst.ell)
    ones = total = 0
    for u in all_bitstrings(inst.ell):
        played = reference[int(embed(u, fixed, inst.design.sets[trace[-1]], inst.n), 2)]
        if played != trace and not (played and len(played) > len(trace) and played[: len(trace)] == trace):
            total += 1
            ones += inst.hard_bit.value(inst.h.invert(u))
    for student in (built, looped):
        if len(trace) > min(student.max_queries, inst.c):
            # the fallback trace of a student that asks no row: no live game asks it
            with pytest.raises(ValueError, match=r"solve budget min\(max_queries, c\) = 0"):
                build_predictor(inst, student, trace, fixed, tables={})
        else:
            assert build_predictor(inst, student, trace, fixed, tables={}).default_bit == int(2 * ones > total)


@settings(max_examples=60, deadline=None)
@given(
    which=st.integers(0, len(PLAN_INSTANCES) - 1),
    rows=st.lists(st.one_of(st.integers(-1, 5), st.sampled_from([1.0, "0"])), max_size=5),
    max_queries=st.integers(0, 5),
    witness_first=st.booleans(),
    jobs=st.sampled_from([1, 2]),
)
@example(which=0, rows=[0, 1, 2], max_queries=3, witness_first=True, jobs=1)  # c = 1: the solve plan is (0,)
@example(which=1, rows=[3, 4, 9, 0], max_queries=4, witness_first=False, jobs=2)  # a non-row cuts both plans
def test_kept_plan_columns_match_the_uncached_path_and_the_reference(which, rows, max_queries, witness_first, jobs):
    # a fresh instance keeps no column; the modes alternate, each scanned
    # twice, so a scan reads the slot only where the other mode drew its plan
    inst = dataclasses.replace(PLAN_INSTANCES[which])
    student = StudentStrategy(
        "planned", max_queries, lambda view, a, replies: rows[len(replies)] if len(replies) < len(rows) else Output(),
        plan=lambda m: iter(rows),
    )
    inputs = list(all_bitstrings(inst.n))
    for witness in (witness_first, not witness_first) * 2:
        reference = [_stop_rule_reference(inst, student, a, witness)[0].trace for a in inputs]
        before = list(inst._plan_column)
        uncached = game._column(inst, student, witness)(*inst._inputs)  # no span: read off the packs, kept nowhere
        assert inst._plan_column == before
        assert scan(inst, student, witness, jobs) == uncached == reference
        # the slot holds this scan's plan as drawn: cut to the step budget, then at the first non-row
        budget = max_queries if witness else min(max_queries, inst.c)
        drawn = tuple(itertools.takewhile(lambda r: isinstance(r, int) and 0 <= r < inst.m, rows[:budget]))
        assert inst._plan_column == [(drawn, reference)]
        assert all(trace is None or type(trace) is tuple for trace in inst._plan_column[0][1])


def test_the_kept_plan_column_holds_the_last_plan_scanned():
    # one slot: a scan of the plan it holds reads its column, a scan of
    # another plan replaces it, and every scan matches the reference
    inst = dataclasses.replace(greedy_instance(6, 2, 1, seed=0, c=2, m=9))
    inputs = list(all_bitstrings(inst.n))

    def planned(plan):
        return StudentStrategy(
            "planned", 2, lambda view, a, replies: plan[len(replies)] if len(replies) < 2 else Output(),
            plan=lambda m: iter(plan),
        )

    for plan in ((0, 1), (0, 1), (3, 2), (0, 1), (3, 2), (3, 2)):
        [held] = inst._plan_column
        reference = [_stop_rule_reference(inst, planned(plan), a, False)[0].trace for a in inputs]
        assert scan(inst, planned(plan)) == reference
        assert inst._plan_column == [(plan, reference)]
        assert held[0] != plan or inst._plan_column[0] is held  # the same plan again reads the slot, not a rebuild

    # a sample and the predictor's default-bit batch read their own inputs' bits and leave the slot as it was
    [kept] = inst._plan_column
    assert failure_set(inst, planned((5, 7)), sample=(20, 1)).sample_size == 20
    build_predictor(inst, planned((5, 7)), (5,), "0" * (inst.n - inst.ell), tables={})
    assert len(inst._plan_column) == 1 and inst._plan_column[0] is kept


def test_a_scan_returns_a_list_of_its_own(inst_a_c2):
    for student in (round_robin_strategy(2), constant_strategy(1), seeded_random_strategy(2, seed=1)):
        for jobs in (1, 2):
            column = scan(inst_a_c2, student, jobs=jobs)
            expected = list(column)
            column[0] = "changed"
            column.append((9,))
            assert scan(inst_a_c2, student, jobs=jobs) == expected


@pytest.mark.parametrize("c", [1, 2])
def test_reports_are_the_same_bytes_with_every_plan_cleared(request, c):
    config = {
        "seed": 7,
        "c": c,
        "design": {"q": 3, "degree": 1, "extend_to": 10},
        "permutation": {"kind": "table"},
        "hard_bit": "last-bit",
        "b": {"mode": "lex-min"},
        "strategies": [
            {"kind": "constant", "row": 0},
            {"kind": "constant", "row": 4, "queries": 3, "output": 1},
            {"kind": "constant", "row": 12},
            {"kind": "round-robin", "max_queries": 2, "start": 3},
            {"kind": "round-robin", "max_queries": 3, "start": 7},
        ],
        "analyses": ["census", "assignment", "reduce", "failureset"],
    }
    built = json.dumps(cli.run_experiment(config), sort_keys=True)
    assert all(game.strategy_from_spec(spec).plan is not None for spec in config["strategies"])
    request.getfixturevalue("game_loop_only")
    assert json.dumps(cli.run_experiment(config), sort_keys=True) == built


def test_instances_of_256_rows_keep_the_game_loop():
    wide = greedy_instance(13, 3, 2, seed=1, c=300, m=256)
    design = dataclasses.replace(wide.design, sets=wide.design.sets[:255])
    rng = random.Random(derive_seed("failure-sample", 5))
    drawn = [int_to_bits(rng.randrange(1 << 13), 13) for _ in range(20)]
    for inst, loops in ((dataclasses.replace(wide, design=design, b=wide.b[:255], b_certified=False), False), (wide, True)):
        student, asked = round_robin_strategy(inst.m, start=1), []

        # this copy keeps the plan, which still names the rows its move asks,
        # so the moves asked tell the game loop from the plan column
        def counted(view, a, replies, move=student.move):
            asked.append(a)
            return move(view, a, replies)

        report = failure_set(inst, dataclasses.replace(student, move=counted), sample=(20, 5))
        assert report.failures == tuple(a for a in drawn if not play(inst, student, a).success)
        assert bool(asked) == loops


@pytest.fixture(scope="module")
def inst_n15():
    return greedy_instance(15, 4, 2, seed=3, c=2)


@pytest.mark.parametrize("sample_seed", [0, 41])
@pytest.mark.parametrize("spec", ["round-robin:2:3", "seeded-random:3:5"])
def test_sampled_failure_set_matches_per_draw_play(inst_n15, spec, sample_seed):
    student, size = strategy_from_spec(spec), 400
    rng = random.Random(derive_seed("failure-sample", sample_seed))
    drawn = [int_to_bits(rng.randrange(1 << inst_n15.n), inst_n15.n) for _ in range(size)]
    failures = tuple(a for a in drawn if not play(inst_n15, student, a).success)
    assert 0 < len(failures) < size
    report = failure_set(inst_n15, student, sample=(size, sample_seed))
    assert report == FailureReport(15, False, failures, size - len(failures), sample_size=size, seed=sample_seed)
    with pytest.raises(ValueError, match="n=15 > 14"):
        failure_set(inst_n15, student)


def test_games_past_the_scan_cap_build_no_input_table(inst_n15):
    for student in map(strategy_from_spec, ("seeded-random:2:1", "round-robin:2")):
        failure_set(inst_n15, student, sample=(50, 7))
        play(inst_n15, student, "0" * 15)
        evaluate_partial(inst_n15, student, "1" * 15)
        for scan_past_the_cap in (failure_set, definedness_set, trace_census):
            with pytest.raises(ValueError, match="n=15 > 14"):
                scan_past_the_cap(inst_n15, student)
    # a plan student's sample reads its own draws: no plan column is kept
    assert "_inputs" not in vars(inst_n15) and vars(inst_n15).get("_plan_column", [(None, None)]) == [(None, None)]


def test_a_plan_is_drawn_no_further_than_the_step_budget(inst_a_c2):
    rows = (2, 0, 3)

    def plan(m):
        yield from rows
        raise AssertionError("the plan was drawn past the step budget")

    def move(view, a, replies):
        return rows[len(replies)] if len(replies) < len(rows) else Output()

    for budget in (1, 2, 3):  # solve mode draws min(budget, c = 2) rows, witness mode budget
        student = StudentStrategy("drawn", budget, move, plan=plan)
        looped = dataclasses.replace(student, plan=None)
        for witness in (False, True):
            assert scan(inst_a_c2, student, witness) == scan(inst_a_c2, looped, witness)
        assert failure_set(inst_a_c2, student, sample=(40, 1)) == failure_set(inst_a_c2, looped, sample=(40, 1))
    # the library's plans are drawn lazily, so a budget builds no tuple of its size
    for student in (constant_strategy(1, queries=3), round_robin_strategy(3, start=2)):
        plan = student.plan(inst_a_c2.m)
        assert iter(plan) is plan and len(list(plan)) == 3


def test_plans_on_rows_wider_than_the_scan_cap_keep_the_game_loop():
    # a plan student's sample meets only the restrictions it asks, as the game
    # loop does, not all 2^ell of them (past 2^26 they would not fit)
    n, ell = 18, 15
    sets = (tuple(range(0, 15)), tuple(range(1, 16)), tuple(range(3, 18)))
    inst = Instance(Design(n, ell, 14, sets), Permutation(ell, "identity"), HardBit("parity"), c=3, b="010")
    student = round_robin_strategy(3)
    report = failure_set(inst, student, sample=(8, 2))
    rng = random.Random(derive_seed("failure-sample", 2))
    drawn = [int_to_bits(rng.randrange(1 << n), n) for _ in range(8)]
    assert report.failures == tuple(a for a in drawn if not play(inst, student, a).success)
    assert len(inst._answers) <= 3 * 8 and "_hard_bits" not in vars(inst)


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
    assert scan(inst, student, jobs=jobs) == [t.trace for t in solve]

    counts: dict = {}
    for t in solve:
        if t.trace is not None:
            counts[t.trace] = counts.get(t.trace, 0) + 1
    census = trace_census(inst, student)
    assert census.counts == counts

    report = failure_set(inst, student)
    assert report.failures == tuple(t.a for t in solve if not t.success)
    assert report.success_count == sum(t.success for t in solve)

    defined = {a for a in inputs if evaluate_partial(inst, student, a).defined}
    assert definedness_set(inst, student, jobs=jobs) == defined

    picked = best_margin_trace(census)
    longest = min(census.counts, key=lambda t: (-len(t), t), default=None)  # lex-min longest
    for trace in ([picked[0]] if picked else []) + ([longest] if longest else []) + [(arg % inst.m,)]:
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
        got = best_partial_assignment(inst, student, trace)
        assert got.row == trace[-1]
        assert (got.margin, got.outside, got.exact_count, got.proper_count) == best
