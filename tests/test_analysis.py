import math
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from nwgame import (
    best_margin_trace,
    best_partial_assignment,
    build_predictor,
    build_witness_tables,
    constant_strategy,
    evaluate,
    extend_greedy,
    failure_bound,
    measure_advantage,
    omniscient_strategy,
    round_robin_strategy,
    run_reduction,
    seeded_random_strategy,
    table_strategy,
    trace_census,
)
from nwgame import analysis
from nwgame.analysis import MAX_BOUND_DIGITS, TraceCensus, _classify, _score_key
from nwgame.bits import all_bitstrings
from nwgame.crypto import HardBit, Permutation, preimage_bit
from nwgame.design import Design, embed, restrict
from nwgame.game import StudentStrategy, play
from nwgame.generator import Instance

from helpers import greedy_instance, near_omniscient, reference_instance, two_byte_slot_instance


def test_census_omniscient_frozen(inst_a):
    census = trace_census(inst_a, omniscient_strategy())
    assert census.counts == {(0,): 8, (1,): 4, (4,): 4}
    assert census.w_size == 16
    assert census.best_trace == (0,) and census.best_count == 8
    assert census.bound_ok is True
    assert census.margin((0,)) == 8


def test_census_empty_when_student_never_succeeds(inst_a):
    census = trace_census(inst_a, constant_strategy(0, queries=0))
    assert census.best_trace is None and census.w_size == 0
    assert census.bound_ok is None
    assert census.to_json_dict()["best"] is None


def test_census_total_matches_failure_complement(inst_a):
    from nwgame import failure_set

    for s in (constant_strategy(0), round_robin_strategy(1), omniscient_strategy()):
        census = trace_census(inst_a, s)
        failures = failure_set(inst_a, s)
        assert census.w_size + failures.failure_count == 16


def test_margin_subtracts_extensions():
    inst = reference_instance(c=2)
    s = near_omniscient(inst, seed=5)
    census = trace_census(inst, s)
    for trace in census.counts:
        extensions = sum(
            count
            for other, count in census.counts.items()
            if len(other) > len(trace) and other[: len(trace)] == trace
        )
        assert census.margin(trace) == census.counts[trace] - extensions


@given(
    st.dictionaries(
        st.lists(st.integers(0, 2), max_size=4).map(tuple), st.integers(1, 9), max_size=30
    )
)
def test_one_pass_margins_match_definition(counts):
    census = TraceCensus(3, sum(counts.values()), counts, None, 0)
    reference = {trace: census.margin(trace) for trace in counts}
    assert census.margins() == reference
    picked = best_margin_trace(census)
    assert picked == (min(reference.items(), key=_score_key(3)) if counts else None)


def test_best_margin_trace_frozen(inst_a):
    census = trace_census(inst_a, omniscient_strategy())
    assert best_margin_trace(census) == ((0,), 8)


def test_margin_score_ties_go_to_the_shorter_trace():
    # at m = 7 the margins 21 of (0,) and 1 of (0, 1) both score 21 * 21 = 1 * 21^2
    assert best_margin_trace(TraceCensus(7, 23, {(0,): 22, (0, 1): 1}, None, 0)) == ((0,), 21)


def test_margin_score_ties_of_one_length_go_to_the_lex_min_trace():
    # (0, 1) and (1, 0) have margin 2 each, and the same length
    assert best_margin_trace(TraceCensus(3, 4, {(1, 0): 2, (0, 1): 2}, None, 0)) == ((0, 1), 2)


def test_bound_ok_holds_at_equality():
    # built directly, since no census met here reaches equality:
    # best_count * (3m)^len is 1 * 6, against 2 * w_size
    assert TraceCensus(2, 3, {(0,): 1, (1,): 2}, (0,), 1).bound_ok is True
    assert TraceCensus(2, 4, {(0,): 1, (1,): 3}, (0,), 1).bound_ok is False


def test_assignment_frozen(inst_a):
    best = best_partial_assignment(inst_a, omniscient_strategy(), (0,))
    assert best.row == 0
    assert best.outside == "00"
    assert best.margin == 2 and best.exact_count == 2 and best.proper_count == 0


def test_assignment_averaging_identity(inst_a):
    # summing per-fixing margins over all fixings gives the full margin
    s = omniscient_strategy()
    census = trace_census(inst_a, s)
    trace, full_margin = best_margin_trace(census)
    positions = inst_a.design.sets[trace[-1]]
    total = 0
    best_seen = None
    for outside in all_bitstrings(inst_a.n - inst_a.ell):
        exact = proper = 0
        for u in all_bitstrings(inst_a.ell):
            kind = _classify(play(inst_a, s, embed(u, outside, positions, inst_a.n)).trace, trace)
            if kind == "exact":
                exact += 1
            elif kind == "proper":
                proper += 1
        total += exact - proper
        best_seen = max(best_seen if best_seen is not None else exact - proper, exact - proper)
    assert total == full_margin
    best = best_partial_assignment(inst_a, s, trace)
    assert best.margin == best_seen
    assert best.margin * (1 << (inst_a.n - inst_a.ell)) >= full_margin


def test_assignment_rejects_rows_outside_the_design(inst_a):
    for trace in ((99,), (-1,), (0, inst_a.m), ()):
        with pytest.raises(ValueError):
            best_partial_assignment(inst_a, omniscient_strategy(), trace)


def test_witness_tables_frozen(inst_a):
    tables = build_witness_tables(inst_a, (0,), "00")
    assert sorted(tables) == [1, 2, 3, 4]
    assert {row: len(t) for row, t in tables.items()} == {1: 1, 2: 2, 3: 2, 4: 2}
    # every entry passes the forward check and total size respects (m-1)*2^d
    for row, entries in tables.items():
        for z, v in entries.items():
            assert inst_a.h.apply(v) == z
    assert sum(len(t) for t in tables.values()) <= (inst_a.m - 1) * 2**inst_a.design.d


def test_witness_tables_reject_repeated_final_row(inst_a):
    with pytest.raises(ValueError):
        build_witness_tables(inst_a, (0, 1, 0), "00")


def test_witness_tables_reject_rows_outside_the_design(inst_a):
    for trace in ((7,), (-1,), (9, 0)):
        with pytest.raises(ValueError, match=r"rows in 0\.\.4"):
            build_witness_tables(inst_a, trace, "00")


@pytest.mark.parametrize(
    "trace", [(), (9,), (0, 1, 0), (1.0,), (0, 1.0)], ids=["empty", "row-past-m", "final-row-repeated", "float-row", "float-final-row"]
)
def test_reduction_entry_points_share_one_trace_rule(inst_a_c2, trace):
    # a final row queried twice ends no successful run: its second reply
    # equals its first, which agreed with b
    s = round_robin_strategy(2)
    entry_points = (
        lambda: best_partial_assignment(inst_a_c2, s, trace),
        lambda: build_witness_tables(inst_a_c2, trace, "00"),
        lambda: build_predictor(inst_a_c2, s, trace, "00"),
        lambda: build_predictor(inst_a_c2, s, trace, "00", tables={}),
    )
    for call in entry_points:
        with pytest.raises(ValueError, match=r"rows in 0\.\.4, its final row not queried before"):
            call()


@settings(max_examples=30, deadline=None)
@given(st.integers(5, 8), st.integers(0, 50), st.data())
def test_witness_tables_match_the_shared_bit_projection(n, seed, data):
    # the reference builds each row's table from the bits it shares with
    # the final row, filling the others from the fixed outside bits
    design = extend_greedy(Design(n=n, ell=3, d=2, sets=()), 5, seed)
    inst = Instance(design, Permutation(ell=3, kind="table", seed=seed), HardBit("last-bit"), c=1)
    row_k = data.draw(st.integers(0, inst.m - 1))
    outside = data.draw(st.text("01", min_size=n - 3, max_size=n - 3))
    final = inst.design.sets[row_k]
    fixed_at = dict(zip((p for p in range(n) if p not in final), outside))
    tables = build_witness_tables(inst, (row_k,), outside)
    assert sorted(tables) == [i for i in range(inst.m) if i != row_k]
    for i, row in enumerate(inst.design.sets):
        if i == row_k:
            continue
        shared = [p for p in row if p in final]
        reference = {}
        for w in all_bitstrings(len(shared)):
            at = {**fixed_at, **dict(zip(shared, w))}
            z = "".join(at[p] for p in row)
            reference[z] = inst.h.invert(z)
        assert tables[i] == reference


def test_predictor_equals_truth_on_reference(inst_a):
    s = omniscient_strategy()
    predictor = build_predictor(inst_a, s, (0,), "00")
    assert predictor.default_bit == 0
    for u in all_bitstrings(2):
        assert predictor.run(u) == preimage_bit(inst_a.h, inst_a.hard_bit, u)
    assert measure_advantage(inst_a, predictor) == Fraction(1, 2)
    assert predictor.missing_witness == 0
    assert predictor.forward_check_failures == 0


def _drop(table: dict, z: str) -> None:
    del table[z]


def _swap_in_wrong_preimage(table: dict, z: str) -> None:
    table[z] = table[z][:-1] + str(1 - int(table[z][-1]))


@pytest.mark.parametrize(
    "tamper, counter",
    [(_drop, "missing_witness"), (_swap_in_wrong_preimage, "forward_check_failures")],
    ids=["dropped-entry", "wrong-preimage"],
)
def test_predictor_falls_back_on_a_tampered_witness_table(tamper, counter):
    # round robin asks row 0 first on every input, so each run reads the
    # row-0 table: the runs that need the tampered entry get the default
    # bit, and each of them is counted once
    inst = greedy_instance(6, 2, 1, seed=10, perm="table", perm_seed=7, c=2)
    s = round_robin_strategy(2)
    trace = (0, 1)
    outside = best_partial_assignment(inst, s, trace).outside
    tables = build_witness_tables(inst, trace, outside)
    z = min(tables[0])
    tamper(tables[0], z)
    predictor = build_predictor(inst, s, trace, outside, tables)
    positions = inst.design.sets[trace[-1]]
    hit = [
        u for u in all_bitstrings(inst.ell)
        if restrict(embed(u, outside, positions, inst.n), inst.design.sets[0]) == z
    ]
    guesses = {u: predictor.run(u) for u in all_bitstrings(inst.ell)}
    assert hit and all(guesses[u] == predictor.default_bit for u in hit)
    counts = {key: getattr(predictor, key) for key in ("missing_witness", "forward_check_failures")}
    assert counts == {key: len(hit) if key == counter else 0 for key in counts}


def _reply_reader() -> StudentStrategy:
    """Asks row 0, then row 1 or 2 by the first bit of row 0's reply: the
    one student here whose rows read what a reply holds."""

    def move(view, a, replies):
        if not replies:
            return 0
        return 1 + int(replies[0][0]) if len(replies) == 1 else None

    return StudentStrategy("reply-reader", 2, move)


@settings(max_examples=25, deadline=None)
@given(n=st.integers(6, 9), seed=st.integers(0, 20), c=st.sampled_from([2, 3]), data=st.data())
def test_predictor_bets_exactly_where_the_live_game_reaches_the_final_row(n, seed, c, data):
    # the bet from the definition, for each u on the final row of a forced
    # multi-row trace: 1 - b[trace[-1]] when the live game's queries start
    # with the trace (every earlier reply agreed with b), else the default bit
    inst = greedy_instance(n, 3, 2, seed, c=c)
    start = data.draw(st.integers(0, inst.m - 1))
    for student in (round_robin_strategy(c, start=start), seeded_random_strategy(c, seed=seed), _reply_reader()):
        traces = sorted((t for t in trace_census(inst, student).counts if len(t) > 1), key=lambda t: (len(t), t))
        if not traces:
            continue
        trace = data.draw(st.sampled_from(traces))
        outside = best_partial_assignment(inst, student, trace).outside
        predictor = build_predictor(inst, student, trace, outside)
        positions = inst.design.sets[trace[-1]]
        for u in all_bitstrings(inst.ell):
            queries = play(inst, student, embed(u, outside, positions, inst.n)).queries
            bet = 1 - int(inst.b[trace[-1]]) if queries[: len(trace)] == trace else predictor.default_bit
            assert predictor.run(u) == bet, (student.name, trace, u)


def _advice_students(seed: int, m: int) -> list[StudentStrategy]:
    return [round_robin_strategy(2, start=seed), constant_strategy(seed % m), seeded_random_strategy(2, seed=seed), _reply_reader()]


def _check_advice_against_strings(inst: Instance, student: StudentStrategy, trace: tuple, outside: str) -> None:
    """The witness tables and every bet, from restrict/embed on each u's
    string: a table maps each restriction met, in order of first meeting, to
    its preimage; a bet is 1 - b[trace[-1]] where the live game's queries
    start with the trace, else the default bit, the majority hard bit of the
    inputs whose trace neither equals nor extends it."""
    inputs = [embed(u, outside, inst.design.sets[trace[-1]], inst.n) for u in all_bitstrings(inst.ell)]
    reference: dict = {i: {} for i in range(inst.m) if i != trace[-1]}
    for a in inputs:
        for i, table in reference.items():
            z = restrict(a, inst.design.sets[i])
            table.setdefault(z, inst.h.invert(z))
    tables = build_witness_tables(inst, trace, outside)
    assert tables == reference and all(list(tables[i]) == list(reference[i]) for i in tables)
    if len(trace) > min(student.max_queries, inst.c):
        return
    played = [play(inst, student, a) for a in inputs]
    other = [u for u, t in zip(all_bitstrings(inst.ell), played) if _classify(t.trace, trace) == "other"]
    default_bit = int(2 * sum(preimage_bit(inst.h, inst.hard_bit, u) for u in other) > len(other))
    predictor = build_predictor(inst, student, trace, outside)
    assert predictor.default_bit == default_bit
    for u, t in zip(all_bitstrings(inst.ell), played):
        bet = 1 - int(inst.b[trace[-1]]) if t.queries[: len(trace)] == trace else default_bit
        assert predictor.run(u) == bet, (student.name, trace, u)


TWO_BYTE_SLOTS = two_byte_slot_instance()


@settings(max_examples=30, deadline=None)
@given(n=st.integers(6, 10), seed=st.integers(0, 20), wide=st.booleans(), data=st.data())
def test_advice_matches_the_string_definition(n, seed, wide, data):
    inst = TWO_BYTE_SLOTS if wide else greedy_instance(n, 3, 2, seed, c=2)
    student = data.draw(st.sampled_from(_advice_students(seed, inst.m)))
    traces = sorted(trace_census(inst, student).counts, key=lambda t: (len(t), t)) or [(seed % inst.m,)]
    trace = data.draw(st.sampled_from(traces))
    outside = data.draw(st.text("01", min_size=inst.n - inst.ell, max_size=inst.n - inst.ell))
    _check_advice_against_strings(inst, student, trace, outside)


def test_predictor_refuses_an_input_that_is_not_ell_bits(inst_a):
    # the predictor reads its input by u's value, so a u of another width
    # would silently pick some other input of the fixing
    predictor = build_predictor(inst_a, omniscient_strategy(), (0,), "00")
    for u in ("", "0", "101", "0001", "0b", "2", 1):
        with pytest.raises(ValueError, match="predictor input"):
            predictor.run(u)


def test_predictor_refuses_a_trace_longer_than_the_solve_budget(monkeypatch):
    # the live game asks at most min(max_queries, c) rows, so it never asks
    # the final row of a longer trace: no bet there matches the definition's.
    # The refusal comes before any witness table is built
    monkeypatch.setattr(analysis, "build_witness_tables", None)
    for seed in range(6):
        inst = greedy_instance(8, 3, 2, seed, c=2)
        for outside in all_bitstrings(inst.n - inst.ell):
            for tables in (None, {}):
                with pytest.raises(ValueError, match=r"min\(max_queries, c\) = 2"):
                    build_predictor(inst, round_robin_strategy(3), (0, 1, 2), outside, tables)
    inst, outside = greedy_instance(8, 3, 2, 0, c=2), "00000"
    with pytest.raises(ValueError, match=r"min\(max_queries, c\) = 1"):
        build_predictor(inst, round_robin_strategy(1), (0, 1), outside, {})
    assert build_predictor(inst, round_robin_strategy(3), (0, 1), outside, {}).trace == (0, 1)


def test_default_bit_is_0_when_every_input_follows_the_trace():
    # each input of the fixing asks row 0, then a row that disagrees with b
    # if row 0 agrees: every run is an exact or proper (0,), so none is "other"
    inst = greedy_instance(6, 2, 1, seed=0, c=2)
    outside = "0" * (inst.n - inst.ell)
    moves = {}
    for u in all_bitstrings(inst.ell):
        a = embed(u, outside, inst.design.sets[0], inst.n)
        out = evaluate(inst, a)
        first = next(i for i in range(inst.m) if out[i] != inst.b[i])
        moves[a] = (0,) if first == 0 else (0, first)
    student = table_strategy(moves, 2)
    assert {_classify(play(inst, student, a).trace, (0,)) for a in moves} == {"exact", "proper"}
    assert build_predictor(inst, student, (0,), outside).default_bit == 0


def test_predictor_constant_student_is_coin(inst_a):
    # the constant student's trace carries no information beyond row 0;
    # the predictor always bets 1, right on exactly half the points
    report = run_reduction(inst_a, constant_strategy(0))
    assert report.advantage == Fraction(0)
    assert report.met is False
    assert report.failure_count == 8


def test_reduction_report_reference(inst_a):
    report = run_reduction(inst_a, omniscient_strategy())
    assert report.trace == (0,)
    assert report.margin == 8
    assert report.advantage == Fraction(1, 2)
    assert report.target == Fraction(1, 30)
    assert report.met is True
    assert report.failure_count == 0
    assert report.diagnostics["missing_witness"] == 0
    assert report.diagnostics["forward_check_failures"] == 0
    assert report.diagnostics["witness_entries"] == 7
    data = report.to_json_dict()
    assert data["advantage"] == {"num": 1, "den": 2}
    assert data["failure_bound"] == {"num": 2, "den": 15}


def test_reduction_no_trace_report(inst_a):
    report = run_reduction(inst_a, constant_strategy(0, queries=0))
    assert report.trace is None and report.advantage is None and report.met is None
    assert report.failure_count == 16


def test_reduction_on_two_query_student():
    inst = reference_instance(c=2)
    s = near_omniscient(inst, seed=5)
    report = run_reduction(inst, s)
    assert report.failure_count == 0
    assert report.advantage >= report.target
    assert report.diagnostics["missing_witness"] == 0
    assert report.diagnostics["forward_check_failures"] == 0


def test_reduction_inverts_each_restriction_once(monkeypatch):
    # a student that never inverts: every inversion is the instance memo's,
    # so the witness tables, the default bit and the truth bits read it too
    inst = greedy_instance(6, 2, 1, seed=10, perm="table", perm_seed=7, c=2)
    calls = Counter()
    invert = Permutation.invert

    def counting_invert(self, u):
        calls[u] += 1
        return invert(self, u)

    monkeypatch.setattr(Permutation, "invert", counting_invert)
    report = run_reduction(inst, round_robin_strategy(2))
    assert report.trace is not None and report.diagnostics["witness_entries"] > 0
    assert calls and max(calls.values()) == 1


def test_failure_bound_frozen_and_validated():
    assert failure_bound(2, 5, 1) == Fraction(2, 15)
    assert failure_bound(2, 5, 2) == Fraction(2, 225)
    with pytest.raises(ValueError):
        failure_bound(2, 0, 1)
    with pytest.raises(ValueError):
        failure_bound(2, 5, 0)


@pytest.mark.parametrize("m", [1, 2, 5, 12, 1000])
def test_failure_bound_refuses_exactly_the_unprintable_budgets(m):
    # 2*(3m)^c has more than MAX_BOUND_DIGITS digits exactly when it is at
    # least 10^MAX_BOUND_DIGITS; check the budgets around that edge
    limit = 10**MAX_BOUND_DIGITS
    edge = int((MAX_BOUND_DIGITS - math.log10(2)) / math.log10(3 * m))
    for c in range(max(1, edge - 2), edge + 3):
        if 2 * (3 * m) ** c < limit:
            assert len(str(failure_bound(0, m, c).denominator)) <= MAX_BOUND_DIGITS
        else:
            with pytest.raises(ValueError, match=f"c={c} at m={m}"):
                failure_bound(0, m, c)


def test_early_stop_falls_back_to_default_bit():
    # a student that follows the trace prefix but would have stopped early
    # (disagreeing reply before the final row) must get the default bit; a
    # run that reaches the final row, exactly or on the way to a longer
    # trace, gets the bet.  The best trace's one-row prefix has proper runs.
    inst = reference_instance(c=2)
    s = near_omniscient(inst, seed=5)
    census = trace_census(inst, s)
    trace, _ = best_margin_trace(census)
    if len(trace) < 2:
        pytest.skip("margin-best trace has one query; no prefix to stop at")
    seen = set()
    for chosen in (trace, trace[:1]):
        positions = inst.design.sets[chosen[-1]]
        for outside in all_bitstrings(inst.n - inst.ell):
            predictor = build_predictor(inst, s, chosen, outside)
            for u in all_bitstrings(inst.ell):
                a = embed(u, outside, positions, inst.n)
                kind = _classify(play(inst, s, a).trace, chosen)
                seen.add(kind)
                guess = predictor.run(u)
                if kind in ("exact", "proper"):
                    assert guess == 1 - int(inst.b[chosen[-1]])
                else:
                    assert guess == predictor.default_bit
    assert seen == {"exact", "proper", "other"}


@pytest.mark.parametrize("n, seed", [(10, 0), (11, 1), (12, 2)])
def test_reduction_meets_the_target_below_a_ceiling_of_at_least_one(n, seed):
    # ell = 8 and c = 1 lift the failure ceiling 2^ell/(2 * 3m) above 1
    # (3.88, 3.56 and 3.28 here), so the paper's implication is checked
    # with failures: a student failing on k inputs, 0 < k < ceiling, meets
    # the target.  It queries a row disagreeing with b, except on the first
    # k inputs, where it queries an agreeing row and so fails.
    inst = greedy_instance(n, 8, 7, seed=seed, perm="table", perm_seed=seed, c=1)
    bound = failure_bound(inst.ell, inst.m, inst.c)
    assert 3 < bound < 4
    outputs = {a: evaluate(inst, a) for a in all_bitstrings(inst.n)}

    def first_row(a: str, agree: bool) -> int:
        return next(i for i in range(inst.m) if (outputs[a][i] == inst.b[i]) == agree)

    for k in (1, 2, 3):
        moves = {a: (first_row(a, i < k),) for i, a in enumerate(outputs)}
        report = run_reduction(inst, table_strategy(moves, max_queries=1))
        assert report.failure_count == k < bound
        assert report.met is True


def test_reduction_meets_the_target_on_two_rows_below_a_c2_ceiling_of_at_least_one():
    # ell = 12 lifts the c = 2 ceiling 2^ell / (2 * (3m)^2) to 1.011 at
    # m = 15.  Each input asks an agreeing row, if it has one, and then a
    # disagreeing one, except input 0, which asks the agreeing row alone
    inst = greedy_instance(14, 12, 11, seed=0, c=2)
    assert 1 < failure_bound(inst.ell, inst.m, inst.c) < 2
    moves = {}
    for a in all_bitstrings(inst.n):
        agrees = [out == bit for out, bit in zip(evaluate(inst, a), inst.b)]
        won = (agrees.index(False),)
        moves[a] = (agrees.index(True),) + won if True in agrees else won
    moves["0" * inst.n] = moves["0" * inst.n][:1]
    report = run_reduction(inst, table_strategy(moves, max_queries=2))
    assert len(report.trace) == 2
    assert report.failure_count == 1
    assert report.met is True
