import dataclasses
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from nwgame import (
    Output,
    ProtocolViolation,
    StudentFamily,
    StudentStrategy,
    compose,
    composed_budget,
    constant_strategy,
    definedness_set,
    evaluate_partial,
    extract_hardcore,
    failure_bound,
    omniscient_strategy,
    round_robin_strategy,
    seeded_random_strategy,
    strategy_from_spec,
    sweep,
    table_strategy,
)
from nwgame import hardcore
from nwgame.bits import all_bitstrings, bits_to_hex
from nwgame.cli import hardcore_section
from nwgame.design import restrict
from nwgame.errors import CapabilityError
from nwgame.game import GameView, _games, scan
from nwgame.hardcore import HardcoreReport

from helpers import greedy_instance, reference_instance


def family4() -> StudentFamily:
    return StudentFamily(
        (
            constant_strategy(0, output="s1"),
            round_robin_strategy(2, output="s2"),
            seeded_random_strategy(3, seed=2, output="s3"),
            round_robin_strategy(4, start=1, output="s4"),
        )
    )


def test_family_validates_budgets():
    with pytest.raises(ValueError):
        StudentFamily((round_robin_strategy(2),))  # stage 1 capped at 1 query
    with pytest.raises(ValueError):
        StudentFamily((constant_strategy(0), round_robin_strategy(2), constant_strategy(1)))


def test_composed_budget_values():
    assert [composed_budget(k) for k in (1, 2, 3, 4)] == [1, 3, 6, 10]


def test_compose_declares_telescoped_budget():
    fam = family4()
    for k in (1, 2, 3, 4):
        assert compose(fam, k).max_queries == composed_budget(k)
    with pytest.raises(ValueError):
        compose(fam, 5)
    with pytest.raises(ValueError):
        compose(fam, 0)


def test_composite_output_collects_stage_outputs(inst_a):
    fam = family4()
    composite = compose(fam, 2)
    # input 0000 agrees everywhere, so every stage runs to completion
    t = evaluate_partial(inst_a, composite, "0000")
    assert t.defined and t.output == ("s1", "s2")
    assert t.queries == (0, 0, 1)  # stage 1 asks row 0; stage 2 asks rows 0,1


def test_composite_queries_never_exceed_budget(inst_a):
    fam = family4()
    for k in (1, 2, 3, 4):
        composite = compose(fam, k)
        for a in all_bitstrings(4):
            t = evaluate_partial(inst_a, composite, a)
            assert len(t.queries) <= composed_budget(k)
            assert not t.violation


def test_common_definedness_is_stage_intersection(inst_a):
    fam = family4()
    stage_sets = [definedness_set(inst_a, stage) for stage in fam.stages]
    common = set(all_bitstrings(4))
    for k in (1, 2, 3, 4):
        common &= stage_sets[k - 1]
        composite_set = definedness_set(inst_a, compose(fam, k))
        assert composite_set == common, f"k={k}"


def test_hardcore_shrinks_monotonically(inst_a):
    fam = family4()
    sizes = [extract_hardcore(inst_a, fam, k).size for k in (1, 2, 3, 4)]
    assert sizes == sorted(sizes, reverse=True)
    members = [set(extract_hardcore(inst_a, fam, k).members) for k in (1, 2, 3, 4)]
    for smaller, larger in zip(members[1:], members):
        assert smaller <= larger


def test_hardcore_frozen_sizes(inst_a):
    fam = family4()
    assert extract_hardcore(inst_a, fam, 1).size == 8  # row 0 agrees iff x2 = 0
    assert extract_hardcore(inst_a, fam, 2).size == 4  # and row 1 needs x3 = 0


def test_hardcore_bound_uses_k_squared(inst_a):
    report = extract_hardcore(inst_a, family4(), 2)
    assert report.bound == failure_bound(inst_a.ell, inst_a.m, 4)
    assert report.bound == Fraction(2, 3**4 * 5**4)
    assert report.meets_bound == (Fraction(report.size) >= report.bound)


def test_sweep_shapes_and_members(inst_a):
    reports = sweep(inst_a, family4(), 4)
    assert [r.k for r in reports] == [1, 2, 3, 4]
    data = reports[0].to_json_dict()
    assert data["size"] == 8
    assert len(data["members_hex"]) == 8
    with pytest.raises(ValueError):
        sweep(inst_a, family4(), 9)


def test_composite_capability_is_or_of_stages(inst_a):
    fam = StudentFamily((omniscient_strategy(), round_robin_strategy(2)))
    assert compose(fam, 2).may_invert
    assert not compose(family4(), 2).may_invert


def test_definedness_jobs_invariant(inst_a):
    composite = compose(family4(), 3)
    assert definedness_set(inst_a, composite, jobs=1) == definedness_set(
        inst_a, composite, jobs=5
    )


def test_stage_overrun_is_a_violation(inst_a):
    # on 0000 rows 0-3 all agree with b, so witness mode never aborts; the
    # greedy stage declares one query but keeps asking for row 1
    greedy = StudentStrategy("greedy", max_queries=1, move=lambda view, a, replies: 1)
    composite = compose(StudentFamily((constant_strategy(0), greedy)), 2)
    t = evaluate_partial(inst_a, composite, "0000")
    # stage 2 overruns after 2 of the composite's 3 queries
    assert t.queries == (0, 1)
    assert t.violation and t.defined and t.output is None
    # as stage 1 it overruns at the composite's budget of 1
    t = evaluate_partial(inst_a, compose(StudentFamily((greedy,)), 1), "0000")
    assert t.queries == (1,)
    assert t.violation and t.defined and t.output is None


def _replay_reference(family: StudentFamily, k: int) -> StudentStrategy:
    """The composite that replays every stage from the start of the reply
    stream on each move: the definition the incremental composite keeps."""
    stages = family.stages[:k]

    def move(view, a, replies):
        cursor = 0
        outputs = []
        for stage in stages:
            consumed = 0
            while True:
                stage_move = stage.move(view, a, replies[cursor : cursor + consumed])
                if isinstance(stage_move, Output) or stage_move is None:
                    value = stage_move.value if isinstance(stage_move, Output) else None
                    outputs.append(value)
                    cursor += consumed
                    break
                if consumed >= stage.max_queries:
                    return ProtocolViolation()
                if cursor + consumed < len(replies):
                    consumed += 1
                    continue
                return stage_move
        return Output(tuple(outputs))

    return dataclasses.replace(compose(family, k), move=move)


# n = 4..8 with ell = 2 replies, so the direct call sequences below can
# draw replies from the four 2-bit strings; each n has a second instance
# with one more row, whose view the call sequences switch to
DIFFERENTIAL_INSTANCES = {n: greedy_instance(n, 2, 1, seed=n, c=2) for n in range(4, 9)}
OTHER_INSTANCES = {n: greedy_instance(n, 2, 1, seed=n + 1, c=2, m=n + 2) for n in range(4, 9)}
STAGE_KINDS = ("constant", "round-robin", "seeded-random", "table", "overrun", "non-row", "adaptive")


def _overrun(budget: int) -> StudentStrategy:
    """Declares `budget` queries but never stops asking."""
    return StudentStrategy(f"overrun-{budget}", budget, lambda view, a, replies: len(replies) % view.m)


def _non_row(budget: int, at: int) -> StudentStrategy:
    """Asks row 0 until `at` replies, then names a row that does not exist."""
    return StudentStrategy(f"non-row-{at}", budget, lambda view, a, replies: 0 if len(replies) < at else view.m)


def _adaptive(budget: int, output: str) -> StudentStrategy:
    """Picks its rows from the view, the input and the replies' bits, stops
    early on some of them, and stops with the replies it saw, so a stage
    resumed from another game's progress shows."""

    def move(view, a, replies):
        pick = (view.m + a.count("1") + sum(int(reply, 2) for reply in replies)) % 3
        if len(replies) < budget and (pick or not replies):
            return pick % view.m
        return Output((output, replies))

    return StudentStrategy(f"adaptive-{budget}", budget, move)


@st.composite
def families(draw, inst, keys) -> StudentFamily:
    """1 to 4 stages of the library kinds and of students that overrun
    their budget, name a non-row or read the replies' bits; table stages
    draw their inputs from `keys`."""
    stages, budget = [], 0
    for k in range(1, draw(st.integers(1, 4)) + 1):
        budget = draw(st.integers(budget, k))
        kind, output, row = draw(st.sampled_from(STAGE_KINDS)), f"s{k}", draw(st.integers(0, inst.m - 1))
        if kind == "constant":
            stage = constant_strategy(row, queries=budget, output=output)
        elif kind == "round-robin":
            stage = round_robin_strategy(budget, start=row, output=output)
        elif kind == "seeded-random":
            stage = seeded_random_strategy(budget, seed=row, output=output)
        elif kind == "table":
            # rows -1 and m are non-rows, and a list longer than the budget overruns it
            rows = st.lists(st.integers(-1, inst.m), max_size=budget + 1)
            moves = draw(st.dictionaries(st.sampled_from(keys), rows, max_size=12))
            stage = table_strategy(moves, budget, output=output)
        elif kind == "overrun":
            stage = _overrun(budget)
        elif kind == "non-row":
            stage = _non_row(budget, draw(st.integers(0, budget)))
        else:
            stage = _adaptive(budget, output)
        stages.append(stage)
    return StudentFamily(tuple(stages))


def _counted(family: StudentFamily, asked: Counter) -> StudentFamily:
    """The family with each stage's moves tallied by (input, stage, replies
    the stage has seen)."""

    def counting(index, stage):
        def move(view, a, replies):
            asked[a, index, len(replies)] += 1
            return stage.move(view, a, replies)

        return dataclasses.replace(stage, move=move)

    return StudentFamily(tuple(counting(index, stage) for index, stage in enumerate(family.stages)))


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n=st.integers(4, 8))
def test_composite_scans_match_replay_reference(data, n):
    inst = DIFFERENTIAL_INSTANCES[n]
    family = data.draw(families(inst, list(all_bitstrings(n))))
    for k in range(1, len(family.stages) + 1):
        for witness in (False, True):
            asked = Counter()
            composite = compose(_counted(family, asked), k)
            expected = list(_games(inst, _replay_reference(family, k), witness)(*inst._inputs))
            assert list(_games(inst, composite, witness)(*inst._inputs)) == expected
            # each input is one game, in which each stage is asked once per step
            assert set(asked.values()) <= {1}
            assert scan(inst, compose(family, k), witness) == [t.trace for t in expected]


@settings(max_examples=100, deadline=None)
@given(
    data=st.data(),
    n=st.integers(4, 8),
    calls=st.lists(
        st.tuples(
            st.integers(0, 1),
            st.integers(0, 1),
            st.sampled_from(["extend", "stay", "again", "truncate", "rewrite", "jump", "restart"]),
            st.sampled_from(["00", "01", "10", "11"]),
        ),
        max_size=40,
    ),
)
def test_composite_calls_match_replay_reference(data, n, calls):
    """Two games on two inputs, interleaved, each call on the view of
    either of two instances.  "stay" asks a game again on its own stream,
    "again" repeats the previous call's (view, a, replies) exactly, and
    "jump" makes a longer stream that need not extend the last one."""
    inst = DIFFERENTIAL_INSTANCES[n]
    inputs = data.draw(st.lists(st.sampled_from(list(all_bitstrings(n))), min_size=2, max_size=2, unique=True))
    family = data.draw(families(inst, inputs))
    k = data.draw(st.integers(1, len(family.stages)))
    composite, reference = compose(family, k), _replay_reference(family, k)
    views = (GameView(inst, False), GameView(OTHER_INSTANCES[n], False))
    streams = [(), ()]
    args = (views[0], inputs[0], ())
    for game, view, action, reply in calls:
        if action != "again":
            if action == "extend":
                streams[game] += (reply,)
            elif action == "truncate":
                streams[game] = streams[game][:-1]
            elif action == "rewrite":
                streams[game] = streams[game][:-1] + (reply,)
            elif action == "jump":
                streams[game] = (reply,) * (len(streams[game]) + 1)
            elif action == "restart":
                streams[game] = ()
            args = (views[view], inputs[game], streams[game])
        assert composite.move(*args) == reference.move(*args)


@settings(max_examples=30, deadline=None)
@given(
    data=st.data(),
    n=st.integers(4, 8),
    calls=st.lists(
        st.tuples(
            st.integers(0, 1),
            st.integers(0, 1),
            st.sampled_from(["extend", "extend", "again", "back", "grow"]),
            st.lists(st.sampled_from(["00", "01", "10", "11"]), min_size=2, max_size=3).map(tuple),
        ),
        max_size=30,
    ),
)
def test_composite_resumes_only_on_one_more_reply_and_records_started_stages(data, n, calls):
    """Each move equals a freshly composed student's, on call sequences that
    extend a stream by one reply (resumed), repeat a call, skip back, or
    grow a stream by two or more; `started` holds, per input, the furthest
    stage any call started, as the stages themselves see it."""
    inst = DIFFERENTIAL_INSTANCES[n]
    inputs = data.draw(st.lists(st.sampled_from(list(all_bitstrings(n))), min_size=2, max_size=2, unique=True))
    family = data.draw(families(inst, inputs))
    k = data.draw(st.integers(1, len(family.stages)))
    started, furthest = {}, {}
    composite = compose(family, k, started)
    views = (GameView(inst, False), GameView(OTHER_INSTANCES[n], False))
    streams = [(), ()]
    args = (views[0], inputs[0], ())
    for game, view, action, replies in calls:
        if action != "again":
            if action == "extend":
                streams[game] += replies[:1]
            elif action == "grow":
                streams[game] += replies
            else:
                streams[game] = streams[game][: len(streams[game]) + 1 - len(replies)]
            args = (views[view], inputs[game], streams[game])
        handed = []
        assert composite.move(*args) == compose(_spied(family, handed), k).move(*args)
        a = args[1]
        furthest[a] = max(furthest.get(a, 1), *(index + 1 for index, _, own in handed if own == ()))
        assert started == {a: level for a, level in furthest.items() if level > 1}


def test_started_keeps_the_furthest_stage_when_a_call_skips_back():
    inst, started = DIFFERENTIAL_INSTANCES[4], {}
    family = StudentFamily((constant_strategy(0, 0), constant_strategy(1, 1), round_robin_strategy(2)))
    composite, view = compose(family, 3, started), GameView(inst, False)
    assert composite.move(view, "0000", ("00",)) == 0  # stage 2's one query answered, stage 3 asks
    assert composite.move(view, "0000", ()) == 1  # stage 2 asks again
    assert started == {"0000": 3}


def test_each_stage_is_asked_once_per_step():
    """Each finished stage costs one move that emits its Output, so the
    stage moves of a game can outnumber its composite moves; what holds is
    that no stage is asked twice with the same replies in one game."""
    inst = DIFFERENTIAL_INSTANCES[8]
    for k in (2, 3, 4):
        for witness in (False, True):
            asked, replayed = Counter(), Counter()
            scan(inst, compose(_counted(family4(), asked), k), witness=witness)
            scan(inst, _replay_reference(_counted(family4(), replayed), k), witness=witness)
            assert set(asked) == set(replayed) and set(asked.values()) == {1}
            assert sum(replayed.values()) > sum(asked.values())


def test_composite_resumes_only_its_own_game():
    """A stream that extends the last one still starts over when the input
    or the view differs: here stage 1 asks one row only for input 0001 on
    the first instance's view, so a resumed stage 2 would see one reply
    too few and ask row 0 instead of row 1."""
    inst, other = DIFFERENTIAL_INSTANCES[4], OTHER_INSTANCES[4]
    picky = StudentStrategy(
        "picky", 1, lambda view, a, replies: 0 if not replies and view.m == inst.m and a == "0001" else Output("s1")
    )
    family = StudentFamily((picky, round_robin_strategy(2, output="s2")))
    view, other_view = GameView(inst, False), GameView(other, False)
    for second in ((view, "0000", ("00",)), (other_view, "0001", ("00",)), (view, "0001", ("00",))):
        composite, reference = compose(family, 2), _replay_reference(family, 2)
        for args in ((view, "0001", ()), second, second):
            assert composite.move(*args) == reference.move(*args)
        assert reference.move(*second) == (0 if second[0] is view and second[1] == "0001" else 1)


def _spied(family: StudentFamily, handed: list) -> StudentFamily:
    """The family with every reply tuple handed to a stage recorded as
    (stage index, input, replies)."""

    def spy(index, stage):
        def move(view, a, replies):
            handed.append((index, a, replies))
            return stage.move(view, a, replies)

        return dataclasses.replace(stage, move=move)

    return StudentFamily(tuple(spy(index, stage) for index, stage in enumerate(family.stages)))


def _own_replies(inst, stage: StudentStrategy, a: str, replies: tuple[str, ...]) -> bool:
    """Whether reply j is the teacher's answer to the row `stage` queries
    after seeing replies[:j], for every j."""
    view, sets = GameView(inst, False), inst.design.sets
    rows = (stage.move(view, a, replies[:j]) for j in range(len(replies)))
    return replies == tuple(inst.h.invert(restrict(a, sets[row])) for row in rows)


def test_each_stage_is_handed_its_own_replies_when_resumed():
    inst, family, handed = DIFFERENTIAL_INSTANCES[8], family4(), []
    scan(inst, compose(_spied(family, handed), 4), witness=True)
    # resumed: no stage is handed the same replies twice in one game
    assert len(set(handed)) == len(handed) and max(len(replies) for _, _, replies in handed) == 4
    for index, a, replies in handed:
        assert _own_replies(inst, family.stages[index], a, replies)


def test_each_stage_is_handed_its_own_replies_when_recomputed():
    inst, family, handed = DIFFERENTIAL_INSTANCES[8], family4(), []
    longest = sorted(_games(inst, compose(family, 4), True)(*inst._inputs), key=lambda t: -len(t.replies))[:2]
    composite, view = compose(_spied(family, handed), 4), GameView(inst, False)
    # the two games in turn, each on a stream no longer than its last one: every call recomputes
    calls = [(t.a, t.replies[:j]) for j in range(len(longest[0].replies), -1, -1) for t in longest]
    for a, replies in calls:
        composite.move(view, a, replies)
    assert [a for a, _ in calls] == [a for index, a, replies in handed if (index, replies) == (0, ())]
    assert max(len(replies) for _, _, replies in handed) == 4
    for index, a, replies in handed:
        assert _own_replies(inst, family.stages[index], a, replies)


def test_report_leaves_out_members_above_the_emit_cap():
    # a zero-query stage is defined on all 2^13 inputs, past the 4,096 cap
    inst = greedy_instance(13, 2, 1, seed=0)
    report = extract_hardcore(inst, StudentFamily((strategy_from_spec("constant:0:0"),)), 1)
    data = report.to_json_dict()
    assert report.size == data["size"] == 8192 > HardcoreReport.MEMBER_EMIT_CAP
    assert "members_hex" not in data


def test_members_hex_is_bits_to_hex_at_every_width():
    for n in range(1, 10):
        members = tuple(all_bitstrings(n))
        data = HardcoreReport(1, n, len(members), Fraction(0), members).to_json_dict()
        assert data["members_hex"] == [bits_to_hex(a) for a in members]


def _with_omniscient(family: StudentFamily, at: int) -> StudentFamily:
    """The family with stage `at` (from 0) replaced by the omniscient student
    under that stage's budget, so the budgets stay valid."""
    stages = family.stages
    omniscient = dataclasses.replace(omniscient_strategy(), max_queries=stages[at].max_queries)
    return StudentFamily(stages[:at] + (omniscient,) + stages[at + 1 :])


@settings(max_examples=50, deadline=None)
@given(data=st.data(), n=st.integers(4, 8))
def test_sweep_matches_each_composite_scanned_alone(data, n):
    """Every report of the one-scan sweep equals the k-stage extraction and
    the definedness set of the replaying composite, with and without an
    omniscient stage that makes the later composites may_invert."""
    inst = DIFFERENTIAL_INSTANCES[n]
    family = data.draw(families(inst, list(all_bitstrings(n))))
    at = data.draw(st.none() | st.integers(0, len(family.stages) - 1))
    if at is not None:
        family = _with_omniscient(family, at)
    k_max = data.draw(st.integers(1, len(family.stages)))
    for jobs in (1, 2):
        reports = sweep(inst, family, k_max, jobs=jobs)
        assert [report.k for report in reports] == list(range(1, k_max + 1))
        for k, report in enumerate(reports, start=1):
            alone = extract_hardcore(inst, family, k)
            assert (report.to_json_dict(), report.members) == (alone.to_json_dict(), alone.members)
            assert set(report.members) == definedness_set(inst, _replay_reference(family, k), jobs=jobs)


@pytest.mark.parametrize(
    "at, scans",
    [(None, [(4, False)]), (0, [(4, True)]), (1, [(1, False), (4, True)]), (3, [(3, False), (4, True)])],
)
def test_sweep_plays_each_input_once_per_capability_run(monkeypatch, at, scans):
    """The composites a sweep scans, one game per input each: composite k_max
    alone, or first the composite of the stages before the first may_invert
    stage on a view without invert."""
    inst, games = DIFFERENTIAL_INSTANCES[6], []
    compose = hardcore.compose

    def counted(family, k, started=None):
        composite = compose(family, k, started)

        def move(view, a, replies):
            if not replies:
                games.append((k, composite.may_invert, a))
            return composite.move(view, a, replies)

        return dataclasses.replace(composite, move=move)

    monkeypatch.setattr(hardcore, "compose", counted)
    family = family4() if at is None else _with_omniscient(family4(), at)
    sweep(inst, family, 4, jobs=2)
    assert games == [(last, flag, a) for last, flag in scans for a in inst._inputs[0]]


def test_sweep_refuses_invert_to_a_stage_before_the_first_flagged_one():
    """Composite 1 may not invert, so its unflagged stage that calls invert
    fails the sweep even though composite 2 may."""

    def peek(view, a, replies):
        return Output(view.invert("0" * view.ell))

    inst = DIFFERENTIAL_INSTANCES[4]
    family = StudentFamily((StudentStrategy("peek", 1, peek), omniscient_strategy()))
    assert extract_hardcore(inst, family, 2).size >= 0
    for k_max in (1, 2):
        with pytest.raises(CapabilityError):
            sweep(inst, family, k_max)


def test_hardcore_section_reads_the_extraction_from_the_sweep(monkeypatch):
    inst, family = DIFFERENTIAL_INSTANCES[8], family4()
    expected = {
        "extract": extract_hardcore(inst, family, 2).to_json_dict(),
        "sweep": [report.to_json_dict() for report in sweep(inst, family, 3)],
    }

    def no_extract(*args, **kwargs):
        raise AssertionError("composite k scanned again")

    monkeypatch.setattr(hardcore, "extract_hardcore", no_extract)
    assert hardcore_section(inst, family, 2, 3) == expected
    with pytest.raises(AssertionError):
        hardcore_section(inst, family, 4, 3)
