from fractions import Fraction

import pytest

from nwgame import (
    StudentFamily,
    StudentStrategy,
    compose,
    composed_budget,
    constant_strategy,
    definedness_set,
    evaluate_partial,
    extract_hardcore,
    failure_bound,
    round_robin_strategy,
    seeded_random_strategy,
    sweep,
)
from nwgame.bits import all_bitstrings

from helpers import reference_instance


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
    from nwgame import omniscient_strategy

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
