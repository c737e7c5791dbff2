"""The paper's failure bound where it has content: a student that fails on
F inputs, 0 < F < the ceiling 2^ell / (2 * (3m)^c), still yields a
predictor with advantage at least the target (3m)^(-c) / 2."""

import random

import pytest

from nwgame import evaluate, run_reduction, table_strategy
from nwgame.bits import all_bitstrings

from helpers import greedy_instance

# (instance, the failure counts to draw); c = 1 ceilings 4.27 and 4.74, c = 2 ceiling 1.01
INSTANCES = {
    "n12-c1": (lambda: greedy_instance(12, 8, 6, seed=0, c=1, m=10), (1, 4)),
    "n11-c1": (lambda: greedy_instance(11, 8, 6, seed=0, c=1, m=9), (1, 4)),
    "n14-c2": (lambda: greedy_instance(14, 12, 11, seed=0, c=2), (1,)),
}


def one_query_rows(inst):
    """Per input, the rows whose output bit differs from b's, where a
    one-query student wins, and the rows that agree with b, where it loses."""
    rows = {}
    for a in all_bitstrings(inst.n):
        out = evaluate(inst, a)
        rows[a] = ([i for i in range(inst.m) if out[i] != inst.b[i]], [i for i in range(inst.m) if out[i] == inst.b[i]])
    return rows


def _one_query_student(inst, failures, seed):
    """A one-query table student that asks, on each input, a random row whose
    output bit differs from b's, so it wins, except on `failures` random
    inputs with a row that agrees with b, where it asks such a row and loses."""
    rng = random.Random(seed)
    rows = one_query_rows(inst)
    losers = set(rng.sample(sorted(a for a, (_, agree) in rows.items() if agree), failures))
    moves = {a: (rng.choice(agree if a in losers else differ),) for a, (differ, agree) in rows.items()}
    return table_strategy(moves, max_queries=1, name=f"fails-{failures}-s{seed}")


@pytest.mark.parametrize(
    "name, failures", [(name, f) for name, (_, counts) in INSTANCES.items() for f in counts]
)
def test_student_failing_below_the_ceiling_meets_the_target(name, failures):
    inst = INSTANCES[name][0]()
    report = run_reduction(inst, _one_query_student(inst, failures, seed=failures))
    assert report.failure_count == failures
    assert 0 < failures < report.bound
    assert report.met and report.advantage >= report.target
