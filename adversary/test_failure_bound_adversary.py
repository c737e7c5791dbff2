"""An adversarial search for the paper's failure bound, outside tier-1.

A one-query student that fails on F inputs, 0 < F < the ceiling
2^ell / (2 * (3m)^c), must still yield a predictor whose advantage is at
least the target (3m)^(-c) / 2.  On three c = 1 instances with a ceiling
above 4, a hill climb looks for the student that brings advantage / target
lowest, and the test fails if any student it meets falls below 1.

    python -m pytest -q -s adversary

The climb starts from a student that spreads its successes evenly over the
(row, fixing) groups: each input asks the row, among those where it wins,
whose group then holds the fewest successes.  One input fails.  Each step
reads the (row, fixing) group the reduction picked and either moves one of
its successes to another winning row, or turns a success with that fixing
into a failure at that row.  Fewer inputs than the ceiling fail: a new
failure that would reach it returns an older one to a win.  A step is kept
when the ratio does not rise.
"""

import math
import random
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

from nwgame import failure_bound, run_reduction, table_strategy

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))

from helpers import greedy_instance  # noqa: E402
from test_failure_bound import INSTANCES, one_query_rows  # noqa: E402

STEPS = 300

# c = 1 ceilings 4.27, 4.74 and 4.74
CLIMBED = {
    "n12-c1": INSTANCES["n12-c1"][0],
    "n11-c1": INSTANCES["n11-c1"][0],
    "n12-m9-c1": lambda: greedy_instance(12, 8, 6, seed=1, c=1, m=9),
}


def _ratio(inst, moves, failed):
    """advantage / target of the one-query student asking moves[a] on a, and
    the reduction's picked (row, fixing)."""
    report = run_reduction(inst, table_strategy({a: (row,) for a, row in moves.items()}, max_queries=1))
    assert report.failure_count == len(failed) and 0 < len(failed) < report.bound
    return report.advantage / report.target, (report.assignment.row, report.assignment.outside)


def climb(inst, seed, steps=STEPS):
    """The least advantage / target met on a hill climb of `steps` steps,
    and the failures of the student that met it."""
    rng = random.Random(seed)
    rows = one_query_rows(inst)
    most = math.ceil(failure_bound(inst.ell, inst.m, inst.c)) - 1  # the most failures below the ceiling
    sets = [set(positions) for positions in inst.design.sets]
    fixing = {a: ["".join(bit for p, bit in enumerate(a) if p not in s) for s in sets] for a in rows}

    sizes, moves = Counter(), {}
    for a in rng.sample(sorted(rows), len(rows)):
        moves[a] = row = min(rows[a][0], key=lambda r: (sizes[r, fixing[a][r]], rng.random()))
        sizes[row, fixing[a][row]] += 1
    first = rng.choice(sorted(a for a, (_, agree) in rows.items() if agree))
    moves[first], failed = rng.choice(rows[first][1]), [first]

    ratio, (row, outside) = _ratio(inst, moves, failed)
    least = (ratio, len(failed))
    for _ in range(steps):
        kept_moves, kept_failed = dict(moves), list(failed)
        if rng.random() < 0.5:
            group = [
                a for a, r in moves.items()
                if r == row and a not in failed and fixing[a][row] == outside and len(rows[a][0]) > 1
            ]
            if not group:
                continue
            a = rng.choice(group)
            moves[a] = rng.choice([r for r in rows[a][0] if r != row])
        else:
            losers = [a for a in moves if a not in failed and fixing[a][row] == outside and row in rows[a][1]]
            if not losers:
                continue
            a = rng.choice(losers)
            moves[a] = row
            failed.append(a)
            if len(failed) > most:
                back = failed.pop(rng.randrange(len(failed) - 1))
                moves[back] = rng.choice(rows[back][0])
        trial, picked = _ratio(inst, moves, failed)
        least = min(least, (trial, len(failed)))
        if trial <= ratio:
            ratio, (row, outside) = trial, picked
        else:
            moves, failed = kept_moves, kept_failed
    return least


@pytest.mark.parametrize("name", list(CLIMBED))
def test_no_student_below_the_ceiling_misses_the_target(name):
    started = time.perf_counter()
    least, failures = climb(CLIMBED[name](), seed=0)
    print(f"\n{name}: least advantage/target {float(least):.2f} with {failures} failures, "
          f"{STEPS} steps in {time.perf_counter() - started:.1f}s")
    assert least >= 1
