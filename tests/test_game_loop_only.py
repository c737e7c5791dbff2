"""The report-producing checks rerun through the game loop alone.

Under the `game_loop_only` fixture (tests/conftest.py) no strategy keeps a
plan, so every scan, sample and predictor batch plays each game.  The golden
corpus must then give the bytes recorded in `tests/golden.json`, and the
acceptance criteria that read plan columns (2, 3 and 7) must still pass.  An
engine that answers a plan student differently from the game loop fails here.
"""

import dataclasses
import json

from nwgame import StudentFamily, compose, constant_strategy, game, round_robin_strategy
from nwgame.game import scan

import test_acceptance as acceptance
from helpers import counting_corpus, reference_instance
from test_golden import GOLDEN, run_corpus

PLANNED = round_robin_strategy(2)  # built outside the fixture, so it keeps its plan

SPECS = {
    "constant": "constant:1",
    "round-robin": "round-robin:2:1",
    "seeded-random": "seeded-random:2:4",
    "omniscient": "omniscient",
    "table": {"kind": "table", "moves": {"0110": [2, 0]}},
}


def test_the_switch_reaches_every_construction_path(game_loop_only):
    assert sorted(SPECS) == sorted(game._KINDS)
    for kind, spec in SPECS.items():
        assert game.strategy_from_spec(spec).plan is None, kind
    assert compose(StudentFamily((constant_strategy(0), round_robin_strategy(2))), 2).plan is None
    assert PLANNED.plan is not None and dataclasses.replace(PLANNED).plan is None
    inst = reference_instance(c=2)
    scan(inst, round_robin_strategy(2))
    assert inst._plan_column == [(None, None)]


def test_golden_corpus_matches_through_the_game_loop(game_loop_only, tmp_path):
    recorded = json.loads(GOLDEN.read_text())
    played = run_corpus(tmp_path)
    assert [name for name in recorded if played[name] != recorded[name]] == []


def test_criteria_2_3_and_7_pass_through_the_game_loop(game_loop_only):
    # each engine computes its own censuses: criterion 3 reads criterion 2's
    acceptance._census_cache.clear()
    try:
        corpus = counting_corpus()
        acceptance.test_criterion_2_pigeonhole_corpus(corpus)
        acceptance.test_criterion_3_averaging_identity(corpus)
        acceptance.test_criterion_7_composition()
    finally:
        acceptance._census_cache.clear()
