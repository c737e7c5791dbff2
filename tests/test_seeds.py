import pytest
from hypothesis import given, settings, strategies as st

from nwgame import game, seeded_random_strategy
from nwgame.game import GameView
from nwgame.seeds import derive_seed, seed_stream

from helpers import greedy_instance, reference_instance

INSTANCES = [reference_instance(2), greedy_instance(6, 3, 2, seed=1, c=2), greedy_instance(9, 4, 2, seed=3, c=2)]
PARTS = st.lists(st.one_of(st.text(max_size=12), st.integers(-(2**70), 2**70), st.binary(max_size=12)), max_size=4)


@settings(max_examples=300)
@given(prefix=PARTS, rest=PARTS)
def test_seed_stream_equals_derive_seed(prefix, rest):
    stream = seed_stream(*prefix)
    assert stream(*rest) == derive_seed(*prefix, *rest)
    # the hashed prefix is copied, never consumed: a second call is the same
    assert stream(*rest) == derive_seed(*prefix, *rest)
    assert seed_stream()(*prefix, *rest) == derive_seed(*prefix, *rest)


@settings(max_examples=100, deadline=None)
@given(
    which=st.integers(0, len(INSTANCES) - 1),
    max_queries=st.integers(1, 4),
    seed=st.integers(-5, 2**40),
    value=st.integers(0, 2**9 - 1),
    step=st.integers(0, 3),
)
def test_seeded_random_rows_are_the_derive_seed_definition(which, max_queries, seed, value, step):
    inst = INSTANCES[which]
    a = format(value % (1 << inst.n), f"0{inst.n}b")
    replies = ("0" * inst.ell,) * step
    move = seeded_random_strategy(max_queries, seed).move(GameView(inst, False), a, replies)
    if step < max_queries:
        assert move == derive_seed("srand", seed, a, step) % inst.m
    else:
        assert move.value is None


def test_seeded_random_rows_survive_a_shared_strategy_and_eviction():
    # one strategy object on instances with m = 5 and m = 10, before and
    # after more than 2^16 distinct (input, step) keys pass through its cache
    narrow, wide = INSTANCES[0], INSTANCES[2]
    assert (narrow.m, wide.m) == (5, 10)
    student = seeded_random_strategy(2, seed=11)
    views = [(GameView(inst, False), inst) for inst in (narrow, wide)]
    keys = [(format(value, "04b"), step) for value in range(16) for step in (0, 1)]

    def rows_match():
        for view, inst in views:
            for a, step in keys:
                replies = ("0" * inst.ell,) * step
                assert student.move(view, a, replies) == derive_seed("srand", 11, a, step) % inst.m

    rows_match()
    flood = GameView(wide, False)
    for value in range(1 << 16 | 1000):
        student.move(flood, format(value, "017b"), ())
    rows_match()


@settings(max_examples=200, deadline=None)
@given(
    max_queries=st.integers(1, 4),
    seed=st.integers(-5, 2**40),
    values=st.lists(st.integers(0, 15), min_size=1, max_size=3, unique=True),
    asks=st.lists(st.tuples(st.integers(0, 2), st.integers(0, 1), st.integers(0, 4)), max_size=24),
)
def test_seeded_random_memo_hashes_each_inputs_steps_once_in_step_order(max_queries, seed, values, asks):
    # random ask orders over up to 3 inputs and two instances, m = 5 and m = 10
    hashed = []

    def counting_stream(*prefix):
        draw = seed_stream(*prefix)

        def row_seed(*rest):
            hashed.append(rest)
            return draw(*rest)

        return row_seed

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(game, "seed_stream", counting_stream)
        student = seeded_random_strategy(max_queries, seed)
    views = [(GameView(inst, False), inst) for inst in (INSTANCES[0], INSTANCES[2])]
    inputs = [format(value, "04b") for value in values]
    furthest = {a: -1 for a in inputs}
    for which, side, step in asks:
        (view, inst), a = views[side], inputs[which % len(inputs)]
        move = student.move(view, a, ("0" * inst.ell,) * step)
        if step < max_queries:
            assert move == derive_seed("srand", seed, a, step) % inst.m
            furthest[a] = max(furthest[a], step)
        else:
            assert move.value is None
    for a in inputs:
        assert [step for asked, step in hashed if asked == a] == list(range(furthest[a] + 1))
    assert len(hashed) == sum(k + 1 for k in furthest.values())
