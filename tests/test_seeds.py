from hypothesis import given, settings, strategies as st

from nwgame import seeded_random_strategy
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
