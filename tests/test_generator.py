import dataclasses
import gc
import pickle
import random
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from nwgame import (
    Design,
    HardBit,
    Instance,
    Permutation,
    SearchExhausted,
    ValidationError,
    certify_off_range,
    constant_strategy,
    evaluate_partial,
    find_off_range,
    make_instance,
    omniscient_strategy,
    play,
    preimage_bit,
    restrict,
    round_robin_strategy,
    seeded_random_strategy,
    strict_violations,
)
from nwgame.bits import all_bitstrings, bits_to_int, int_to_bits
from nwgame.crypto import HARD_BIT_KINDS, PERMUTATION_KINDS
from nwgame.game import _column, scan
from nwgame.generator import OFF_RANGE_MODES, evaluate
from nwgame.seeds import derive_seed

from helpers import REFERENCE_SETS, greedy_instance, reference_instance


def bare_reference(c=1):
    return Instance(
        Design(n=4, ell=2, d=1, sets=REFERENCE_SETS),
        Permutation(ell=2, kind="identity"),
        HardBit("last-bit"),
        c=c,
    )


def test_evaluate_frozen_truth_table():
    # with the identity permutation and last-bit predicate, output bit i is
    # the last position of row i: (x2, x3, x3, x2, x3)
    inst = bare_reference()
    for x in all_bitstrings(4):
        expected = x[2] + x[3] + x[3] + x[2] + x[3]
        assert evaluate(inst, x) == expected


def test_range_and_off_range_frozen():
    inst = bare_reference()
    outputs = {evaluate(inst, x) for x in all_bitstrings(4)}
    assert outputs == {"00000", "01101", "10010", "11111"}
    assert find_off_range(inst) == "00001"
    assert certify_off_range(inst, "00001")
    assert not certify_off_range(inst, "00000")


def test_with_off_range_certifies():
    bare = bare_reference()
    inst = make_instance(bare.design, bare.h, bare.hard_bit, bare.c)
    assert inst.b == "00001"
    assert inst.b_certified


def test_seeded_random_off_range_is_deterministic_and_off():
    inst = bare_reference()
    hits = {find_off_range(inst, mode="seeded-random", seed=s) for s in range(5)}
    for b in hits:
        assert certify_off_range(inst, b)
    assert find_off_range(inst, mode="seeded-random", seed=1) == find_off_range(
        inst, mode="seeded-random", seed=1
    )
    with pytest.raises(ValueError):
        find_off_range(inst, mode="coin-flip")


def test_off_range_search_matches_brute_force():
    instances = [
        bare_reference(),
        greedy_instance(6, 2, 1, seed=10, perm="table", perm_seed=7),
        greedy_instance(8, 4, 3, seed=4, perm="feistel", perm_seed=2, hard="parity"),
    ]
    for inst in instances:
        outputs = {evaluate(inst, x) for x in all_bitstrings(inst.n)}
        lex_min = next(y for y in all_bitstrings(inst.m) if y not in outputs)
        assert find_off_range(inst) == lex_min
        for seed in (0, 5, 9):
            rng = random.Random(derive_seed("off-range", inst.m, seed))
            draws = (int_to_bits(rng.randrange(1 << inst.m), inst.m) for _ in range(1000))
            seeded = next(y for y in draws if y not in outputs)
            assert find_off_range(inst, mode="seeded-random", seed=seed) == seeded
    surjective = Instance(
        Design(n=2, ell=2, d=1, sets=((0, 1),)), Permutation(ell=2, kind="identity"), HardBit(), c=1
    )
    with pytest.raises(SearchExhausted):
        find_off_range(surjective)


def test_surjective_generator_has_no_off_range():
    # one row reading both bits of a 2-bit input: outputs cover {0,1}^1? no,
    # m=1 and both output bits appear, so the range is all of {0,1}
    design = Design(n=2, ell=2, d=1, sets=((0, 1),))
    inst = Instance(design, Permutation(ell=2, kind="identity"), HardBit("last-bit"), c=1)
    with pytest.raises(SearchExhausted, match="^generator is surjective; no off-range string exists$"):
        find_off_range(inst)
    with pytest.raises(SearchExhausted, match="^no off-range string found in 1000 seeded draws$"):
        find_off_range(inst, mode="seeded-random", seed=3)
    # a design with no rows maps every input onto "", the only 0-bit string
    empty = Instance(Design(4, 2, 1, ()), Permutation(ell=2, kind="identity"), HardBit("last-bit"), c=1)
    assert {evaluate(empty, x) for x in all_bitstrings(4)} == {""}
    assert certify_off_range(empty, "") is False
    with pytest.raises(SearchExhausted, match="^generator is surjective; no off-range string exists$"):
        find_off_range(empty)
    with pytest.raises(SearchExhausted, match="^no off-range string found in 1000 seeded draws$"):
        find_off_range(empty, mode="seeded-random", seed=3)


def test_explicit_b_validation():
    bare = bare_reference()
    ok = make_instance(bare.design, bare.h, bare.hard_bit, bare.c, b="11110")
    assert ok.b == "11110" and ok.b_certified
    with pytest.raises(ValidationError):
        make_instance(bare.design, bare.h, bare.hard_bit, bare.c, b="01101")  # in range


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    n=st.integers(2, 8),
    perm=st.sampled_from(PERMUTATION_KINDS),
    hard=st.sampled_from(HARD_BIT_KINDS),
    seed=st.integers(0, 1 << 16),
)
def test_make_instance_searches_or_certifies_b(data, n, perm, hard, seed):
    ell = data.draw(st.integers(2 if perm == "feistel" else 1, min(n, 4)))
    if perm == "feistel":
        ell -= ell % 2
    m = data.draw(st.integers(0, 6))
    rng = random.Random(seed)
    sets = tuple(tuple(sorted(rng.sample(range(n), ell))) for _ in range(m))
    parts = (Design(n, ell, ell, sets), Permutation(ell, perm, seed=seed), HardBit(hard), 2)
    bare = Instance(*parts)

    for mode in OFF_RANGE_MODES:
        try:
            b = find_off_range(bare, mode, seed)
        except SearchExhausted:
            with pytest.raises(SearchExhausted):
                make_instance(*parts, b_mode=mode, seed=seed)
        else:
            assert make_instance(*parts, b_mode=mode, seed=seed) == Instance(*parts, b=b, b_certified=True)

    b = int_to_bits(data.draw(st.integers(0, (1 << m) - 1)), m)
    if all(evaluate(bare, x) != b for x in all_bitstrings(n)):
        assert make_instance(*parts, b=b) == Instance(*parts, b=b, b_certified=True)
    else:
        with pytest.raises(ValidationError):
            make_instance(*parts, b=b)
    shorter = (b[1:],) if m else ()  # a 0-bit b has no shorter form
    for wrong in (b + "0", *shorter):
        with pytest.raises(ValueError) as caught:
            make_instance(*parts, b=wrong)
        assert not isinstance(caught.value, ValidationError)


def test_instance_validation():
    design = Design(n=4, ell=2, d=1, sets=REFERENCE_SETS)
    with pytest.raises(ValueError):
        Instance(design, Permutation(ell=3, kind="identity"), HardBit(), c=1)
    with pytest.raises(ValueError):
        Instance(design, Permutation(ell=2, kind="identity"), HardBit(), c=0)
    with pytest.raises(ValueError):
        Instance(design, Permutation(ell=2, kind="identity"), HardBit(), c=1, b="0000")
    shared_too_much = Design(n=4, ell=2, d=0, sets=((0, 2), (0, 3)))
    with pytest.raises(ValidationError):
        Instance(shared_too_much, Permutation(ell=2, kind="identity"), HardBit(), c=1)


def test_enumeration_refuses_n_past_its_cap():
    wide = Instance(Design(n=21, ell=2, d=0, sets=((0, 1),)), Permutation(ell=2, kind="identity"), HardBit(), c=1)
    with pytest.raises(ValueError, match="n <= 20"):
        find_off_range(wide)
    with pytest.raises(ValueError, match="n <= 20"):
        certify_off_range(wide, "1")


def test_strict_violations_reference():
    inst = reference_instance()
    # m = n+1 and ell = round(n^(1/3)) hold; d = 1 misses ceil(log2 5) = 3
    assert strict_violations(inst) == ["d=1, strict regime wants ceil(log2 m)=3"]


def test_strict_violations_all_reported():
    inst = Instance(
        Design(n=8, ell=2, d=1, sets=((0, 1), (2, 3), (4, 5))),
        Permutation(ell=2, kind="identity"),
        HardBit(),
        c=1,
    )
    notes = strict_violations(inst)
    assert len(notes) == 2  # m and d wrong; ell = round(2) is fine
    assert any("m=3" in note for note in notes)


def test_json_round_trip_preserves_everything():
    inst = greedy_instance(6, 2, 1, seed=10, perm="table", perm_seed=7, c=2)
    again = Instance.from_json_dict(inst.to_json_dict())
    assert again.design == inst.design
    assert again.b == inst.b
    assert again.c == inst.c
    assert again.b_certified
    for x in all_bitstrings(6):
        assert evaluate(again, x) == evaluate(inst, x)
    # an evaluated instance holds bound functions; it pickles by its fields
    thawed = pickle.loads(pickle.dumps(inst))
    assert thawed == inst and "_output" not in vars(thawed)
    assert [evaluate(thawed, x) for x in all_bitstrings(6)] == [evaluate(inst, x) for x in all_bitstrings(6)]


def test_evaluate_checks_width():
    with pytest.raises(ValueError):
        evaluate(bare_reference(), "001")
    # width-4 strings that int(x, 2) reads as numbers, and one it refuses
    # with its own message: the check comes before the parse
    for x in ("1_01", "+101", " 101", "0b11", "0121"):
        with pytest.raises(ValueError, match="may contain only '0'/'1'"):
            evaluate(bare_reference(), x)


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(6, 8),
    ell=st.integers(2, 4),
    seed=st.integers(0, 1000),
    perm=st.sampled_from(["identity", "table", "feistel"]),
    hard=st.sampled_from(["last-bit", "parity"]),
)
def test_answer_memo_matches_reference_path(n, ell, seed, perm, hard):
    if perm == "feistel":
        ell -= ell % 2
    inst = greedy_instance(n, ell, ell - 1, seed=seed, perm=perm, perm_seed=seed, hard=hard, c=2)
    h, hb, sets = inst.h, inst.hard_bit, inst.design.sets
    inputs = list(all_bitstrings(n))
    # attaching b replaced the instance, so the search's memo stayed behind
    assert inst._answers == {}
    assert [evaluate(inst, x) for x in inputs] == [string_reference(inst, x) for x in inputs]
    assert 0 < len(inst._answers) <= 1 << ell
    for u, (preimage, bit) in inst._answers.items():
        assert preimage == h.invert(int_to_bits(u, ell)) and bit == str(hb.value(preimage))

    students = (
        constant_strategy(seed % inst.m, queries=2),
        round_robin_strategy(2, start=seed),
        seeded_random_strategy(3, seed=seed),
    )
    for student in students:
        for a in inputs:
            for t in (play(inst, student, a), evaluate_partial(inst, student, a)):
                bits = [hb.value(r) != int(inst.b[q]) for q, r in zip(t.queries, t.replies)]
                assert list(t.replies) == [h.invert(restrict(a, sets[q])) for q in t.queries]
                assert t.success == any(bits) and not any(bits[:-1])
    assert len(inst._answers) <= 1 << ell

    # the memo is not a field: equality and repr ignore it, and a replaced
    # instance starts empty
    assert dataclasses.replace(inst) == inst and "_answers" not in repr(inst)
    other = dataclasses.replace(inst, h=Permutation(ell, "table", seed=seed + 1))
    assert other._answers == {}
    assert [evaluate(other, x) for x in inputs] == [string_reference(other, x) for x in inputs]

    # the student's own inversions bypass the memo: the omniscient student
    # inverts rows in order up to the first disagreeing one, every game
    fresh = dataclasses.replace(inst)
    omniscient = omniscient_strategy()
    views = []

    def spy_move(view, a, replies):
        views.append(view)
        return omniscient.move(view, a, replies)

    spy = dataclasses.replace(omniscient, move=spy_move)
    queried = set()
    for a in inputs:
        t = play(fresh, spy, a)
        out = string_reference(inst, a)
        first = next(i for i in range(inst.m) if out[i] != inst.b[i])
        assert t.success and t.queries == (first,)
        assert views[-1].invert_calls == first + 1
        queried.add(bits_to_int(restrict(a, sets[first])))
    assert set(fresh._answers) == queried


def string_reference(inst: Instance, x: str) -> str:
    """The generator by its definition, one joined string per row."""
    return "".join(str(preimage_bit(inst.h, inst.hard_bit, restrict(x, row))) for row in inst.design.sets)


def assert_replies_match_reference(inst: Instance, students, inputs) -> None:
    sets = inst.design.sets
    for student in students:
        for a in inputs:
            for t in (play(inst, student, a), evaluate_partial(inst, student, a)):
                assert list(t.replies) == [inst.h.invert(restrict(a, sets[q])) for q in t.queries]


# every n up to 24, so inputs of one, two and three 8-bit chunks (and the
# boundaries 7-9 and 15-17) are all met
@pytest.mark.parametrize("n", range(1, 25))
@settings(max_examples=5, deadline=None)
@given(data=st.data(), hard=st.sampled_from(HARD_BIT_KINDS), seed=st.integers(0, 1 << 16))
def test_packed_restrictions_match_string_reference(n, data, hard, seed):
    perm = data.draw(st.sampled_from(PERMUTATION_KINDS if n >= 2 else ("identity", "table")))
    ell = data.draw(st.integers(1, min(n, 8)))
    if perm == "feistel":
        ell = max(2, ell - ell % 2)
    m = data.draw(st.integers(1, 12))
    rng = random.Random(seed)
    sets = tuple(tuple(sorted(rng.sample(range(n), ell))) for _ in range(m))
    # b is not certified here: only the teacher's replies are compared
    inst = Instance(
        Design(n, ell, ell, sets), Permutation(ell, perm, seed=seed), HardBit(hard),
        c=m, b=int_to_bits(rng.randrange(1 << m), m),
    )
    inputs = [int_to_bits(v, n) for v in rng.sample(range(1 << n), min(256, 1 << n))]
    assert [evaluate(inst, x) for x in inputs] == [string_reference(inst, x) for x in inputs]
    assert_replies_match_reference(inst, (round_robin_strategy(m), seeded_random_strategy(3, seed=seed)), inputs)


def test_packed_memo_stays_lazy_for_wide_identity_rows():
    # an identity permutation bounds ell only by n: a memo filled to 2^26
    # entries would not fit, so evaluate must meet one entry per row
    n, ell = 30, 26
    sets = (tuple(range(0, 26)), tuple(range(2, 28)), tuple(range(4, 30)))
    inst = Instance(Design(n, ell, 24, sets), Permutation(ell, "identity"), HardBit("parity"), c=3, b="010")
    rng = random.Random(5)
    x = int_to_bits(rng.getrandbits(n), n)
    assert evaluate(inst, x) == string_reference(inst, x)
    assert len(inst._answers) <= inst.m
    assert_replies_match_reference(inst, (round_robin_strategy(3),), [x, "1" * n])


# every ell from 1 to 12, so rows on both sides of the one-byte slot (8 / 9)
# are met, on inputs of up to 20 bits
@pytest.mark.parametrize("ell", range(1, 13))
@settings(max_examples=8, deadline=None)
@given(data=st.data(), hard=st.sampled_from(HARD_BIT_KINDS), seed=st.integers(0, 1 << 16))
def test_row_slots_match_string_reference_across_the_byte_boundary(ell, data, hard, seed):
    perm = data.draw(st.sampled_from(("table", "identity", "feistel") if ell % 2 == 0 else ("table", "identity")))
    n = data.draw(st.integers(ell, 20))
    m = data.draw(st.integers(1, 12))
    rng = random.Random(seed)
    sets = tuple(tuple(sorted(rng.sample(range(n), ell))) for _ in range(m))
    # b is not certified here: the search and the check are compared below
    inst = Instance(
        Design(n, ell, ell, sets), Permutation(ell, perm, seed=seed), HardBit(hard),
        c=m, b=int_to_bits(rng.randrange(1 << m), m),
    )
    inputs = [int_to_bits(v, n) for v in rng.sample(range(1 << n), min(64, 1 << n))]

    # byte slots fill the whole memo on the first evaluate; wider rows meet
    # one entry per row
    assert evaluate(inst, inputs[0]) == string_reference(inst, inputs[0])
    if ell <= 8:
        assert len(inst._answers) == 1 << ell
    else:
        assert len(inst._answers) <= m

    assert [evaluate(inst, x) for x in inputs] == [string_reference(inst, x) for x in inputs]
    mask, offsets = inst._rows
    for x in inputs:
        packed = inst.restrictions(bits_to_int(x))
        assert [packed >> offset & mask for offset in offsets] == [bits_to_int(restrict(x, row)) for row in sets]
        assert packed >> (offsets.step * m) == 0
    assert_replies_match_reference(inst, (round_robin_strategy(m), seeded_random_strategy(3, seed=seed)), inputs)

    if n <= 10:
        outputs = {string_reference(inst, x) for x in all_bitstrings(n)}
        outside = [y for y in all_bitstrings(m) if y not in outputs]
        if outside:
            assert find_off_range(inst) == outside[0]
        else:
            with pytest.raises(SearchExhausted):
                find_off_range(inst)
        for y in {*outside[:2], *sorted(outputs)[:2]}:
            assert certify_off_range(inst, y) == (y not in outputs)


# n = 1..17 on byte slots: one partial chunk, n not a multiple of 8, and
# n = 16 (two full chunks); wide slots (ell > 8) on one and two chunks
@pytest.mark.parametrize("n, ell", [(n, min(n, 3)) for n in range(1, 18)] + [(9, 9), (12, 9), (16, 10)])
def test_packed_input_column_is_each_inputs_restrictions(n, ell):
    rng = random.Random(n * 100 + ell)
    sets = tuple(tuple(sorted(rng.sample(range(n), ell))) for _ in range(5))
    inst = Instance(Design(n, ell, ell, sets), Permutation(ell, "identity"), HardBit("last-bit"), c=1)
    inputs, packed = inst._inputs
    assert len(inputs) == len(packed) == 1 << n
    assert list(packed) == list(map(inst.restrictions, range(1 << n)))


@settings(max_examples=60, deadline=None)
@given(data=st.data(), wide=st.booleans(), hard=st.sampled_from(HARD_BIT_KINDS), seed=st.integers(0, 1 << 16))
def test_hard_bit_columns_match_evaluate(data, wide, hard, seed):
    # a one-row plan student succeeds exactly where its row's hard bit differs
    # from b's: ell on both sides of the one-byte slot (8 / 9), every
    # permutation kind (feistel needs an even ell) and hard bit, on every
    # input of up to 12 bits
    n = data.draw(st.integers(9, 12) if wide else st.integers(2, 12))
    ell = data.draw(st.integers(9, n) if wide else st.integers(1, min(n, 8)))
    perm = data.draw(st.sampled_from(PERMUTATION_KINDS if ell % 2 == 0 else ("table", "identity")))
    m = data.draw(st.integers(1, 6))
    rng = random.Random(seed)
    sets = tuple(tuple(sorted(rng.sample(range(n), ell))) for _ in range(m))
    b = int_to_bits(rng.randrange(1 << m), m)
    inst = Instance(Design(n, ell, ell, sets), Permutation(ell, perm, seed=seed), HardBit(hard), c=1, b=b)
    rows = data.draw(st.lists(st.integers(0, m - 1), min_size=1, max_size=m, unique=True))
    outputs = [evaluate(inst, x) for x in all_bitstrings(n)]

    def expected(row, values):
        return [(row,) if outputs[x][row] != b[row] else None for x in values]

    for row in rows:
        assert scan(inst, constant_strategy(row)) == expected(row, range(1 << n))
        assert inst._plan_column == [((row,), expected(row, range(1 << n)))]  # the slot holds the last plan scanned

    # a sample's bits, off its own packs, whatever their order, kept nowhere
    values = [rng.randrange(1 << n) for _ in range(20)]
    inputs, packs = [int_to_bits(x, n) for x in values], [inst.restrictions(x) for x in values]
    for row in rows:
        assert _column(inst, constant_strategy(row), False)(inputs, packs) == expected(row, values)
    assert inst._plan_column == [((rows[-1],), expected(rows[-1], range(1 << n)))]

    # the slot is not a field: equality, repr and pickles ignore it, and a
    # replaced instance starts empty
    assert dataclasses.replace(inst) == inst and "_plan_column" not in repr(inst)
    assert "_plan_column" not in vars(pickle.loads(pickle.dumps(inst)))
    assert "_plan_column" not in vars(dataclasses.replace(inst))


def test_hard_bit_columns_refuse_past_the_scan_cap():
    inst = Instance(Design(15, 4, 4, ((0, 1, 2, 3), (11, 12, 13, 14))), Permutation(4, "table"), HardBit(), c=1, b="00")
    with pytest.raises(ValueError, match="n=15 > 14"):
        scan(inst, constant_strategy(1))
    value = int("1" * 11 + "0101", 2)  # row 1 reads bits 11..14
    a = int_to_bits(value, 15)
    for bit in "01":  # a sample of one input reads its own bit, against either bit of b
        sampled = dataclasses.replace(inst, b="0" + bit)
        column = _column(sampled, constant_strategy(1), False)([a], [sampled.restrictions(value)])
        assert column == [(1,) if evaluate(sampled, a)[1] != bit else None]
        assert "_inputs" not in vars(sampled) and vars(sampled).get("_plan_column", [(None, None)]) == [(None, None)]
    assert "_inputs" not in vars(inst) and vars(inst).get("_plan_column", [(None, None)]) == [(None, None)]


def test_an_instance_with_cached_columns_is_freed_without_the_cycle_collector():
    # the kept plan column's slot holds nothing that refers back to its
    # instance, so a dropped instance (with its input table) is freed at
    # once, not at the next cycle collection
    inst = greedy_instance(6, 2, 1, seed=0, c=2)
    assert scan(inst, round_robin_strategy(2)) and inst._plan_column[0][1]
    dropped = weakref.ref(inst)
    gc.disable()
    try:
        del inst
        assert dropped() is None
    finally:
        gc.enable()
