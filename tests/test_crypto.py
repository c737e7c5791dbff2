import pytest
from hypothesis import given, settings, strategies as st

from nwgame import HardBit, Permutation, check_bijection, preimage_bit
from nwgame.bits import all_bitstrings
from nwgame.crypto import FEISTEL_MAX_ENTRIES, PERMUTATION_KINDS


@pytest.mark.parametrize(
    "kind,ell,kwargs",
    [
        ("identity", 3, {}),
        ("table", 2, {"seed": 0}),
        ("table", 5, {"seed": 9}),
        ("feistel", 2, {"seed": 1}),
        ("feistel", 6, {"seed": 4}),
        ("feistel", 8, {"seed": 4, "rounds": 2}),
    ],
)
def test_bijectivity_exhaustive(kind, ell, kwargs):
    assert check_bijection(Permutation(ell=ell, kind=kind, **kwargs))


def test_check_bijection_catches_a_wrong_inverse():
    h = Permutation(ell=3, kind="table", seed=5)
    inverse = list(h._inverse)
    inverse[0], inverse[1] = inverse[1], inverse[0]
    object.__setattr__(h, "_inverse", inverse)
    assert not check_bijection(h)


@settings(max_examples=80, deadline=None)
@given(data=st.data(), kind=st.sampled_from(PERMUTATION_KINDS), seed=st.integers(0, 1 << 16),
       forge=st.sampled_from(["", "_forward", "_inverse"]))
def test_check_bijection_is_the_definition(data, kind, seed, forge):
    # the definition: the 2^ell forward images are exactly {0,1}^ell, and
    # invert undoes apply.  A table forged at `_forward` maps two points to
    # one image, so it is not onto; one forged at `_inverse` swaps two
    # entries, so invert does not undo apply
    ell = data.draw(st.sampled_from(range(2, 11, 2)) if kind == "feistel" else st.integers(1, 10))
    h = Permutation(ell=ell, kind=kind, seed=seed)
    forge = forge if kind == "table" else ""
    if forge:
        i, j = data.draw(st.lists(st.integers(0, (1 << ell) - 1), min_size=2, max_size=2, unique=True))
        entries = list(getattr(h, forge))
        if forge == "_forward":
            entries[i] = entries[j]
        else:
            entries[i], entries[j] = entries[j], entries[i]
        object.__setattr__(h, forge, entries)
    points = list(all_bitstrings(ell))
    onto = sorted(map(h.apply, points)) == points
    assert check_bijection(h) == (onto and all(h.invert(h.apply(v)) == v for v in points))
    assert check_bijection(h) == (not forge)


def test_invert_is_left_and_right_inverse():
    h = Permutation(ell=4, kind="feistel", seed=7)
    for v in all_bitstrings(4):
        assert h.invert(h.apply(v)) == v
        assert h.apply(h.invert(v)) == v


def test_table_is_seed_deterministic():
    a = Permutation(ell=3, kind="table", seed=5)
    b = Permutation(ell=3, kind="table", seed=5)
    c = Permutation(ell=3, kind="table", seed=6)
    images_a = [a.apply(v) for v in all_bitstrings(3)]
    assert images_a == [b.apply(v) for v in all_bitstrings(3)]
    assert images_a != [c.apply(v) for v in all_bitstrings(3)]


def test_kind_validation():
    with pytest.raises(ValueError):
        Permutation(ell=3, kind="feistel")  # odd ell
    with pytest.raises(ValueError):
        Permutation(ell=21, kind="table")
    with pytest.raises(ValueError):
        Permutation(ell=0, kind="identity")
    with pytest.raises(ValueError):
        Permutation(ell=4, kind="rot13")
    with pytest.raises(ValueError):
        Permutation(ell=4, kind="feistel", rounds=0)


def test_feistel_round_tables_are_capped():
    # the default 4 rounds reach the cap at ell = 28 and pass it at 30
    assert Permutation(ell=28, kind="feistel").rounds * 2**14 == FEISTEL_MAX_ENTRIES
    for ell, rounds in ((30, 4), (2, FEISTEL_MAX_ENTRIES // 2 + 1), (64, 1), (10**9, 1)):
        with pytest.raises(ValueError, match="round-table entries exceed"):
            Permutation(ell=ell, kind="feistel", rounds=rounds)


def test_apply_checks_width():
    h = Permutation(ell=4, kind="identity")
    with pytest.raises(ValueError):
        h.apply("011")
    with pytest.raises(ValueError):
        h.invert("01102")


def test_json_round_trip():
    for h in (
        Permutation(ell=3, kind="identity"),
        Permutation(ell=3, kind="table", seed=2),
        Permutation(ell=4, kind="feistel", seed=2, rounds=3),
    ):
        again = Permutation.from_json_dict(h.to_json_dict())
        assert all(again.apply(v) == h.apply(v) for v in all_bitstrings(h.ell))


def test_hard_bits():
    last = HardBit("last-bit")
    par = HardBit("parity")
    assert last.value("0110") == 0
    assert last.value("0111") == 1
    assert par.value("0110") == 0
    assert par.value("1110") == 1
    with pytest.raises(ValueError):
        HardBit("first-bit")


def test_preimage_bit_identity_and_table():
    ident = Permutation(ell=3, kind="identity")
    last = HardBit("last-bit")
    assert preimage_bit(ident, last, "010") == 0
    assert preimage_bit(ident, last, "011") == 1
    h = Permutation(ell=3, kind="table", seed=1)
    for u in all_bitstrings(3):
        assert preimage_bit(h, last, u) == int(h.invert(u)[-1])


@settings(max_examples=40)
@given(st.integers(1, 4), st.integers(0, 50), st.data())
def test_feistel_round_trip_property(rounds, seed, data):
    ell = data.draw(st.sampled_from([2, 4, 6]))
    h = Permutation(ell=ell, kind="feistel", seed=seed, rounds=rounds)
    v = data.draw(st.integers(0, (1 << ell) - 1))
    bits = format(v, f"0{ell}b")
    assert h.invert(h.apply(bits)) == bits
