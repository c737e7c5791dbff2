import pytest
from hypothesis import given, settings, strategies as st

from nwgame import HardBit, Permutation, check_bijection, preimage_bit
from nwgame.bits import all_bitstrings
from nwgame.crypto import FEISTEL_MAX_ENTRIES


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
