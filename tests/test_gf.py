import hashlib

import pytest
from hypothesis import given, strategies as st

import nwgame.gf
from nwgame.gf import Field, prime_power_split

# hand-checked against polynomial arithmetic mod t^2 + t + 1 over GF(2)
GF4_MUL = [
    [0, 0, 0, 0],
    [0, 1, 2, 3],
    [0, 2, 3, 1],
    [0, 3, 1, 2],
]


def test_prime_power_split():
    assert prime_power_split(2) == (2, 1)
    assert prime_power_split(9) == (3, 2)
    assert prime_power_split(16) == (2, 4)
    assert prime_power_split(13) == (13, 1)
    assert prime_power_split(6) is None
    assert prime_power_split(12) is None
    assert prime_power_split(1) is None
    assert prime_power_split(17) == (17, 1)
    assert prime_power_split(289) == (17, 2)
    assert prime_power_split(323) is None
    assert prime_power_split(1024) == (2, 10)


def test_rejects_non_prime_powers_and_large_q():
    for bad in (0, 1, 6, 10, 12, 14, 15):
        with pytest.raises(ValueError):
            Field(bad)
    with pytest.raises(ValueError):
        Field(32)


def test_large_q_is_refused_before_it_is_split(monkeypatch):
    # trial division costs O(sqrt(q)): a q past MAX_Q never reaches it
    calls = []
    monkeypatch.setattr(nwgame.gf, "prime_power_split", lambda q: calls.append(q))
    for q in (2**61 - 1, 10**18):
        with pytest.raises(ValueError, match="prime power <= 16"):
            Field(q)
    assert calls == []


def test_gf4_multiplication_table_frozen():
    f = Field(4)
    for a in range(4):
        for b in range(4):
            assert f.mul(a, b) == GF4_MUL[a][b]


def test_prime_field_is_mod_arithmetic():
    f = Field(5)
    assert f.add(3, 4) == 2
    assert f.mul(3, 4) == 2


FIELD_SIZES = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16)


@pytest.mark.parametrize("q", FIELD_SIZES)
def test_field_axioms_exhaustive(q):
    f = Field(q)
    elements = range(q)
    for a in elements:
        assert f.add(a, 0) == a
        assert f.mul(a, 1) == a
        assert f.mul(a, 0) == 0
    # every nonzero element has a multiplicative inverse
    for a in range(1, q):
        assert any(f.mul(a, b) == 1 for b in range(1, q))
    # additive inverses exist
    for a in elements:
        assert any(f.add(a, b) == 0 for b in elements)


@given(st.sampled_from(FIELD_SIZES), st.data())
def test_field_axioms_random_triples(q, data):
    f = Field(q)
    a = data.draw(st.integers(0, q - 1))
    b = data.draw(st.integers(0, q - 1))
    c = data.draw(st.integers(0, q - 1))
    assert f.add(a, b) == f.add(b, a)
    assert f.mul(a, b) == f.mul(b, a)
    assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
    assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
    assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))


# sha256 over the add table then the mul table, row a = 0 first, one byte per
# entry; recorded before the tables were built from digit vectors.  An
# irreducible swapped for another one of the same degree changes them.
FROZEN_TABLES = {
    2: "090b5ea336d2a3fae01b94507c3609d9103ac09195f599993d6271b148bf725e",
    3: "f9287b0c3bb4fee914a64727425f94be4156a17447bd12ca0d098fd1f414e913",
    4: "fc7e342da9b4f0b5a3b5a2595814de4c49e8e733d07379a4ebeabf57542ae10a",
    5: "52ba69e53329b3b2ad7e29dd8179e2fd2fca0281328fc40180696cbc7bdd84e0",
    7: "1b4435bbb6ea8cb7eec2865d6328e4544fdd7de743f768a3d7d5376521cecd51",
    8: "0e386441c46b1123bb738282bc6a7de2ac49bcd55bb355af0341e320d7fd0da5",
    9: "db74138954ff101e0257f1efcee10a77dad78d02fab275ac89da02606bed1cbe",
    11: "d3056bc16c3096b387c5f4b4bd5e171c744b05832be57d31b4d53326c87459ca",
    13: "f3034a90fb9bb8a7546579ff1dd543ec5fab2dbf1cd3aa301edf4363997be589",
    16: "70c9fb2d0f13a41df60c792f17feaf96dbb0c177d0e91e7c5f395251466903ef",
}


def test_every_field_table_is_frozen():
    assert sorted(FROZEN_TABLES) == list(FIELD_SIZES)
    for q in FIELD_SIZES:
        f, elements = Field(q), range(q)
        tables = bytes(op(a, b) for op in (f.add, f.mul) for a in elements for b in elements)
        assert hashlib.sha256(tables).hexdigest() == FROZEN_TABLES[q], q


def test_eval_poly_horner():
    f = Field(3)
    # 1 + 2x + x^2 at x=2: 1 + 4 + 4 = 9 = 0 mod 3
    assert f.eval_poly((1, 2, 1), 2) == 0
    assert f.eval_poly((), 2) == 0
    assert f.eval_poly((2,), 1) == 2


@pytest.mark.parametrize("q", FIELD_SIZES)
def test_operations_refuse_elements_outside_the_field(q):
    f = Field(q)
    for bad in (-1, -q, q, q + 1):
        for op in (f.add, f.mul):
            with pytest.raises(ValueError, match=f"outside GF\\({q}\\)"):
                op(bad, 0)
            with pytest.raises(ValueError, match=f"outside GF\\({q}\\)"):
                op(0, bad)
