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
