import itertools

import pytest
from hypothesis import given, settings, strategies as st

from nwgame import Design, SearchExhausted, build_polynomial_design, extend_greedy, verify_design
from nwgame.design import POLYNOMIAL_MAX_ROWS, embed, require_valid, restrict
from nwgame.errors import ValidationError
from nwgame.gf import MAX_Q, Field, prime_power_split

from helpers import REFERENCE_SETS


def test_polynomial_design_q2_frozen():
    des = build_polynomial_design(2, 1)
    assert (des.n, des.m, des.ell, des.d) == (4, 4, 2, 1)
    assert des.sets == ((0, 2), (1, 3), (0, 3), (1, 2))


def test_polynomial_design_q3_shape():
    des = build_polynomial_design(3, 1)
    assert (des.n, des.m, des.ell, des.d) == (9, 9, 3, 1)
    assert verify_design(des).ok


def test_polynomial_design_rejects_bad_degree():
    with pytest.raises(ValueError):
        build_polynomial_design(3, 0)
    with pytest.raises(ValueError):
        build_polynomial_design(3, 3)
    with pytest.raises(ValueError):
        build_polynomial_design(6, 1)  # not a prime power


def test_polynomial_overlap_is_tight():
    # some pair of rows must achieve the full allowance d
    for q, degree in ((2, 1), (3, 1), (3, 2), (4, 2), (5, 2)):
        des = build_polynomial_design(q, degree)
        best = max(
            len(set(a) & set(b)) for a, b in itertools.combinations(des.sets, 2)
        )
        assert best == degree, (q, degree, best)


def test_verify_design_flags_each_violation_kind():
    report = verify_design(Design(n=4, ell=2, d=1, sets=((0, 2), (0, 5), (2, 0), (0,))))
    kinds = {v.kind for v in report.violations}
    assert not report.ok
    assert {"range", "order", "size"} <= kinds

    report = verify_design(Design(n=6, ell=3, d=1, sets=((0, 1, 2), (0, 1, 3))))
    assert not report.ok
    assert [v.kind for v in report.violations] == ["overlap"]
    assert report.violations[0].i == 0 and report.violations[0].j == 1


def test_require_valid_raises():
    with pytest.raises(ValidationError):
        require_valid(Design(n=4, ell=2, d=0, sets=((0, 2), (0, 3))))


def test_extend_greedy_reference_case_frozen():
    # growing the q=2 polynomial family by one row, seed 0: the sampler's
    # first admissible draw is (0, 1); the invariants are what matters
    base = build_polynomial_design(2, 1)
    grown = extend_greedy(base, 5, seed=0)
    assert grown.sets[:4] == base.sets
    assert grown.sets[4] == (0, 1)
    assert grown.m == 5
    assert verify_design(grown).ok


def test_extend_greedy_is_deterministic_and_seed_sensitive():
    base = build_polynomial_design(2, 1)
    assert extend_greedy(base, 5, seed=0).sets == extend_greedy(base, 5, seed=0).sets
    outcomes = {extend_greedy(base, 5, seed=s).sets[4] for s in range(6)}
    assert len(outcomes) > 1


def test_extend_greedy_from_empty_base():
    grown = extend_greedy(Design(n=8, ell=3, d=2, sets=()), 9, seed=1)
    assert grown.m == 9
    assert verify_design(grown).ok


def test_extend_greedy_exhausts_when_infeasible():
    # only one 2-subset of a 2-element ground set exists at d=0
    base = Design(n=2, ell=2, d=0, sets=((0, 1),))
    with pytest.raises(SearchExhausted, match="after 20000 attempts"):
        extend_greedy(base, 2, seed=0)


def test_extend_greedy_noop_and_bad_target():
    base = build_polynomial_design(2, 1)
    assert extend_greedy(base, 4, seed=0) is base
    with pytest.raises(ValueError):
        extend_greedy(base, 3, seed=0)
    with pytest.raises(ValueError, match="ell=3 exceeds n=2"):
        extend_greedy(Design(n=2, ell=3, d=1, sets=()), 1, seed=0)


def test_reference_design_is_valid():
    assert verify_design(Design(n=4, ell=2, d=1, sets=REFERENCE_SETS)).ok


def test_json_round_trip():
    des = build_polynomial_design(3, 1)
    again = Design.from_json_dict(des.to_json_dict())
    assert again == des
    with pytest.raises(ValueError):
        Design.from_json_dict({"n": 4, "m": 3, "ell": 2, "d": 1, "sets": [[0, 1]]})


def test_polynomial_design_refuses_too_many_rows():
    with pytest.raises(ValueError):
        build_polynomial_design(16, 15)  # 16^16 rows, refused before the loop
    with pytest.raises(ValueError):
        build_polynomial_design(13, 2)  # 2197 rows
    assert build_polynomial_design(11, 2).m == 1331 <= POLYNOMIAL_MAX_ROWS


def test_polynomial_design_rows_follow_the_base_q_digits():
    # every (q, degree) the row cap admits: row `index` is the polynomial
    # whose x^i coefficient is the i-th least significant base-q digit; each
    # degree-1 design, over GF(8), GF(9) and GF(16) too, has q^2 rows and verifies
    built = 0
    for q in range(2, MAX_Q + 1):
        for degree in range(1, q):
            if prime_power_split(q) is None or q ** (degree + 1) > POLYNOMIAL_MAX_ROWS:
                continue
            field, design = Field(q), build_polynomial_design(q, degree)
            rows = design.sets
            assert len(rows) == q ** (degree + 1)
            if degree == 1:
                assert verify_design(design).ok and design.m == q * q
            for index, row in enumerate(rows):
                coeffs = [index // q**i % q for i in range(degree + 1)]
                assert row == tuple(sorted(q * x + field.eval_poly(coeffs, x) for x in range(q)))
            built += 1
    assert built == 19


def test_restrict_and_embed_small():
    assert restrict("0110", (0, 2)) == "01"
    assert restrict("0110", (1, 3)) == "10"
    assert embed("01", "10", (0, 2), 4) == "0110"
    with pytest.raises(ValueError):
        embed("01", "1", (0, 2), 4)


@settings(max_examples=60)
@given(st.data())
def test_embed_restrict_inverse_property(data):
    n = data.draw(st.integers(2, 10))
    ell = data.draw(st.integers(1, n))
    positions = tuple(sorted(data.draw(
        st.sets(st.integers(0, n - 1), min_size=ell, max_size=ell)
    )))
    inner = data.draw(st.text(alphabet="01", min_size=ell, max_size=ell))
    outer = data.draw(st.text(alphabet="01", min_size=n - ell, max_size=n - ell))
    x = embed(inner, outer, positions, n)
    assert len(x) == n
    assert restrict(x, positions) == inner
    others = tuple(p for p in range(n) if p not in positions)
    assert restrict(x, others) == outer
