"""Set systems with bounded pairwise intersections, and bit projections.

A design routes input bits: row i of the system reads an n-bit input only
at the positions in sets[i].  All rows have size ell and any two distinct
rows share at most d positions.  Construction is the polynomial-graph
family over GF(q) plus a seeded greedy extender for row counts the
algebraic family cannot hit.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import asdict, dataclass

from .errors import ABSENT, REQUIRED, SearchExhausted, ValidationError, json_object, json_value
from .gf import Field

# The row cap of build_polynomial_design.  The largest design it admits,
# q = 11 with degree 2 (1,331 rows), verifies in under a second.
POLYNOMIAL_MAX_ROWS = 2048
GREEDY_ATTEMPTS = 20000  # random draws extend_greedy makes before it gives up
# A design file's fields; "m", when given, must be the number of sets
DESIGN_FIELDS = {
    "n": (int, REQUIRED), "ell": (int, REQUIRED), "d": (int, REQUIRED), "sets": (list, REQUIRED), "m": (int, ABSENT),
}


@dataclass(frozen=True)
class Design:
    n: int
    ell: int
    d: int
    sets: tuple[tuple[int, ...], ...]

    @property
    def m(self) -> int:
        return len(self.sets)

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "m": self.m,
            "ell": self.ell,
            "d": self.d,
            "sets": [list(s) for s in self.sets],
        }

    @staticmethod
    def from_json_dict(data: dict) -> "Design":
        data = json_object(data, DESIGN_FIELDS, "design")
        sets = tuple(
            tuple(json_value(p, int, "design position") for p in json_value(row, list, "design row"))
            for row in data["sets"]
        )
        des = Design(data["n"], data["ell"], data["d"], sets)
        declared_m = data.get("m", des.m)
        if declared_m != des.m:
            raise ValueError(f"declared m={declared_m} but {des.m} sets given")
        return des


@dataclass(frozen=True)
class Violation:
    """One failed invariant; i (and j for overlaps) are row indices."""

    kind: str  # 'size' | 'range' | 'order' | 'overlap'
    i: int
    j: int | None = None
    detail: str = ""

    def __str__(self) -> str:
        where = f"rows {self.i},{self.j}" if self.j is not None else f"row {self.i}"
        return f"{self.kind} at {where}: {self.detail}"


@dataclass(frozen=True)
class DesignReport:
    ok: bool
    violations: tuple[Violation, ...]

    def to_json_dict(self) -> dict:
        return {"ok": self.ok, "violations": [asdict(v) for v in self.violations]}


def verify_design(des: Design) -> DesignReport:
    """Exhaustively check sizes, position ranges, ordering, and all pairwise
    intersections.  Total: returns a report instead of raising."""
    found: list[Violation] = []
    for i, row in enumerate(des.sets):
        if len(row) != des.ell:
            found.append(Violation("size", i, detail=f"|set|={len(row)}, want {des.ell}"))
        if any(not 0 <= p < des.n for p in row):
            found.append(Violation("range", i, detail=f"positions {row} not all in [0,{des.n})"))
        if any(a >= b for a, b in zip(row, row[1:])):
            found.append(Violation("order", i, detail=f"positions {row} not strictly ascending"))
    for i in range(des.m):
        a = set(des.sets[i])
        for j in range(i + 1, des.m):
            overlap = len(a.intersection(des.sets[j]))
            if overlap > des.d:
                found.append(Violation("overlap", i, j, f"|intersection|={overlap} > d={des.d}"))
    return DesignReport(ok=not found, violations=tuple(found))


def require_valid(des: Design) -> Design:
    report = verify_design(des)
    if not report.ok:
        raise ValidationError("; ".join(str(v) for v in report.violations))
    return des


def build_polynomial_design(q: int, degree: int) -> Design:
    """Rows are graphs of polynomials of the given degree over GF(q): the
    row for polynomial p is {q*x + p(x) : x in GF(q)}, one row per
    coefficient vector (q^(degree+1) rows, n = q^2, ell = q, d = degree)."""
    field = Field(q)
    if not 1 <= degree < q:
        raise ValueError(f"degree must satisfy 1 <= degree < q, got {degree}")
    if q ** (degree + 1) > POLYNOMIAL_MAX_ROWS:
        raise ValueError(f"q^(degree+1) = {q ** (degree + 1)} rows exceeds {POLYNOMIAL_MAX_ROWS}")
    # row index = the coefficient vector in base q, x^0's coefficient least significant
    vectors = (digits[::-1] for digits in itertools.product(range(q), repeat=degree + 1))
    rows = tuple(tuple(sorted(q * x + field.eval_poly(coeffs, x) for x in range(q))) for coeffs in vectors)
    return Design(n=q * q, ell=q, d=degree, sets=rows)


def extend_greedy(base: Design, target_m: int, seed: int) -> Design:
    """Append random admissible ell-subsets until the design has target_m
    rows.  Deterministic for a fixed seed.  Raises SearchExhausted when
    GREEDY_ATTEMPTS draws run out before the design is full."""
    if target_m < base.m:
        raise ValueError(f"target_m={target_m} below current m={base.m}")
    if base.ell > base.n:
        raise ValueError(f"ell={base.ell} exceeds n={base.n}")
    if target_m == base.m:
        return base
    rng = random.Random(seed)
    rows = list(base.sets)
    for _ in range(GREEDY_ATTEMPTS):
        cand = tuple(sorted(rng.sample(range(base.n), base.ell)))
        members = set(cand)
        if all(len(members.intersection(row)) <= base.d for row in rows):
            rows.append(cand)
            if len(rows) == target_m:
                return Design(base.n, base.ell, base.d, tuple(rows))
    raise SearchExhausted(
        f"no admissible {base.ell}-subset of [{base.n}] after "
        f"{GREEDY_ATTEMPTS} attempts (have {len(rows)} rows, want {target_m})"
    )


def restrict(x: str, positions: tuple[int, ...]) -> str:
    """Project x onto the given positions: bit t of the result is x[positions[t]]."""
    return "".join([x[p] for p in positions])


def embed(inner: str, outer: str, positions: tuple[int, ...], n: int) -> str:
    """Assemble an n-bit string whose restriction to `positions` is `inner`
    and whose remaining bits, in ascending position order, are `outer`."""
    if len(inner) != len(positions) or len(outer) != n - len(positions):
        raise ValueError("inner/outer lengths do not partition n positions")
    inside, rest = dict(zip(positions, inner)), iter(outer)
    return "".join([inside[p] if p in inside else next(rest) for p in range(n)])
