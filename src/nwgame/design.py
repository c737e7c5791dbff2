"""Set systems with bounded pairwise intersections, and bit projections.

A design routes input bits: row i of the system reads an n-bit input only
at the positions in sets[i].  All rows have size ell and any two distinct
rows share at most d positions.  Construction is the polynomial-graph
family over GF(q) plus a seeded greedy extender for row counts the
algebraic family cannot hit.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .errors import SearchExhausted, ValidationError, json_field, json_value
from .gf import Field

# The row cap of build_polynomial_design.  The largest design it admits,
# q = 11 with degree 2 (1,331 rows), verifies in under a second.
POLYNOMIAL_MAX_ROWS = 2048


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
        data = json_value(data, dict, "design")
        n, ell, d = (json_field(data, key, int, where="design") for key in ("n", "ell", "d"))
        sets = tuple(
            tuple(json_value(p, int, "design position") for p in json_value(row, list, "design row"))
            for row in json_field(data, "sets", list, where="design")
        )
        des = Design(n, ell, d, sets)
        declared_m = json_field(data, "m", int, des.m, "design")
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
        return {
            "ok": self.ok,
            "violations": [
                {"kind": v.kind, "i": v.i, "j": v.j, "detail": v.detail}
                for v in self.violations
            ],
        }


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
    rows = []
    for index in range(q ** (degree + 1)):
        coeffs = []
        rest = index
        # coefficient of x^i is the i-th least significant base-q digit
        for _ in range(degree + 1):
            coeffs.append(rest % q)
            rest //= q
        rows.append(tuple(sorted(q * x + field.eval_poly(coeffs, x) for x in range(q))))
    return Design(n=q * q, ell=q, d=degree, sets=tuple(rows))


def _overlap(a: tuple[int, ...], b: tuple[int, ...]) -> int:
    return len(set(a).intersection(b))


def extend_greedy(
    base: Design,
    target_m: int,
    seed: int,
    attempt_budget: int = 20000,
) -> Design:
    """Append random admissible ell-subsets until the design has target_m
    rows.  Deterministic for a fixed seed.  Raises SearchExhausted when the
    attempt budget runs out before an admissible subset appears."""
    if target_m < base.m:
        raise ValueError(f"target_m={target_m} below current m={base.m}")
    if base.ell > base.n:
        raise ValueError(f"ell={base.ell} exceeds n={base.n}")
    if target_m == base.m:
        return base
    rng = random.Random(seed)
    rows = list(base.sets)
    attempts = 0
    while len(rows) < target_m:
        added = False
        while attempts < attempt_budget:
            attempts += 1
            cand = tuple(sorted(rng.sample(range(base.n), base.ell)))
            if all(_overlap(cand, row) <= base.d for row in rows):
                rows.append(cand)
                added = True
                break
        if not added:
            raise SearchExhausted(
                f"no admissible {base.ell}-subset of [{base.n}] after "
                f"{attempt_budget} attempts (have {len(rows)} rows, want {target_m})"
            )
    return Design(base.n, base.ell, base.d, tuple(rows))


def restrict(x: str, positions: tuple[int, ...]) -> str:
    """Project x onto the given positions: bit t of the result is x[positions[t]]."""
    return "".join([x[p] for p in positions])


def embed(inner: str, outer: str, positions: tuple[int, ...], n: int) -> str:
    """Assemble an n-bit string whose restriction to `positions` is `inner`
    and whose remaining bits, in ascending position order, are `outer`."""
    if len(inner) != len(positions) or len(outer) != n - len(positions):
        raise ValueError("inner/outer lengths do not partition n positions")
    inside = dict(zip(positions, inner))
    out = []
    cursor = 0
    for p in range(n):
        if p in inside:
            out.append(inside[p])
        else:
            out.append(outer[cursor])
            cursor += 1
    return "".join(out)
