"""Arithmetic in small finite fields GF(q), q a prime power up to 16.

Elements are integers 0..q-1, q = p^k, whose base-p digits are the
coefficients of a polynomial over GF(p).  The sum and product tables are
built once from these digit vectors and a fixed irreducible polynomial of
degree k, so the encoding never varies between runs or machines; for prime
q no product needs reducing (arithmetic mod q).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

MAX_Q = 16

# Little-endian coefficient tuples; index i is the coefficient of t^i.
# The leading 1 (degree k) is included.
_IRREDUCIBLE = {
    4: (1, 1, 1),         # t^2 + t + 1 over GF(2)
    8: (1, 1, 0, 1),      # t^3 + t + 1 over GF(2)
    9: (1, 0, 1),         # t^2 + 1 over GF(3)
    16: (1, 1, 0, 0, 1),  # t^4 + t + 1 over GF(2)
}


def prime_power_split(q: int) -> tuple[int, int] | None:
    """Return (p, k) with q = p**k, or None when q is not a prime power."""
    if q < 2:
        return None
    # the least divisor above 1 is prime; trial division costs O(sqrt(q))
    p = next((f for f in range(2, math.isqrt(q) + 1) if q % f == 0), q)
    k = 0
    while q % p == 0:
        q, k = q // p, k + 1
    return (p, k) if q == 1 else None


@dataclass(frozen=True)
class Field:
    """GF(q) with the fixed 0..q-1 integer encoding."""

    q: int

    def __post_init__(self) -> None:
        split = prime_power_split(self.q) if self.q <= MAX_Q else None
        if split is None:
            raise ValueError(f"q must be a prime power <= {MAX_Q}, got {self.q}")
        p, k = split
        # each element's k base-p digits, t^0 first, and the element of each digit vector
        digits = [tuple(a // p**i % p for i in range(k)) for a in range(self.q)]
        element = {v: a for a, v in enumerate(digits)}
        sums = tuple(tuple(element[tuple((x + y) % p for x, y in zip(u, v))] for v in digits) for u in digits)
        products = {}
        for a, u in enumerate(digits):
            for b, v in enumerate(digits):
                prod = [0] * (2 * k - 1)
                for i, x in enumerate(u):
                    for j, y in enumerate(v):
                        prod[i + j] += x * y
                # from the top degree down, t^i = t^(i-k) * (t^k - irr); irr is monic of degree k
                for i in range(2 * k - 2, k - 1, -1):
                    c = prod[i] % p
                    prod[i - k : i] = [y - c * r for y, r in zip(prod[i - k : i], _IRREDUCIBLE[self.q])]
                products[a, b] = element[tuple(y % p for y in prod[:k])]
        object.__setattr__(self, "_sums", sums)
        object.__setattr__(self, "_products", tuple(tuple(products[a, b] for b in range(self.q)) for a in range(self.q)))

    def _check(self, a: int) -> int:
        if not 0 <= a < self.q:
            raise ValueError(f"element {a} outside GF({self.q})")
        return a

    def add(self, a: int, b: int) -> int:
        return self._sums[self._check(a)][self._check(b)]

    def mul(self, a: int, b: int) -> int:
        return self._products[self._check(a)][self._check(b)]

    def eval_poly(self, coeffs: list[int] | tuple[int, ...], x: int) -> int:
        """Evaluate sum coeffs[i] * x^i by Horner's rule."""
        acc = 0
        for c in reversed(coeffs):
            acc = self.add(self.mul(acc, x), c)
        return acc
