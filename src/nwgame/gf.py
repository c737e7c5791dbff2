"""Arithmetic in small finite fields GF(q), q a prime power up to 16.

Elements are integers 0..q-1, q = p^k, whose base-p digits are the
coefficients of a polynomial over GF(p).  Products are reduced by a fixed
irreducible polynomial of degree k, so the encoding never varies between
runs or machines; for prime q no product needs reducing (arithmetic mod q).
"""

from __future__ import annotations

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

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13)


def prime_power_split(q: int) -> tuple[int, int] | None:
    """Return (p, k) with q = p**k, or None when q is not a prime power."""
    if q < 2:
        return None
    for p in _SMALL_PRIMES:
        if q % p == 0:
            k = 0
            value = 1
            while value < q:
                value *= p
                k += 1
            return (p, k) if value == q else None
    # q <= MAX_Q has a factor among the small primes unless q is prime itself
    return (q, 1)


@dataclass(frozen=True)
class Field:
    """GF(q) with the fixed 0..q-1 integer encoding."""

    q: int

    def __post_init__(self) -> None:
        split = prime_power_split(self.q)
        if split is None or self.q > MAX_Q:
            raise ValueError(f"q must be a prime power <= {MAX_Q}, got {self.q}")
        p, k = split
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "k", k)
        # q x q sum and product tables from the digit path (q <= 16)
        elements = range(self.q)
        object.__setattr__(self, "_sums", tuple(tuple(self._digit_add(a, b) for b in elements) for a in elements))
        object.__setattr__(self, "_products", tuple(tuple(self._digit_mul(a, b) for b in elements) for a in elements))

    def _digits(self, a: int) -> list[int]:
        out = []
        for _ in range(self.k):
            out.append(a % self.p)
            a //= self.p
        return out

    def _undigits(self, digits: list[int]) -> int:
        value = 0
        for digit in reversed(digits):
            value = value * self.p + digit
        return value

    def _check(self, a: int) -> int:
        if not 0 <= a < self.q:
            raise ValueError(f"element {a} outside GF({self.q})")
        return a

    def add(self, a: int, b: int) -> int:
        return self._sums[self._check(a)][self._check(b)]

    def mul(self, a: int, b: int) -> int:
        return self._products[self._check(a)][self._check(b)]

    def _digit_add(self, a: int, b: int) -> int:
        da, db = self._digits(a), self._digits(b)
        return self._undigits([(x + y) % self.p for x, y in zip(da, db)])

    def _digit_mul(self, a: int, b: int) -> int:
        da, db = self._digits(a), self._digits(b)
        prod = [0] * (2 * self.k - 1)
        for i, x in enumerate(da):
            if x:
                for j, y in enumerate(db):
                    prod[i + j] = (prod[i + j] + x * y) % self.p
        return self._undigits(self._reduce(prod))

    def _reduce(self, coeffs: list[int]) -> list[int]:
        for i in range(len(coeffs) - 1, self.k - 1, -1):
            c, irr = coeffs[i], _IRREDUCIBLE[self.q]
            if c:
                coeffs[i] = 0
                # t^i = t^(i-k) * (t^k mod irr); irr is monic of degree k
                for j in range(self.k):
                    coeffs[i - self.k + j] = (coeffs[i - self.k + j] - c * irr[j]) % self.p
        return coeffs[: self.k]

    def eval_poly(self, coeffs: list[int] | tuple[int, ...], x: int) -> int:
        """Evaluate sum coeffs[i] * x^i by Horner's rule."""
        acc = 0
        for c in reversed(coeffs):
            acc = self.add(self.mul(acc, x), c)
        return acc
