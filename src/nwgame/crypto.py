"""Toy invertible permutations on ell-bit strings, plus hard bits.

None of these permutations are one-way.  They stand in for one so the
surrounding machinery can be exercised and audited at desk scale, where
exhaustive enumeration is the point rather than a weakness.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .bits import all_bitstrings, bits_to_int, check_bits, int_to_bits, parity
from .errors import REQUIRED, json_object
from .seeds import derive_seed

PERMUTATION_KINDS = ("identity", "table", "feistel")
HARD_BIT_KINDS = ("last-bit", "parity")

TABLE_MAX_ELL = 20
DEFAULT_ROUNDS = 4
# Cap on a feistel's rounds * 2^(ell/2) round-table entries (4 rounds: ell <= 28)
FEISTEL_MAX_ENTRIES = 1 << 16
PERMUTATION_FIELDS = {
    "ell": (int, REQUIRED), "kind": (str, REQUIRED), "seed": (int, 0), "rounds": (int, DEFAULT_ROUNDS),
}


@dataclass(frozen=True)
class Permutation:
    """A bijection on {0,1}^ell with explicit forward and inverse maps.

    Kinds: 'identity'; 'table', a seeded shuffle of all 2^ell points
    (ell <= 20); 'feistel', a balanced network with seeded round tables
    (even ell, default 4 rounds, rounds * 2^(ell/2) <= FEISTEL_MAX_ENTRIES).
    """

    ell: int
    kind: str
    seed: int = 0
    rounds: int = DEFAULT_ROUNDS

    def __post_init__(self) -> None:
        if self.ell < 1:
            raise ValueError(f"ell must be positive, got {self.ell}")
        if self.kind not in PERMUTATION_KINDS:
            raise ValueError(f"unknown permutation kind {self.kind!r}")
        if self.kind == "table":
            if self.ell > TABLE_MAX_ELL:
                raise ValueError(f"table permutations need ell <= {TABLE_MAX_ELL}")
            forward = list(range(1 << self.ell))
            random.Random(derive_seed("table-perm", self.ell, self.seed)).shuffle(forward)
            inverse = [0] * len(forward)
            for v, u in enumerate(forward):
                inverse[u] = v
            object.__setattr__(self, "_forward", forward)
            object.__setattr__(self, "_inverse", inverse)
        elif self.kind == "feistel":
            if self.ell % 2:
                raise ValueError("feistel permutations need even ell")
            if self.rounds < 1:
                raise ValueError(f"rounds must be positive, got {self.rounds}")
            half = self.ell // 2
            if self.rounds > FEISTEL_MAX_ENTRIES >> half:
                raise ValueError(f"{self.rounds} rounds * 2^{half} round-table entries exceed {FEISTEL_MAX_ENTRIES}")
            tables = []
            for r in range(self.rounds):
                rng = random.Random(derive_seed("feistel-round", self.ell, self.seed, r))
                tables.append(tuple(rng.getrandbits(half) for _ in range(1 << half)))
            object.__setattr__(self, "_round_tables", tuple(tables))

    def apply(self, v: str) -> str:
        return self._map(check_bits(v, self.ell, "permutation input"), 1)

    def invert(self, u: str) -> str:
        return self._map(check_bits(u, self.ell, "permutation output"), -1)

    def _map(self, x: str, step: int) -> str:
        """apply (step 1) or invert (step -1).  A feistel network inverts
        itself: the same rounds in reverse order on swapped halves."""
        if self.kind == "identity":
            return x
        if self.kind == "table":
            return int_to_bits((self._forward if step == 1 else self._inverse)[bits_to_int(x)], self.ell)
        half = self.ell // 2
        left, right = (bits_to_int(x[:half]), bits_to_int(x[half:]))[::step]
        for table in self._round_tables[::step]:
            left, right = right, left ^ table[right]
        return "".join(int_to_bits(part, half) for part in (left, right)[::step])

    def to_json_dict(self) -> dict:
        data: dict = {"ell": self.ell, "kind": self.kind}
        if self.kind != "identity":
            data["seed"] = self.seed
        if self.kind == "feistel":
            data["rounds"] = self.rounds
        return data

    @staticmethod
    def from_json_dict(data: dict) -> "Permutation":
        return Permutation(**json_object(data, PERMUTATION_FIELDS, "permutation"))


def check_bijection(h: Permutation) -> bool:
    """Exhaustively verify invert(apply(v)) == v, which makes apply injective
    on {0,1}^ell and so onto.  Costs 2^ell evaluations; callers gate on ell."""
    return all(h.invert(h.apply(v)) == v for v in all_bitstrings(h.ell))


@dataclass(frozen=True)
class HardBit:
    """The predicate whose value on permutation preimages is at stake."""

    kind: str = "last-bit"

    def __post_init__(self) -> None:
        if self.kind not in HARD_BIT_KINDS:
            raise ValueError(f"unknown hard bit kind {self.kind!r}")

    def value(self, v: str) -> int:
        if self.kind == "last-bit":
            return int(v[-1])
        return parity(v)


def preimage_bit(h: Permutation, hard_bit: HardBit, u: str) -> int:
    """Hard bit of the unique preimage of u under h."""
    return hard_bit.value(h.invert(u))
