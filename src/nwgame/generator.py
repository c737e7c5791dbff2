"""Instances: a design plus a permutation stretch n bits to m bits.

Output bit i of the generator on input x is the hard bit of the unique
permutation preimage of x restricted to design row i.  An instance also
carries a target string b certified to lie outside the generator's range,
and the per-game query budget c.

Both the generator and the game's teacher read an input's m row
restrictions packed into one int (`Instance.restrictions`), one byte per
row when ell <= 8, and each restriction's preimage and hard bit from one
memo dict (`Instance._answers`, read directly by teacher and reduction).  For
ell <= 8 the first `evaluate` fills all 2^ell entries into a byte table and
translates each output from the packed bytes; wider rows stay one entry per
restriction met.  The game loop plays inputs packed this way, and every
exhaustive scan reads them from one table per instance of every input's
string and packing (`Instance._inputs`), the first scan of each drawn plan
keeping its whole trace column (`Instance._plan_columns`).
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass
from functools import cached_property, partial
from itertools import repeat
from typing import Callable

from .bits import all_bitstrings, bits_to_hex, bits_to_int, check_bits, hex_to_bits, int_to_bits
from .crypto import HardBit, Permutation
from .design import Design, require_valid, restrict
from .errors import ABSENT, REQUIRED, SearchExhausted, ValidationError, json_object, json_value
from .seeds import derive_seed

ENUMERATION_MAX_N = 20
EXHAUSTIVE_MAX_N = 14
OFF_RANGE_MODES = ("lex-min", "seeded-random")
# "strict_warnings" is written by `nwgame instance make` and ignored on read
INSTANCE_FIELDS = {
    "design": (object, REQUIRED), "permutation": (object, REQUIRED), "c": (int, REQUIRED), "hard_bit": (str, "last-bit"),
    "b_hex": (object, None), "b_certified": (bool, False), "strict_warnings": (list, ABSENT),
}


class _Preimages(dict):
    """The memo: u, an ell-bit restriction's value -> (h^-1(u), its hard bit as '0'/'1'), filled only by h.invert."""

    def __init__(self, h: Permutation, hard_bit: HardBit) -> None:
        super().__init__()
        self.h, self.hard_bit = h, hard_bit

    def __missing__(self, u: int) -> tuple[str, str]:
        preimage = self.h.invert(int_to_bits(u, self.h.ell))
        hit = self[u] = (preimage, str(self.hard_bit.value(preimage)))
        return hit


@dataclass(frozen=True)
class Instance:
    design: Design
    h: Permutation
    hard_bit: HardBit
    c: int
    b: str | None = None
    b_certified: bool = False

    def __post_init__(self) -> None:
        require_valid(self.design)
        if self.design.ell != self.h.ell:
            raise ValueError(
                f"design ell={self.design.ell} does not match permutation ell={self.h.ell}"
            )
        if self.c < 1:
            raise ValueError(f"query budget c must be >= 1, got {self.c}")
        if self.b is not None:
            check_bits(self.b, self.design.m, "off-range string b")
        elif self.b_certified:
            raise ValueError("b_certified claims a certificate, but the instance has no b")

    @property
    def n(self) -> int:
        return self.design.n

    @property
    def m(self) -> int:
        return self.design.m

    @property
    def ell(self) -> int:
        return self.design.ell

    @cached_property
    def _answers(self) -> _Preimages:
        # not a field: stays out of __eq__, repr, pickles (`__reduce__`) and the
        # JSON form, and dataclasses.replace starts the new instance empty
        return _Preimages(self.h, self.hard_bit)

    @cached_property
    def _rows(self) -> tuple[int, range]:
        # not a field: the row mask and the bit offset of each row's slot in
        # `restrictions`.  A slot is one byte for ell <= 8, else ell bits
        slot = max(self.ell, 8)
        return (1 << self.ell) - 1, range(0, slot * self.m, slot)

    @cached_property
    def _chunks(self) -> list[list[int]]:
        # not a field: projection is linear over bits, so table k maps each value
        # of input bits 8k..8k+7 (from the least significant) to the OR of its
        # unit vectors' restrictions, read over every row from m-1 down to 0 and
        # each padded with zeros to its slot
        n, ell, pad = self.n, self.ell, "0" * (self._rows[1].step - self.ell)
        positions = tuple(p for row in self.design.sets[::-1] for p in row)
        tables = [[0] for _ in range(0, n, 8)]
        for j in range(n):
            bits = restrict(int_to_bits(1 << j, n), positions)
            packed = bits_to_int("".join([pad + bits[i : i + ell] for i in range(0, len(bits), ell)]))
            tables[j // 8] += [t | packed for t in tables[j // 8]]
        return tables

    @cached_property
    def restrictions(self) -> Callable[[int], int]:
        """The m row restrictions of the input of value x, one slot per row: row
        i is byte i when ell <= 8, else bits ell*i up; bound once per instance."""
        tables = self._chunks

        def restrictions(x: int) -> int:
            packed = 0
            for table in tables:
                packed |= table[x & 255]
                x >>= 8
            return packed

        return restrictions

    @cached_property
    def _output(self) -> Callable[[int], str]:
        # not a field: `evaluate` on an input's value.  Byte slots (ell <= 8) go
        # through the translate table `_hard_bits` (bytes past 2^ell never occur
        # in a slot); wider rows fill one memo entry per restriction met
        pack, answers, (mask, shifts) = self.restrictions, self._answers, self._rows
        if shifts.step == 8:
            m, table = self.m, self._hard_bits
            return lambda x: pack(x).to_bytes(m, "little").translate(table).decode()

        def wide(x: int) -> str:
            packed = pack(x)
            return "".join([answers[packed >> shift & mask][1] for shift in shifts])

        return wide

    _plan_columns = cached_property(lambda self: {})  # not a field, like `_answers`: a drawn plan -> its scans' trace column

    @cached_property
    def _hard_bits(self) -> bytes:
        # not a field: each restriction's hard bit as b"0"/b"1", padded to byte slots' translate table
        return "".join([self._answers[u][1] for u in range(1 << self.ell)]).ljust(256).encode()

    @cached_property
    def _inputs(self) -> tuple[tuple[str, ...], tuple[int, ...]]:
        # not a field: every input's n-bit string and its `restrictions` (one entry of each
        # chunk table ORed, the top chunk outermost), in input order, for the exhaustive scans
        packed = [0]
        for table in reversed(self._chunks):
            packed = [high | low for high in packed for low in table]
        return tuple(all_bitstrings(self.n)), tuple(packed)

    def __reduce__(self) -> tuple:
        return Instance, (self.design, self.h, self.hard_bit, self.c, self.b, self.b_certified)

    def to_json_dict(self) -> dict:
        return {
            "design": self.design.to_json_dict(),
            "permutation": self.h.to_json_dict(),
            "hard_bit": self.hard_bit.kind,
            "c": self.c,
            "b_hex": None if self.b is None else bits_to_hex(self.b),
            "b_certified": self.b_certified,
        }

    @staticmethod
    def from_json_dict(data: dict) -> "Instance":
        data = json_object(data, INSTANCE_FIELDS, "instance")
        design, b_hex = Design.from_json_dict(data["design"]), data["b_hex"]
        return Instance(
            design=design,
            h=Permutation.from_json_dict(data["permutation"]),
            hard_bit=HardBit(data["hard_bit"]),
            c=data["c"],
            b=None if b_hex is None else hex_to_bits(json_value(b_hex, str, "instance 'b_hex'"), design.m),
            b_certified=data["b_certified"],
        )


def evaluate(inst: Instance, x: str) -> str:
    """The m-bit generator output on an n-bit input: checked, parsed, then
    read from the instance's bound output function (`Instance._output`)."""
    check_bits(x, inst.n, "generator input")
    return inst._output(int(x or "0", 2))


def find_off_range(inst: Instance, mode: str = "lex-min", seed: int = 0) -> str:
    """Search for an m-bit string outside the generator's range, certified
    by full enumeration of all 2^n inputs (hence n <= 20, so the range set
    holds at most 2^20 members).

    mode 'lex-min' returns the numerically smallest such string; mode
    'seeded-random' draws candidates from a seeded stream until one misses.
    """
    if inst.n > ENUMERATION_MAX_N:
        raise ValueError(f"off-range certification needs n <= {ENUMERATION_MAX_N}, got {inst.n}")
    if mode not in OFF_RANGE_MODES:
        raise ValueError(f"unknown off-range search mode {mode!r}")
    outputs = map(partial(evaluate, inst), all_bitstrings(inst.n))
    # a zero-row generator's only output is "", of value 0
    in_range = set(map(int, outputs, repeat(2))) if inst.m else {0}

    space = 1 << inst.m
    if mode == "lex-min":
        candidates, exhausted = range(space), "generator is surjective; no off-range string exists"
    else:
        rng = random.Random(derive_seed("off-range", inst.m, seed))
        candidates, exhausted = (rng.randrange(space) for _ in range(1000)), "no off-range string found in 1000 seeded draws"
    for y in candidates:
        if y not in in_range:
            return int_to_bits(y, inst.m)
    raise SearchExhausted(exhausted)


def certify_off_range(inst: Instance, b: str) -> bool:
    """Independent recheck: compare b against every generator output
    directly, without the range set used by the search."""
    check_bits(b, inst.m, "off-range string b")
    if inst.n > ENUMERATION_MAX_N:
        raise ValueError(f"certification needs n <= {ENUMERATION_MAX_N}, got {inst.n}")
    return b not in map(partial(evaluate, inst), all_bitstrings(inst.n))


def strict_violations(inst: Instance) -> list[str]:
    """Deviations from the strict parameter regime: m = n+1, ell the rounded
    cube root of n, d = ceil(log2 m).  Informational unless strict mode."""
    out = []
    if inst.m != inst.n + 1:
        out.append(f"m={inst.m}, strict regime wants n+1={inst.n + 1}")
    want_ell = round(inst.n ** (1 / 3))
    if inst.ell != want_ell:
        out.append(f"ell={inst.ell}, strict regime wants round(n^(1/3))={want_ell}")
    want_d = (inst.m - 1).bit_length() if inst.m > 1 else 0
    if inst.design.d != want_d:
        out.append(f"d={inst.design.d}, strict regime wants ceil(log2 m)={want_d}")
    return out


def make_instance(
    design: Design, h: Permutation, hard_bit: HardBit, c: int, b: str | None = None, b_mode: str = "lex-min", seed: int = 0
) -> Instance:
    """The certified instance: the bare instance checks its parts, then b is
    searched for (`find_off_range` by b_mode and seed) or, when given,
    certified off range by enumeration (n <= 20)."""
    inst = Instance(design, h, hard_bit, c)
    if b is None:
        b = find_off_range(inst, mode=b_mode, seed=seed)
    elif not certify_off_range(inst, b):
        raise ValidationError(f"b={b} is in the generator's range")
    return dataclasses.replace(inst, b=b, b_certified=True)
