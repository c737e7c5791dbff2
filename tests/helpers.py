"""Shared builders for the test suite: reference instances, corpora of
(instance, strategy) pairs, scripted near-perfect students, and a spy
permutation for attributing oracle calls."""

from __future__ import annotations

import random

from nwgame import (
    Design,
    HardBit,
    Instance,
    Permutation,
    StudentStrategy,
    extend_greedy,
    make_instance,
    omniscient_strategy,
    constant_strategy,
    round_robin_strategy,
    seeded_random_strategy,
    table_strategy,
)
from nwgame.bits import all_bitstrings
from nwgame.generator import evaluate

REFERENCE_SETS = ((0, 2), (1, 3), (0, 3), (1, 2), (2, 3))


def reference_instance(c: int = 1) -> Instance:
    """The hand-checked n=4 instance used for every frozen oracle value."""
    design = Design(n=4, ell=2, d=1, sets=REFERENCE_SETS)
    return make_instance(design, Permutation(ell=2, kind="identity"), HardBit("last-bit"), c=c)


def greedy_instance(
    n: int,
    ell: int,
    d: int,
    seed: int,
    perm: str = "table",
    perm_seed: int = 0,
    hard: str = "last-bit",
    c: int = 1,
    m: int | None = None,
) -> Instance:
    """An instance on a greedily grown design with m = n + 1 rows."""
    design = extend_greedy(Design(n=n, ell=ell, d=d, sets=()), m or (n + 1), seed)
    return make_instance(design, Permutation(ell=ell, kind=perm, seed=perm_seed), HardBit(hard), c=c)


def two_byte_slot_instance() -> Instance:
    """An n = 10 instance whose rows of ell = 9 bits take two bytes each in
    an input's packed restrictions; its b = "010" is not certified."""
    design = extend_greedy(Design(n=10, ell=9, d=8, sets=()), 3, 1)
    return Instance(design, Permutation(ell=9, kind="table"), HardBit("last-bit"), 2, "010")


def near_omniscient(inst: Instance, seed: int, waste_prob: float = 0.5) -> StudentStrategy:
    """Scripted student that always succeeds: for each input it queries a
    disagreeing row, sometimes after one wasted agreeing query.  Needs
    c >= 2 on the instance.  Its failure set is empty by construction."""
    rng = random.Random(seed)
    moves: dict[str, tuple[int, ...]] = {}
    for a in all_bitstrings(inst.n):
        out = evaluate(inst, a)
        disagree = [i for i in range(inst.m) if out[i] != inst.b[i]]
        agree = [i for i in range(inst.m) if out[i] == inst.b[i]]
        seq: list[int] = []
        if agree and rng.random() < waste_prob:
            seq.append(rng.choice(agree))
        seq.append(rng.choice(disagree))
        moves[a] = tuple(seq)
    return table_strategy(moves, max_queries=2, name=f"near-omniscient-s{seed}")


def bad_index_strategy() -> StudentStrategy:
    """Always queries a row that does not exist."""
    return StudentStrategy("bad-index", max_queries=1, move=lambda view, a, replies: view.m + 3)


class InvertSpy:
    """Duck-typed permutation wrapper counting oracle traffic."""

    def __init__(self, inner: Permutation) -> None:
        self.inner = inner
        self.ell = inner.ell
        self.kind = inner.kind
        self.apply_calls = 0
        self.invert_calls = 0

    def apply(self, v: str) -> str:
        self.apply_calls += 1
        return self.inner.apply(v)

    def invert(self, u: str) -> str:
        self.invert_calls += 1
        return self.inner.invert(u)


def counting_corpus() -> list[tuple[str, Instance, StudentStrategy]]:
    """At least fifty (instance, strategy) pairs spanning design sources,
    permutation kinds, hard bits, budgets, and strategy families."""
    instances: list[tuple[str, Instance]] = []

    def poly_instance(q, degree, extend_to, seed, perm, perm_seed, hard, c):
        from nwgame import build_polynomial_design

        design = build_polynomial_design(q, degree)
        if extend_to is not None:
            design = extend_greedy(design, extend_to, seed)
        return make_instance(design, Permutation(ell=design.ell, kind=perm, seed=perm_seed), HardBit(hard), c=c)

    instances.append(("ref-c1", reference_instance(1)))
    instances.append(("ref-c2", reference_instance(2)))
    instances.append(("poly2-table", poly_instance(2, 1, 5, 1, "table", 11, "parity", 1)))
    instances.append(("poly2-feistel", poly_instance(2, 1, 5, 2, "feistel", 3, "last-bit", 2)))
    instances.append(("poly3-id", poly_instance(3, 1, None, 0, "identity", 0, "last-bit", 1)))
    instances.append(("poly3-table", poly_instance(3, 1, None, 0, "table", 5, "parity", 2)))
    instances.append(("greedy6a", greedy_instance(6, 2, 1, seed=10, perm="table", perm_seed=7, c=1)))
    instances.append(("greedy6b", greedy_instance(6, 2, 1, seed=20, perm="feistel", perm_seed=9, hard="parity", c=2)))
    instances.append(("greedy8", greedy_instance(8, 2, 1, seed=30, perm="table", perm_seed=13, c=2)))
    instances.append(("greedy9", greedy_instance(9, 3, 2, seed=60, perm="identity", c=2)))
    instances.append(("greedy10", greedy_instance(10, 3, 2, seed=40, perm="table", perm_seed=17, hard="parity", c=1)))
    instances.append(("greedy12", greedy_instance(12, 3, 2, seed=50, perm="table", perm_seed=19, c=1)))

    pairs: list[tuple[str, Instance, StudentStrategy]] = []
    for label, inst in instances:
        pairs.append((label, inst, constant_strategy(0)))
        pairs.append((label, inst, round_robin_strategy(inst.c)))
        pairs.append((label, inst, seeded_random_strategy(inst.c, seed=3)))
        pairs.append((label, inst, omniscient_strategy()))
        if inst.c >= 2 and inst.n <= 10:
            pairs.append((label, inst, near_omniscient(inst, seed=5)))
    return pairs
