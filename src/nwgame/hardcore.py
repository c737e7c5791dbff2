"""Stage-composed students and the inputs where they all stay defined.

A family supplies one strategy per stage, stage k allowed up to k queries.
The composite student runs the stages in order against a single shared
reply stream, so its query budget telescopes to k(k+1)/2.  The common
definedness set shrinks as stages are added; its size is compared against
the failure ceiling at budget k^2, which dominates k(k+1)/2.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .bits import bits_to_hex
from .game import GameView, Output, ProtocolViolation, StudentStrategy, scan
from .generator import Instance
from .analysis import failure_bound


@dataclass(frozen=True)
class StudentFamily:
    """Stages indexed from 1; stage k may use at most k queries and the
    budgets must be nondecreasing."""

    stages: tuple[StudentStrategy, ...]

    def __post_init__(self) -> None:
        previous = 0
        for k, stage in enumerate(self.stages, start=1):
            if stage.max_queries > k:
                raise ValueError(
                    f"stage {k} ({stage.name}) declares {stage.max_queries} queries, cap is {k}"
                )
            if stage.max_queries < previous:
                raise ValueError(
                    f"stage {k} ({stage.name}) shrinks the budget: "
                    f"{stage.max_queries} after {previous}"
                )
            previous = stage.max_queries

    def __len__(self) -> int:
        return len(self.stages)


def composed_budget(k: int) -> int:
    return k * (k + 1) // 2


def compose(family: StudentFamily, k: int) -> StudentStrategy:
    """Run stages 1..k in sequence over one shared reply stream.

    Each stage is replayed from the start of the stream: replies consumed
    by earlier stages are fed back as that stage's own, so every stage sees
    exactly the teacher traffic its queries would have produced.  The
    composite stops with the tuple of stage outputs.
    """
    if not 1 <= k <= len(family.stages):
        raise ValueError(f"k must be in 1..{len(family.stages)}, got {k}")
    stages = family.stages[:k]

    def move(view: GameView, a: str, replies: tuple[str, ...]):
        cursor = 0
        outputs = []
        for stage in stages:
            consumed = 0
            while True:
                stage_move = stage.move(view, a, replies[cursor : cursor + consumed])
                if isinstance(stage_move, Output) or stage_move is None:
                    value = stage_move.value if isinstance(stage_move, Output) else None
                    outputs.append(value)
                    cursor += consumed
                    break
                if consumed >= stage.max_queries:
                    # the stage overruns its own budget
                    return ProtocolViolation()
                if cursor + consumed < len(replies):
                    consumed += 1
                    continue
                return stage_move
        return Output(tuple(outputs))

    name = "+".join(stage.name for stage in stages)
    return StudentStrategy(
        name=f"composed[{name}]",
        max_queries=composed_budget(k),
        move=move,
        may_invert=any(stage.may_invert for stage in stages),
    )


@dataclass(frozen=True)
class HardcoreReport:
    """The common definedness set after k stages, with the ceiling it is
    measured against: failure_bound at budget k^2."""

    k: int
    n: int
    size: int
    bound: Fraction
    members: tuple[str, ...]

    MEMBER_EMIT_CAP = 4096

    @property
    def meets_bound(self) -> bool:
        return Fraction(self.size) >= self.bound

    def to_json_dict(self) -> dict:
        data = {
            "k": self.k,
            "n": self.n,
            "size": self.size,
            "bound": {"num": self.bound.numerator, "den": self.bound.denominator},
            "meets_bound": self.meets_bound,
        }
        if self.size <= self.MEMBER_EMIT_CAP:
            data["members_hex"] = [bits_to_hex(a) for a in self.members]
        return data


def definedness_set(inst: Instance, strategy: StudentStrategy, jobs: int = 1) -> set[str]:
    """All inputs whose witness-mode run is defined (n <= 14)."""
    return set(scan(inst, strategy, lambda t: t.a if t.defined else None, witness=True, jobs=jobs))


def extract_hardcore(inst: Instance, family: StudentFamily, k: int, jobs: int = 1) -> HardcoreReport:
    """Definedness set of the k-stage composite, sized against the ceiling
    at budget k^2."""
    composite = compose(family, k)
    members = definedness_set(inst, composite, jobs=jobs)
    bound = failure_bound(inst.ell, inst.m, k * k)
    return HardcoreReport(
        k=k, n=inst.n, size=len(members), bound=bound, members=tuple(sorted(members))
    )


def sweep(inst: Instance, family: StudentFamily, k_max: int, jobs: int = 1) -> list[HardcoreReport]:
    if not 1 <= k_max <= len(family.stages):
        raise ValueError(f"k_max must be in 1..{len(family.stages)}, got {k_max}")
    return [extract_hardcore(inst, family, k, jobs=jobs) for k in range(1, k_max + 1)]
