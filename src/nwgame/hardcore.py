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
from itertools import compress, repeat
from operator import not_

from .game import GameView, Output, ProtocolViolation, StudentStrategy, scan
from .generator import Instance
from .analysis import _fraction_json, failure_bound


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


def stage_count(family: StudentFamily, k: int, name: str = "k") -> int:
    """k when the family has stages 1..k, else a ValueError naming k as `name`."""
    if not 1 <= k <= len(family.stages):
        raise ValueError(f"{name} must be in 1..{len(family.stages)}, got {k}")
    return k


def composed_budget(k: int) -> int:
    return k * (k + 1) // 2


def compose(family: StudentFamily, k: int, started: dict[str, int] | None = None) -> StudentStrategy:
    """Run stages 1..k in sequence over one shared reply stream.

    Each stage sees the replies its own queries produced and is asked once
    per step: the composite keeps the progress of its last game and resumes
    it when the same view and input bring that stream and one more reply.
    Any other call recomputes from stage 1, so the move is a pure function
    of (view, a, replies).  It stops with the stage outputs, and records in
    `started` (if given) the furthest stage past 1 begun on each input.
    A stage may call invert only under its own may_invert flag, whatever view
    drives the composite: each unflagged stage is handed `view.without_invert`.
    """
    stages = family.stages[:stage_count(family, k)]
    table = tuple((stage.move, stage.max_queries, stage.may_invert) for stage in stages)
    violation = ProtocolViolation()
    # (view, a, replies, index, own, outputs): the stage, its own replies and
    # the finished stages' outputs; a game is saved when it has consumed every
    # reply it saw.  One tuple, read once per move and replaced whole, so no
    # move ever sees the fields of two different games
    progress: tuple = (None, None, (), 0, (), ())

    def move(view: GameView, a: str, replies: tuple[str, ...]):
        nonlocal progress
        last_view, last_a, seen, index, own, outputs = progress
        without = view.without_invert
        used = len(replies)
        if last_view is view and last_a == a and used and replies[:-1] == seen:
            # the reply to the query the last call returned
            own += replies[-1:]
        else:
            index, own, used, outputs = 0, (), 0, ()
        while index < k:
            stage_move, limit, own_view = table[index]
            row = stage_move(view if own_view else without, a, own)
            if row is None or isinstance(row, Output):
                outputs += (None if row is None else row.value,)
                index, own = index + 1, ()
                if started is not None and index < k and started.get(a, 1) <= index:
                    started[a] = index + 1
            elif len(own) >= limit:
                # the stage overruns its own budget
                return violation
            elif used < len(replies):
                own, used = own + (replies[used],), used + 1
            else:
                # the next call's reply answers this move
                progress = (view, a, replies, index, own, outputs)
                return row
        return Output(outputs)

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
            "bound": _fraction_json(self.bound),
            "meets_bound": self.meets_bound,
        }
        if self.size <= self.MEMBER_EMIT_CAP:
            hex_of = f"%0{(self.n + 3) // 4}x".__mod__  # bits_to_hex's width, ceil(n/4) nibbles; n >= ell >= 1
            data["members_hex"] = [hex_of(int(a, 2)) for a in self.members]
        return data


def definedness_set(inst: Instance, strategy: StudentStrategy, jobs: int = 1) -> set[str]:
    """All inputs whose witness-mode run is defined (n <= EXHAUSTIVE_MAX_N)."""
    column = scan(inst, strategy, witness=True, jobs=jobs)  # refuses n > EXHAUSTIVE_MAX_N before the input table is built
    return set(compress(inst._inputs[0], map(not_, column)))


def extract_hardcore(inst: Instance, family: StudentFamily, k: int) -> HardcoreReport:
    """Definedness set of composite k, each stage inverting only under its own flag: the sweep to k's last report."""
    return sweep(inst, family, stage_count(family, k))[-1]


def sweep(inst: Instance, family: StudentFamily, k_max: int, jobs: int = 1) -> list[HardcoreReport]:
    """extract_hardcore for k = 1..k_max from one witness scan of composite k_max.  Each stage inverts only
    under its own flag, so composite k plays composite k_max's game up to stage k+1's first move, and a witness
    game is defined unless a reply disagrees with b: D_k is D_{k_max} and the inputs where stage k+1 started."""
    failure_bound(inst.ell, inst.m, stage_count(family, k_max, "k_max") ** 2)  # the largest budget, refused before the scan
    started: dict[str, int] = {}
    defined = definedness_set(inst, compose(family, k_max, started), jobs=jobs)
    # an input's level is the furthest stage started, or past k_max where its game is defined
    started.update(dict.fromkeys(defined, k_max + 1))
    inputs = inst._inputs[0]  # in sorted order, so each D_k is too
    levels = list(map(started.get, inputs, repeat(1)))
    sets = [tuple(compress(inputs, map(k.__lt__, levels))) for k in range(1, k_max + 1)]
    return [HardcoreReport(k, inst.n, len(d), failure_bound(inst.ell, inst.m, k * k), d) for k, d in enumerate(sets, 1)]
