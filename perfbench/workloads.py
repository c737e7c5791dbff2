"""The three benchmark workloads; BENCHMARK.json says why each was chosen.

Each follows one CLI flow through the public calls its handler makes.
`setup` builds the inputs from the workload seed; `op` is one pass of the
flow, output serialisation and its check included, and returns the output
bytes with a list of problems (empty when the output checks out);
`run_check` holds the checks made once per run, outside the timed ops.

All nwgame calls go through module attributes at call time (`nw.cli.
run_experiment`, not a name bound at import), so a traced op reaches the
tracer's wrappers.  `span` is the tracer's span opener, or a no-op.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
from dataclasses import dataclass

DEFAULT_SEED = 3
HELD_OUT_SEED = 11

ELL = 4
D = 2
PERM_SEED = 0

# Outputs at DEFAULT_SEED and the default size, as the `nwgame` CLI writes
# them for the same inputs (`nwgame run`, `nwgame hardcore sweep`, `nwgame
# instance make`).  Speed-ups must leave report bytes unchanged.
EXPECTED_SHA256 = {
    "reduce-n11": "fdd7dda436619d05d6c14ca1ae92e30063bf77bbcd8a5763fcaa998cef88ee81",
    "sweep-n12-j2": "1988b2d0740abd2f6aea437414952b81bfec30e2e27e5dd4c4418a1c6c266a12",
}
EXPECTED_B_HEX = {"offrange-n12": "000d"}

REDUCE_STRATEGIES = (
    {"kind": "round-robin", "max_queries": 2},
    {"kind": "seeded-random", "max_queries": 2, "seed": 1},
    {"kind": "constant", "row": 0},
)
REDUCE_ANALYSES = ("census", "assignment", "reduce", "failureset")

SWEEP_STAGES = (
    {"kind": "constant", "row": 0},
    {"kind": "round-robin", "max_queries": 2, "start": 1},
    {"kind": "seeded-random", "max_queries": 3, "seed": 2},
    {"kind": "round-robin", "max_queries": 4, "start": 5},
)
SWEEP_K_MAX = 4
SWEEP_JOBS = 2


def no_span(name: str):
    return contextlib.nullcontext()


def dump(payload: dict) -> bytes:
    """The bytes `nwgame` writes for a report (as the CLI's `_dump` does)."""
    return (json.dumps(payload, sort_keys=True, indent=2) + "\n").encode()


def greedy_design(nw, n: int, seed: int):
    """The greedy design the tests' `greedy_instance` builds: m = n + 1."""
    return nw.design.extend_greedy(nw.design.Design(n=n, ell=ELL, d=D, sets=()), n + 1, seed)


def table_permutation(nw):
    return nw.crypto.Permutation(ell=ELL, kind="table", seed=PERM_SEED)


@dataclass
class Workload:
    name: str
    n: int

    def pinned(self, state) -> bool:
        """Whether the recorded default-seed outputs apply to this state."""
        return state["seed"] == DEFAULT_SEED and state["n"] == self.n

    def run_check(self, nw, state, output: bytes) -> list[str]:
        return []


class OffRange(Workload):
    """`nwgame instance make` then `nwgame instance check`."""

    def setup(self, nw, seed: int, n: int | None = None) -> dict:
        n = n or self.n
        return {"seed": seed, "n": n, "design": greedy_design(nw, n, seed), "h": table_permutation(nw)}

    def op(self, nw, state, span=no_span) -> tuple[bytes, list[str]]:
        gen = nw.generator
        inst = gen.make_instance(state["design"], state["h"], nw.crypto.HardBit("last-bit"), 2)
        payload = inst.to_json_dict()
        payload["strict_warnings"] = gen.strict_violations(inst)
        with span("cli.dump"):
            text = dump(payload)
        loaded = gen.Instance.from_json_dict(json.loads(text))
        problems = []
        if not nw.design.verify_design(loaded.design).ok:
            problems.append("instance check: design invalid")
        if not nw.crypto.check_bijection(loaded.h):
            problems.append("instance check: permutation is not a bijection")
        if not gen.certify_off_range(loaded, loaded.b):
            problems.append("instance check: certify_off_range rejected b")
        expected = EXPECTED_B_HEX[self.name]
        if self.pinned(state) and payload["b_hex"] != expected:
            problems.append(f"b_hex {payload['b_hex']} != recorded {expected}")
        return text, problems


class Reduce(Workload):
    """`nwgame run CONFIG` with census, assignment, reduce and failureset."""

    def setup(self, nw, seed: int, n: int | None = None) -> dict:
        n = n or self.n
        config = {
            "seed": seed,
            "c": 2,
            "design": {"explicit": greedy_design(nw, n, seed).to_json_dict()},
            "permutation": {"kind": "table", "seed": PERM_SEED},
            "hard_bit": "last-bit",
            "b": {"mode": "lex-min"},
            "strategies": [dict(s) for s in REDUCE_STRATEGIES],
            "analyses": list(REDUCE_ANALYSES),
        }
        return {"seed": seed, "n": n, "config_text": json.dumps(config)}

    def op(self, nw, state, span=no_span) -> tuple[bytes, list[str]]:
        report = nw.cli.run_experiment(json.loads(state["config_text"]), jobs=1)
        with span("cli.dump"):
            text = dump(report)
        problems = []
        space = 1 << state["n"]
        for entry in report["strategies"]:
            census = entry["census"]
            failures = entry["failures"]["failure_count"]
            if census["w_size"] + failures != space:
                problems.append(f"{entry['name']}: w_size {census['w_size']} + failures {failures} != {space}")
            reduction = entry["reduction"]
            if reduction["census"]["w_size"] + reduction["failure_count"] != space:
                problems.append(f"{entry['name']}: reduction counts do not partition the inputs")
            for section in (census, reduction["census"]):
                if section["best"] is not None and section["best"]["bound_ok"] is not True:
                    problems.append(f"{entry['name']}: best trace misses the count bound")
        problems += _sha_problems(self, state, text)
        return text, problems


class Sweep(Workload):
    """`nwgame hardcore sweep --jobs 2`."""

    def setup(self, nw, seed: int, n: int | None = None) -> dict:
        n = n or self.n
        inst = nw.generator.make_instance(
            greedy_design(nw, n, seed), table_permutation(nw), nw.crypto.HardBit("last-bit"), 2
        )
        return {
            "seed": seed,
            "n": n,
            "instance_text": dump(inst.to_json_dict()),
            "family_text": json.dumps({"stages": list(SWEEP_STAGES)}),
        }

    def sweep_bytes(self, nw, state, jobs: int, span=no_span) -> bytes:
        inst = nw.generator.Instance.from_json_dict(json.loads(state["instance_text"]))
        stages = json.loads(state["family_text"])["stages"]
        family = nw.hardcore.StudentFamily(tuple(nw.game.strategy_from_spec(s) for s in stages))
        reports = nw.hardcore.sweep(inst, family, SWEEP_K_MAX, jobs=jobs)
        with span("cli.dump"):
            return dump({"sweep": [r.to_json_dict() for r in reports]})

    def op(self, nw, state, span=no_span) -> tuple[bytes, list[str]]:
        text = self.sweep_bytes(nw, state, SWEEP_JOBS, span)
        sizes = [r["size"] for r in json.loads(text)["sweep"]]
        problems = []
        if any(later > earlier for earlier, later in zip(sizes, sizes[1:])):
            problems.append(f"definedness set sizes grow with k: {sizes}")
        problems += _sha_problems(self, state, text)
        return text, problems

    def run_check(self, nw, state, output: bytes) -> list[str]:
        if self.sweep_bytes(nw, state, 1) != output:
            return [f"jobs={SWEEP_JOBS} report differs from the jobs=1 report"]
        return []


def _sha_problems(workload: Workload, state, text: bytes) -> list[str]:
    expected = EXPECTED_SHA256[workload.name]
    digest = hashlib.sha256(text).hexdigest()
    if workload.pinned(state) and digest != expected:
        return [f"output sha256 {digest} != recorded {expected}"]
    return []


WORKLOADS = {
    w.name: w
    for w in (
        OffRange("offrange-n12", 12),
        Reduce("reduce-n11", 11),
        Sweep("sweep-n12-j2", 12),
    )
}

