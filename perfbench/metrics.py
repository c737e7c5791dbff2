"""The metrics: names and units come from BENCHMARK.json; the per-module
values are derived here from one traced operation."""

from __future__ import annotations

import json
from pathlib import Path

from tracer import TraceResult

_SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())

# name -> unit, in BENCHMARK.json's order
END_TO_END = {m["name"]: m["unit"] for m in _SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in _SPEC["per_layer"]}


def layer_values(
    result: TraceResult, n: int, traced_wall_s: float, untraced_wall_s: float, report_bytes: int
) -> dict[str, float]:
    """Every PER_LAYER metric from one traced operation on 2^n inputs."""
    counts = result.counts
    space = 1 << n
    values: dict[str, float] = {}
    for name in (
        "bits.int_to_bits", "bits.check_bits", "design.restrict", "design.embed",
        "crypto.invert", "crypto.apply", "generator.evaluate", "seeds.derive_seed",
    ):
        values[f"{name}.calls"] = result.calls(name)
    for name in (
        "bits", "design.restrict", "design.embed", "crypto.invert",
        "generator.evaluate", "seeds.derive_seed",
    ):
        values[f"{name}.self_s"] = result.self_s(name)
    for name in (
        "generator.find_off_range", "generator.certify_off_range", "game.failure_set",
        "analysis.trace_census", "analysis.best_margin_trace",
        "analysis.best_partial_assignment", "analysis.build_predictor",
        "analysis.measure_advantage", "analysis.run_reduction",
        "hardcore.definedness_set", "cli.run_experiment",
    ):
        values[f"{name}.s"] = result.total_s(name)
    values["generator.range_passes"] = result.calls("generator.evaluate") / space
    runs = counts.get("game.runs", 0)
    values["game.runs"] = runs
    values["game.moves"] = counts.get("game.moves", 0)
    values["game.teacher_queries"] = counts.get("game.teacher_queries", 0)
    scanned = len(result.strategies)
    values["game.runs_per_input"] = runs / (space * scanned) if scanned else 0.0
    values["analysis.traces"] = counts.get("analysis.traces", 0)
    values["analysis.witness_entries"] = counts.get("analysis.witness_entries", 0)
    values["hardcore.stage_moves"] = counts.get("hardcore.stage_moves", 0)
    values["hardcore.members"] = counts.get("hardcore.members", 0)
    values["sharding.calls"] = result.calls("sharding.run_sharded")
    values["sharding.shards"] = counts.get("sharding.shards", 0)
    worker_cpu = counts.get("sharding.worker_cpu_s", 0.0)
    values["sharding.worker_cpu_s"] = worker_cpu
    values["sharding.worker_wait_s"] = counts.get("sharding.worker_wall_s", 0.0) - worker_cpu
    shard_wall = counts.get("sharding.shard_wall_s", 0.0)
    values["sharding.efficiency"] = worker_cpu / shard_wall if shard_wall else 0.0
    values["cli.dump_s"] = result.total_s("cli.dump")
    values["cli.report_bytes"] = report_bytes
    values["trace.wall_s"] = traced_wall_s
    values["trace.overhead_s"] = traced_wall_s - untraced_wall_s
    values["trace.spans"] = result.spans_total
    return values


def tail_percentile(samples: list[float]) -> tuple[float, float] | None:
    """The highest percentile with at least ten samples beyond it, as
    (percentile, value): the sample with exactly ten larger ones.  None
    with fewer than eleven samples."""
    if len(samples) < 11:
        return None
    ordered = sorted(samples)
    return 100 * (len(ordered) - 10) / len(ordered), ordered[-11]
