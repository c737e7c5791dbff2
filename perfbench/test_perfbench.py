"""Self-checks of the benchmark: its workload list, its tracer's bindings,
its calibration scaling and its failure when the program is missing.

    python3 -m pytest -q perfbench

The traced workloads run at small n, where the same flows reach the same
surfaces in well under a second.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import metrics  # noqa: E402
import run  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

SMALL_N = {"offrange-n12": 10, "reduce-n11": 9, "sweep-n12-j2": 9}

ANALYSIS = [name for name in metrics.PER_LAYER if name.startswith("analysis.")]
HARDCORE = [name for name in metrics.PER_LAYER if name.startswith("hardcore.")]
SHARDING_COUNTS = ["sharding.calls", "sharding.shards", "sharding.worker_cpu_s"]

# surfaces each workload must reach, and the predicted zeros
REACHED = {
    "offrange-n12": [
        "bits.int_to_bits.calls", "bits.check_bits.calls", "bits.self_s",
        "design.restrict.calls", "crypto.invert.calls", "generator.evaluate.calls",
        "generator.find_off_range.s", "generator.certify_off_range.s",
        "cli.dump_s", "cli.report_bytes",
    ],
    "reduce-n11": [
        "bits.int_to_bits.calls", "design.restrict.calls", "design.embed.calls",
        "crypto.invert.calls", "generator.evaluate.calls", "generator.find_off_range.s",
        "game.runs", "game.moves", "game.teacher_queries", "game.failure_set.s",
        "seeds.derive_seed.calls", "cli.run_experiment.s", "cli.dump_s",
        "sharding.calls", "sharding.shards",
        *ANALYSIS,
    ],
    "sweep-n12-j2": [
        "bits.int_to_bits.calls", "design.restrict.calls", "crypto.invert.calls",
        "game.runs", "game.moves", "game.teacher_queries", "seeds.derive_seed.calls",
        "cli.dump_s", *HARDCORE, *SHARDING_COUNTS, "sharding.efficiency",
    ],
}
ZERO = {
    "offrange-n12": [
        "game.runs", "game.moves", "game.teacher_queries", "design.embed.calls",
        "cli.run_experiment.s",
        *ANALYSIS, *HARDCORE, *SHARDING_COUNTS,
    ],
    "reduce-n11": ["generator.certify_off_range.s", *HARDCORE],
    "sweep-n12-j2": [
        "design.embed.calls", "generator.evaluate.calls", "generator.find_off_range.s",
        "generator.certify_off_range.s", "cli.run_experiment.s", *ANALYSIS,
    ],
}


def traced_op(name: str):
    """One untraced and one traced op of a workload at small n; returns the
    trace result and the per-layer values."""
    workload = WORKLOADS[name]
    nw = run.import_nwgame()
    state = workload.setup(nw, DEFAULT_SEED, SMALL_N[name])
    plain, problems = workload.op(nw, state)
    assert problems == []
    tracer = Tracer()
    tracer.install()
    try:
        output, problems = workload.op(nw, state, tracer.span)
    finally:
        tracer.uninstall()
    assert problems == []
    assert output == plain, "tracing changed the output"
    assert workload.run_check(nw, state, output) == []
    result = tracer.result()
    return result, metrics.layer_values(result, state["n"], 1.0, 0.5, len(output))


def exact_counts(result) -> dict:
    calls = {name: v[0] for name, v in result.agg.items()}
    counts = {k: v for k, v in result.counts.items() if not k.endswith("_s")}
    return {"calls": calls, "counts": counts, "strategies": sorted(result.strategies)}


def test_benchmark_json_names_the_workloads():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert spec["paths"] == [HERE.name]


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_tracer_reaches_each_surface_and_repeats_exactly(name):
    first, values = traced_op(name)
    second, _ = traced_op(name)
    assert exact_counts(first) == exact_counts(second)
    assert [m for m in REACHED[name] if not values[m] > 0] == []
    assert [m for m in ZERO[name] if values[m] != 0] == []
    assert first.spans and all(span[4] >= span[3] for span in first.spans)


def test_ratios_match_the_flows():
    _, offrange = traced_op("offrange-n12")
    assert offrange["generator.range_passes"] == 2.0
    _, reduce = traced_op("reduce-n11")
    # six full passes per strategy, plus build_predictor's 2^ell games
    assert reduce["game.runs_per_input"] == pytest.approx(6 + 2**4 / 2 ** SMALL_N["reduce-n11"])
    assert reduce["sharding.shards"] == reduce["sharding.calls"]
    _, sweep = traced_op("sweep-n12-j2")
    assert sweep["game.runs_per_input"] == 1.0
    assert sweep["sharding.shards"] == 2 * sweep["sharding.calls"]


def test_samples_are_scaled_by_the_calibration_around_them():
    ref = run.CAL_REF_S
    # calibration at twice the reference time halves every sample
    assert run.at_reference_speed([1.0, 2.0, 3.0], [2 * ref] * 4) == pytest.approx(1.0)
    # each sample is scaled by the mean of the calibration runs around it
    assert run.at_reference_speed([3.0], [ref, 2 * ref]) == pytest.approx(2.0)


def test_tracer_restores_every_binding():
    nw = run.import_nwgame()
    before = {
        (mod, attr): value
        for mod in (nw.bits, nw.design, nw.generator, nw.game, nw.analysis, nw.hardcore, nw.cli)
        for attr, value in vars(mod).items()
    }
    invert = nw.crypto.Permutation.invert
    tracer = Tracer()
    tracer.install()
    assert nw.design.restrict is not before[(nw.design, "restrict")]
    assert nw.generator.restrict is not before[(nw.generator, "restrict")]
    tracer.uninstall()
    assert all(getattr(mod, attr) is value for (mod, attr), value in before.items())
    assert nw.crypto.Permutation.invert is invert


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [*spec["command"], "--workload", "reduce-n11", "--seed", "3", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
