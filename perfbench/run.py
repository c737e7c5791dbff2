"""Run one nwgame benchmark workload and print its metrics.

    python3 perfbench/run.py --workload reduce-n11 --seconds 30
    python3 perfbench/run.py --workload reduce-n11 --seconds 30 --trace 1

Run from the repository root.  The program under test is `src/nwgame` of
the same checkout; nothing installed elsewhere is used.  With `--trace 0`
the operation is repeated, untraced, until `--seconds` have passed and the
end-to-end metrics are reported; each time is scaled to the reference
machine's quiet speed by a calibration loop timed around it.  With
`--trace 1` one untraced and one traced operation run, and the per-module
metrics of the traced one are reported.  The last line of standard output is the result as one JSON
object; the lines before it print each metric with its unit and the run's
environment, and the full record goes to `perfbench/out/`.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

sys.path.insert(0, str(HERE))

import metrics  # noqa: E402
from tracer import Tracer, write_spans  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, no_span  # noqa: E402

SETUP_REPEATS = 9

# The calibration loop: fixed pure-Python work of the kind nwgame does (bit
# strings formatted, sliced and kept in a dict of 4,096 entries), with no
# nwgame call.  CAL_REF_S is its time on the reference machine (README.md)
# when the machine is quiet: the 5th percentile of 1,105 timed passes.
CAL_ITEMS = 60_000
CAL_REF_S = 0.030

LIMITS = (
    "shared machine: no CPU pinning and no clock control; wall_s, cpu_s and "
    "setup_s are medians of samples scaled to the reference speed by a "
    "calibration loop timed around each sample"
)


def import_nwgame():
    """Import nwgame (and the CLI module its entry point loads) afresh from
    this checkout's src/, dropping any copy imported before."""
    for name in [n for n in sys.modules if n == "nwgame" or n.startswith("nwgame.")]:
        del sys.modules[name]
    nw = importlib.import_module("nwgame")
    importlib.import_module("nwgame.cli")
    if Path(nw.__file__).resolve().parent != SRC / "nwgame":
        raise ImportError(f"nwgame came from {nw.__file__}, not from {SRC}")
    return nw


def cold_setup_s(workload, seed: int) -> float:
    """Seconds for `import nwgame` plus building the inputs, timed inside a
    fresh interpreter so that no module is already loaded."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_once.py"), workload.name, str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(proc.stdout.split()[-1])


def git_sha() -> str:
    """HEAD's commit, read from .git without running git; 'unknown' when
    the checkout is not a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def cpu_seconds() -> float:
    """User plus system CPU time of this process and its children."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def calibrate() -> tuple[float, float]:
    """Wall and CPU seconds of one pass of the calibration loop."""
    wall0, cpu0 = time.perf_counter(), time.process_time()
    table = {}
    for i in range(CAL_ITEMS):
        bits = format(i, "016b")
        table[bits[4:]] = bits[::-1] + "1"
    return time.perf_counter() - wall0, time.process_time() - cpu0


def at_reference_speed(samples: list[float], cals: list[float]) -> float:
    """The median of `samples`, each scaled to the reference machine's quiet
    speed by the calibration runs timed just before and just after it
    (`cals` has one more entry than `samples`)."""
    return statistics.median(
        CAL_REF_S * 2 * sample / (before + after)
        for sample, before, after in zip(samples, cals, cals[1:])
    )


def timed_op(workload, nw, state, span=no_span):
    """One operation: (wall s, cpu s, output bytes or None, problems)."""
    wall0, cpu0 = time.perf_counter(), cpu_seconds()
    try:
        output, problems = workload.op(nw, state, span)
    except Exception:  # an operation that raises counts as failed
        output, problems = None, [traceback.format_exc(limit=3)]
    return time.perf_counter() - wall0, cpu_seconds() - cpu0, output, problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    if not (SRC / "nwgame" / "__init__.py").is_file():
        print(f"error: no nwgame sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    setup_times: list[float] = []
    cals = [calibrate()]
    if not args.trace:
        for _ in range(SETUP_REPEATS):
            setup_times.append(cold_setup_s(workload, args.seed))
            cals.append(calibrate())
    setup_cals, cals = cals, cals[-1:]
    nw = import_nwgame()
    state = workload.setup(nw, args.seed)

    walls: list[float] = []
    cpus: list[float] = []
    op_failed: list[bool] = []
    problems: list[str] = []
    first_output = None

    def record(wall, cpu, output, op_problems):
        nonlocal first_output
        walls.append(wall)
        cpus.append(cpu)
        op_failed.append(bool(op_problems))
        problems.extend(op_problems)
        if first_output is None:
            first_output = output

    if args.trace:
        record(*timed_op(workload, nw, state))
        tracer = Tracer()
        tracer.install()
        try:
            wall, cpu, output, op_problems = timed_op(workload, nw, state, tracer.span)
        finally:
            tracer.uninstall()
        record(wall, cpu, output, op_problems)
        if output is not None and first_output is not None and output != first_output:
            problems.append("traced output differs from the untraced output")
        result = tracer.result()
        values = metrics.layer_values(result, state["n"], wall, walls[0], len(output or b""))
    else:
        start = time.perf_counter()
        while True:
            record(*timed_op(workload, nw, state))
            cals.append(calibrate())
            if time.perf_counter() - start >= args.seconds:
                break
    if first_output is not None:
        run_problems = workload.run_check(nw, state, first_output)
        if run_problems:
            # the run check rechecks the first operation's output
            op_failed[0] = True
            problems += run_problems
    failed = sum(op_failed)

    meta = {
        "workload": workload.name,
        "seed": args.seed,
        "n": state["n"],
        "trace": args.trace,
        "seconds": args.seconds,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "limits": LIMITS,
    }
    attempted = len(walls)
    if not args.trace:
        # Other tenants of the shared machine slow whole runs by up to 1.7x,
        # and they slow nwgame and the calibration loop together, so each
        # sample is scaled by the calibration runs around it (see README.md).
        values = {
            "wall_s": at_reference_speed(walls, [c[0] for c in cals]),
            "cpu_s": at_reference_speed(cpus, [c[1] for c in cals]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "setup_s": at_reference_speed(setup_times, [c[0] for c in setup_cals]),
        }
    units = metrics.PER_LAYER if args.trace else metrics.END_TO_END
    if set(values) != set(units):
        raise RuntimeError(f"metrics out of step with BENCHMARK.json: {sorted(set(values) ^ set(units))}")
    tail = metrics.tail_percentile(walls)
    extra = {
        "error_rate": failed / attempted,
        "cal_ref_s": CAL_REF_S,
        "raw": {
            "samples": attempted,
            "wall_s_median": statistics.median(walls),
            "wall_s_fastest": min(walls),
            "wall_s_tail": None if tail is None else {"percentile": tail[0], "value": tail[1]},
            "cpu_s_median": statistics.median(cpus),
            "setup_s_median": statistics.median(setup_times) if setup_times else None,
            "wall_s_all": walls,
            "cpu_s_all": cpus,
            "setup_s_all": setup_times,
            "calibration_wall_s_all": [c[0] for c in cals],
            "calibration_cpu_s_all": [c[1] for c in cals],
            "setup_calibration_wall_s_all": [c[0] for c in setup_cals],
        },
        "problems": problems,
    }

    print("# " + json.dumps(meta, sort_keys=True))
    for name, value in values.items():
        print(f"{name:36s} {value:.6g} {units[name]}")
    tail_text = "none (fewer than 11 samples)" if tail is None else f"p{tail[0]:.1f} = {tail[1]:.6g} s"
    raw = extra["raw"]
    print(
        f"# raw wall time over {attempted} ops: median {raw['wall_s_median']:.6g} s, "
        f"fastest {raw['wall_s_fastest']:.6g} s; "
        f"highest percentile with >= 10 samples beyond: {tail_text}"
    )
    if not args.trace:
        print(f"# calibration loop: median {statistics.median(raw['calibration_wall_s_all']):.6g} s, "
              f"{CAL_REF_S} s at the reference speed")
    print(f"# error_rate {extra['error_rate']:.6g} ({failed} of {attempted} ops failed)")
    for problem in problems:
        print("# problem: " + problem.replace("\n", "\n#   "))

    OUT.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    with open(OUT / f"{stem}.json", "w") as handle:
        json.dump({"meta": meta, "metrics": values, **extra}, handle, indent=2, sort_keys=True)
    if args.trace:
        write_spans(result, OUT / f"{stem}-spans.json", meta)

    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": attempted,
                "failed": failed,
                "metrics": {name: {"value": v, "unit": units[name]} for name, v in values.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
