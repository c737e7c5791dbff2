"""Span tracer that lives entirely in the benchmark.

It wraps calls into nwgame's public surface from the outside: every module
attribute of the package that is bound to one of the wrapped functions is
rebound to a wrapper (the modules import helpers by name, so each binding
is rewrapped), `Permutation.invert`/`apply` are patched on the class, and
the strategies, composites and shard workers that cross the public API get
wrapped `move`s and workers.  Nothing inside `src/nwgame` changes.

A span records its name, start, end and parent.  Aggregates (calls, total
time, self time) cover every span; the span log keeps the first
`LOG_CAP_PER_NAME` spans of each name per thread, because a traced
offrange-n12 operation opens half a million leaf spans.  Each thread
records into its own buffers, which are merged when the run ends, so no
count is lost to a race between shard threads.
"""

from __future__ import annotations

import contextlib
import dataclasses
import itertools
import json
import sys
import threading
from time import perf_counter, thread_time

LOG_CAP_PER_NAME = 2000

# (module, function); the span name `module.function` is also the metric prefix
WRAPPED_FUNCTIONS = (
    ("bits", "int_to_bits"),
    ("bits", "bits_to_int"),
    ("bits", "check_bits"),
    ("bits", "bits_to_hex"),
    ("bits", "hex_to_bits"),
    ("bits", "parity"),
    ("design", "restrict"),
    ("design", "embed"),
    ("generator", "evaluate"),
    ("generator", "find_off_range"),
    ("generator", "certify_off_range"),
    ("generator", "make_instance"),
    ("game", "failure_set"),
    ("game", "strategy_from_spec"),
    ("analysis", "trace_census"),
    ("analysis", "best_margin_trace"),
    ("analysis", "best_partial_assignment"),
    ("analysis", "build_witness_tables"),
    ("analysis", "build_predictor"),
    ("analysis", "measure_advantage"),
    ("analysis", "run_reduction"),
    ("hardcore", "compose"),
    ("hardcore", "definedness_set"),
    ("hardcore", "extract_hardcore"),
    ("hardcore", "sweep"),
    ("sharding", "run_sharded"),
    ("seeds", "derive_seed"),
    ("cli", "run_experiment"),
)

# spans that play every input of a strategy: games and teacher queries are
# counted only inside them
SCAN_SPANS = frozenset(
    {
        "analysis.trace_census",
        "analysis.best_partial_assignment",
        "analysis.build_predictor",
        "game.failure_set",
        "hardcore.definedness_set",
    }
)


class _Recorder:
    """One thread's open spans, aggregates, counters and span log."""

    def __init__(self, thread: int) -> None:
        self.thread = thread
        self.stack: list[list] = []
        self.agg: dict[str, list] = {}
        self.counts: dict[str, float] = {}
        self.strategies: set[str] = set()
        self.spans: list[tuple] = []
        self.logged: dict[str, int] = {}
        self.scan_depth = 0
        self.move_depth = 0
        # set in a shard thread: the run_sharded frame of the calling thread
        self.cross_parent: list | None = None

    def enter(self, name: str, span_id: int) -> list:
        stack = self.stack
        if stack:
            parent = stack[-1][1]
        elif self.cross_parent is not None:
            parent = self.cross_parent[1]
        else:
            parent = 0
        # [name, id, parent id, start, child time]
        frame = [name, span_id, parent, 0.0, 0.0]
        stack.append(frame)
        frame[3] = perf_counter()
        return frame

    def exit(self, frame: list) -> None:
        end = perf_counter()
        stack = self.stack
        stack.pop()
        name = frame[0]
        start = frame[3]
        duration = end - start
        child = frame[4]
        agg = self.agg.get(name)
        if agg is None:
            agg = self.agg[name] = [0, 0.0, 0.0]
        agg[0] += 1
        agg[1] += duration
        agg[2] += duration - child
        if stack:
            stack[-1][4] += duration
        logged = self.logged.get(name, 0)
        if logged < LOG_CAP_PER_NAME:
            self.logged[name] = logged + 1
            self.spans.append((frame[1], frame[2], name, start, end, self.thread))

    def count(self, key: str, amount: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount


@dataclasses.dataclass(frozen=True)
class TraceResult:
    """Merged aggregates of one traced operation."""

    agg: dict[str, tuple[int, float, float]]  # name -> (calls, total s, self s)
    counts: dict[str, float]
    strategies: frozenset[str]
    spans: list[tuple]
    spans_total: int

    def calls(self, name: str) -> int:
        return self.agg.get(name, (0, 0.0, 0.0))[0]

    def total_s(self, name: str) -> float:
        return self.agg.get(name, (0, 0.0, 0.0))[1]

    def self_s(self, prefix: str) -> float:
        """Self time of one span name, or of every span under a module prefix."""
        return sum(v[2] for k, v in self.agg.items() if k == prefix or k.startswith(prefix + "."))


class Tracer:
    """Install with `install()`, run the traced work, then `uninstall()`
    and read `result()`.  One tracer traces one stretch of work."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._recorders: list[_Recorder] = []
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _rec(self) -> _Recorder:
        try:
            return self._local.rec
        except AttributeError:
            with self._lock:
                rec = _Recorder(len(self._recorders))
                self._recorders.append(rec)
            self._local.rec = rec
            return rec

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself."""
        rec = self._rec()
        frame = rec.enter(name, next(self._ids))
        try:
            yield
        finally:
            rec.exit(frame)

    def _wrap(self, name: str, fn, after=None):
        rec_of = self._rec
        ids = self._ids
        scan = name in SCAN_SPANS

        def wrapper(*args, **kwargs):
            rec = rec_of()
            if scan:
                rec.scan_depth += 1
            frame = rec.enter(name, next(ids))
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.exit(frame)
                if scan:
                    rec.scan_depth -= 1
            return after(rec, result) if after is not None else result

        return wrapper

    def _wrap_invert(self, fn):
        rec_of = self._rec
        ids = self._ids

        def invert(perm, u):
            rec = rec_of()
            if rec.scan_depth:
                rec.count("game.teacher_queries")
            frame = rec.enter("crypto.invert", next(ids))
            try:
                return fn(perm, u)
            finally:
                rec.exit(frame)

        return invert

    def wrap_strategy(self, strategy, name: str = "game.move"):
        """The strategy with its `move` wrapped.  A move called while another
        move is open is a stage of a composite; a top-level move on an empty
        reply tuple inside a scan span starts one game."""
        rec_of = self._rec
        ids = self._ids
        move = strategy.move
        key = strategy.name

        def traced_move(view, a, replies):
            rec = rec_of()
            if rec.move_depth:
                rec.count("hardcore.stage_moves")
            elif rec.scan_depth:
                rec.count("game.moves")
                if not replies:
                    rec.count("game.runs")
                    rec.strategies.add(key)
            rec.move_depth += 1
            frame = rec.enter(name, next(ids))
            try:
                return move(view, a, replies)
            finally:
                rec.exit(frame)
                rec.move_depth -= 1

        return dataclasses.replace(strategy, move=traced_move)

    def _wrap_run_sharded(self, fn):
        rec_of = self._rec
        ids = self._ids

        def run_sharded(total, jobs, worker):
            caller = rec_of()
            frame = caller.enter("sharding.run_sharded", next(ids))
            shards = 0
            lock = threading.Lock()

            def traced_worker(lo, hi):
                nonlocal shards
                with lock:
                    shards += 1
                rec = rec_of()
                if rec is not caller:
                    rec.cross_parent = frame
                    rec.scan_depth = caller.scan_depth
                    rec.move_depth = caller.move_depth
                cpu0 = thread_time()
                wframe = rec.enter("sharding.worker", next(ids))
                try:
                    return worker(lo, hi)
                finally:
                    rec.exit(wframe)
                    cpu = thread_time() - cpu0
                    wall = perf_counter() - wframe[3]
                    rec.count("sharding.worker_cpu_s", cpu)
                    rec.count("sharding.worker_wall_s", wall)

            try:
                return fn(total, jobs, traced_worker)
            finally:
                caller.exit(frame)
                caller.count("sharding.shards", shards)
                caller.count("sharding.shard_wall_s", shards * (perf_counter() - frame[3]))

        return run_sharded

    # -- installing ------------------------------------------------------

    def _patch(self, owner: object, attr: str, value: object) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap the public surface of the already imported nwgame package."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = {
            name: mod
            for name, mod in sys.modules.items()
            if mod is not None and (name == "nwgame" or name.startswith("nwgame."))
        }

        def traces_after(rec, census):
            rec.count("analysis.traces", len(census.counts))
            return census

        def witness_after(rec, tables):
            rec.count("analysis.witness_entries", sum(len(t) for t in tables.values()))
            return tables

        def members_after(rec, members):
            rec.count("hardcore.members", len(members))
            return members

        after = {
            "analysis.trace_census": traces_after,
            "analysis.build_witness_tables": witness_after,
            "hardcore.definedness_set": members_after,
            "game.strategy_from_spec": lambda rec, s: self.wrap_strategy(s),
            "hardcore.compose": lambda rec, s: self.wrap_strategy(s, "hardcore.composite.move"),
        }
        wrappers: dict[int, tuple[object, object]] = {}
        for module, function in WRAPPED_FUNCTIONS:
            name = f"{module}.{function}"
            original = getattr(modules[f"nwgame.{module}"], function)
            if name == "sharding.run_sharded":
                wrapper = self._wrap_run_sharded(original)
            else:
                wrapper = self._wrap(name, original, after.get(name))
            wrappers[id(original)] = (original, wrapper)
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(mod, attr, hit[1])
        permutation = modules["nwgame.crypto"].Permutation
        self._patch(permutation, "invert", self._wrap_invert(permutation.invert))
        self._patch(permutation, "apply", self._wrap("crypto.apply", permutation.apply))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results ---------------------------------------------------------

    def result(self) -> TraceResult:
        agg: dict[str, list] = {}
        counts: dict[str, float] = {}
        strategies: set[str] = set()
        spans: list[tuple] = []
        for rec in self._recorders:
            if rec.stack:
                raise RuntimeError(f"spans still open on thread {rec.thread}")
            for name, (calls, total, self_time) in rec.agg.items():
                slot = agg.setdefault(name, [0, 0.0, 0.0])
                slot[0] += calls
                slot[1] += total
                slot[2] += self_time
            for key, value in rec.counts.items():
                counts[key] = counts.get(key, 0) + value
            strategies |= rec.strategies
            spans.extend(rec.spans)
        spans.sort(key=lambda span: span[3])
        return TraceResult(
            agg={name: tuple(v) for name, v in agg.items()},
            counts=counts,
            strategies=frozenset(strategies),
            spans=spans,
            spans_total=sum(v[0] for v in agg.values()),
        )


def write_spans(result: TraceResult, path, meta: dict) -> None:
    """Write the span log and the aggregates as one JSON document."""
    doc = {
        "meta": meta,
        "log_cap_per_name": LOG_CAP_PER_NAME,
        "spans_total": result.spans_total,
        "spans_logged": len(result.spans),
        "span_fields": ["id", "parent", "name", "start_s", "end_s", "thread"],
        "spans": result.spans,
        "aggregates": {
            name: {"calls": calls, "total_s": total, "self_s": self_time}
            for name, (calls, total, self_time) in sorted(result.agg.items())
        },
        "counts": dict(sorted(result.counts.items())),
    }
    with open(path, "w") as handle:
        json.dump(doc, handle)
