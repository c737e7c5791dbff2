"""Mutant suite: each row of MUTANTS is a one-line fault in `src/nwgame`,
and tier-1 must fail on every row that is not marked equivalent.  This is
mutation analysis (DeMillo, Lipton and Sayward, "Hints on Test Data
Selection", IEEE Computer 1978): a gate is as strong as the mutants it kills.

    python -m pytest -q mutants

Each row is applied alone, to a copy of `src/`, `tests/`, `pyproject.toml`
and `README.md` (which `tests/test_readme.py` reads) in a temporary
directory; its old text must occur exactly once in its file.  Tier-1 then
runs on the copy with `-x` and a fixed hypothesis seed, so a kill by a
property test is deterministic.  A row is killed when some test fails
(pytest's exit code 1); an error of the run itself (exit 2 to 5) fails the
row instead of counting as a kill.  The rows run two at a time.

A statement no test runs is a mutant no test can kill, so one more test runs
tier-1 under a line tracer and names every statement of `src/nwgame` it never
reached.
"""

from __future__ import annotations

import ast
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import NamedTuple

import pytest

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "pyproject.toml", "README.md")
WORKERS = 2
# Each copy's tier-1 runs under this address-space cap (unmutated, it peaks near
# 85 MB), so a mutant that draws a plan without end, such as m18 on a budget of
# 2^64, fails with MemoryError instead of exhausting the host's memory
CAPPED_PYTEST = "import resource, sys, pytest; resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)); sys.exit(pytest.main(sys.argv[1:]))"


class Mutant(NamedTuple):
    id: str
    file: str  # relative to src/nwgame
    old: str
    new: str
    why: str
    equivalent: str | None = None  # the reason no test can tell it from the program


SCORE_KEY = "return (-weight * (3 * m) ** len(trace), len(trace), trace)"
DEFAULT_BIT = "default_bit = 1 if 2 * ones > total else 0"

MUTANTS = [
    Mutant("m01", "analysis.py", SCORE_KEY, "return (-weight * (3 * m) ** len(trace), -len(trace), trace)",
           "_score_key ties go to longer traces, not shorter ones"),
    Mutant("m02", "analysis.py", DEFAULT_BIT, "default_bit = 1 if 2 * ones >= total else 0",
           "build_predictor's ties and empty sets go to 1, not 0"),
    Mutant("m03", "hardcore.py", "map(k.__lt__, levels)", "map(k.__le__, levels)",
           "sweep reads D_k one stage off"),
    Mutant("m04", "analysis.py", "best = margins.index(max(margins))",
           "best = len(margins) - 1 - margins[::-1].index(max(margins))",
           "the assignment tie goes to the last fixing, not the lex-min one"),
    Mutant("m05", "analysis.py", "return Fraction(2**ell, 2 * (3 * m) ** c)", "return Fraction(2**ell, (3 * m) ** c)",
           "the failure ceiling loses its factor 2"),
    Mutant("m06", "game.py", "if witness:\n                    move(view, a, replies)",
           "if False:\n                    move(view, a, replies)",
           "witness mode drops its extra ask for the output"),
    Mutant("m07", "game.py", "else min(strategy.max_queries, inst.c)\n", "else strategy.max_queries\n",
           "the solve budget ignores c"),
    Mutant("m08", "analysis.py", "margins[prefix] -= count", "margins[prefix] -= 0",
           "margins ignore proper extensions"),
    Mutant("m09", "analysis.py", "return 1 - int(inst.b[trace[-1]])", "return int(inst.b[trace[-1]])",
           "the predictor bets b's bit instead of its complement"),
    Mutant("m10", "analysis.py", ">= 2 * self.w_size", "> 2 * self.w_size",
           "TraceCensus.bound_ok uses >, not README's >="),
    Mutant("m11", "analysis.py", SCORE_KEY,
           "return (-weight * (3 * m) ** len(trace), len(trace), tuple(-row for row in trace))",
           "_score_key breaks a same-length tie to the lexicographically largest trace, not the smallest"),
    Mutant("m12", "analysis.py", DEFAULT_BIT, "default_bit = 0 if 2 * ones > total else 1",
           "the predictor flips its default bit"),
    Mutant("m13", "cli.py", 'return EXIT_VALIDATION if report.get("ok") is False else EXIT_OK', "return EXIT_OK",
           'main ignores a report\'s "ok"'),
    Mutant("m14", "analysis.py", "if isinstance(move, int) and move == trace[-1]:", "if False:",
           "the predictor never bets, even when the student asks the final row"),
    Mutant("m15", "game.py", "known.append(row_seed(a, len(known)))", "known.append(row_seed(a, step))",
           "the seeded-random memo gives a skipped step the asked step's hash"),
    Mutant("m16", "game.py", "for step, row in reversed(list(enumerate(firsts))):", "for step, row in enumerate(firsts):",
           "a plan column keeps each input's last success, not its first"),
    Mutant("m17", "game.py", "translate(_DIFFERS[b[row]])", 'translate(_DIFFERS[ord("0")])',
           "a plan column ignores b's bit and succeeds on every hard bit 1"),
    Mutant("m18", "game.py", "islice(strategy.plan(m), budget)", "strategy.plan(m)",
           "a plan is drawn past the step budget, so its column is not cut to the solve budget min(max_queries, c)"),
    Mutant("m19", "analysis.py", '"proper": -1', '"proper": 0',
           "the assignment search scores a proper extension 0, so its margin is the exact count alone"),
    Mutant("m20", "game.py", "takewhile(lambda row: isinstance(row, int) and 0 <= row < m, ",
           "takewhile(range(m).__contains__, ",
           "a plan column takes 1.0 as row 1, where the game loop takes it for no row"),
    Mutant("m21", "hardcore.py", "row = stage_move(view if own_view else without, a, own)",
           "row = stage_move(view, a, own)",
           "the composite hands every stage its own view, so an unflagged stage may invert in a flagged composite"),
    Mutant("m22", "analysis.py", "min(strategy.max_queries, inst.c)", "strategy.max_queries",
           "build_predictor's budget check ignores c, so it accepts a trace the live game never finishes"),
    Mutant("m23", "game.py", "shift = offsets[row]", "shift = offsets[row - 1]",
           "a plan column reads its inputs at the previous row's slot"),
    Mutant("m24", "game.py", "packs = packs if span is None", "packs = inst._inputs[1][: len(packs)] if span is None",
           "a sample or predictor batch reads the first inputs' packs by position, not the packs of its own inputs"),
    Mutant("m25", "game.py", "inst.m < 256 and inst.ell <= EXHAUSTIVE_MAX_N:", "inst.m < 256:",
           "a plan on rows wider than the scan cap fills all 2^ell hard bits, where the game loop meets one per ask"),
    Mutant("m26", "game.py", "kept[0] = plan, column", "kept[0] = plan, column, inst",
           "the plan-column slot also holds its instance, a cycle that keeps every dropped instance alive until a collection"),
    Mutant("m27", "game.py", "(held := kept[0])[0] == plan", "(held := kept[0])[0] == tuple(strategy.plan(m))",
           "a scan compares the slot's plan with the plan drawn without the step budget's cut, so a solve scan reads a witness scan's column"),
    Mutant("m28", "analysis.py", "p >> shift & mask for p in packs", "p >> shifts[i - 1] & mask for p in packs",
           "a witness table reads its row's restrictions at the previous row's slot"),
    Mutant("m29", "analysis.py", 'check_bits(u, inst.ell, "predictor input"))]', 'check_bits(u, inst.ell, "predictor input")[::-1])]',
           "the predictor reads its group at the reversed u, so it replays another input of the fixing"),
    Mutant("m30", "game.py", "latest[-1] = replies", "latest.append(replies)",
           "a played game records every ask's reply prefix, about q^2/2 references for q answered queries"),
    Mutant("m31", "game.py", "kept[0] = plan, column", "kept[0] = (plan, column) if kept[0][0] is None else kept[0]",
           "the plan-column slot is never refilled, so every scan of a later plan rebuilds its column"),
    Mutant("m32", "hardcore.py", "stage.max_queries, stage.may_invert) for stage in stages)",
           "stage.max_queries, stage.may_invert or not any(s.may_invert for s in stages)) for stage in stages)",
           "with no flagged stage every stage gets the view driving the composite, so a flagged view lets an unflagged stage invert"),
    Mutant("m33", "game.py", "if budget > MAX_STEPS:", "if budget >= MAX_STEPS:",
           "a step budget of exactly MAX_STEPS is refused"),
    Mutant("m34", "game.py", "if not 1 <= size <= MAX_SAMPLE:", "if not 1 <= size < MAX_SAMPLE:",
           "a sample of exactly MAX_SAMPLE inputs is refused"),
    Mutant("r1", "analysis.py", "if inst.hard_bit.value(witness) != int(inst.b[expected]):", "if False:",
           "the predictor's replay goes on past a reply that disagrees with b, so it bets where the live game already stopped"),
    Mutant("r2", "analysis.py", "replies += (witness,)", "replies += (z,)",
           "the predictor replays the row's restriction as the reply, not its preimage"),
]


def _run(mutant: Mutant) -> subprocess.CompletedProcess:
    """Tier-1 on a copy of the checkout with the mutant applied."""
    with tempfile.TemporaryDirectory(prefix=f"mutant-{mutant.id}-") as tmp:
        copy = Path(tmp)
        for name in COPIED:
            source = ROOT / name
            if source.is_dir():
                shutil.copytree(source, copy / name, ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
            else:
                shutil.copy2(source, copy / name)
        target = copy / "src" / "nwgame" / mutant.file
        text = target.read_text()
        assert text.count(mutant.old) == 1, f"{mutant.id}: the old text occurs {text.count(mutant.old)} times"
        target.write_text(text.replace(mutant.old, mutant.new))
        env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        command = [sys.executable, "-c", CAPPED_PYTEST, "-x", "-q", "-p", "no:cacheprovider", "--hypothesis-seed=0", "tests"]
        return subprocess.run(command, cwd=copy, env=env, capture_output=True, text=True, timeout=600)


@pytest.fixture(scope="module")
def outcomes(request) -> dict[Mutant, subprocess.CompletedProcess]:
    """The run of each mutant pytest selected, WORKERS at a time."""
    params = [getattr(item, "callspec", None) for item in request.session.items]
    selected = [p.params["mutant"] for p in params if p is not None and "mutant" in p.params]
    with ThreadPoolExecutor(WORKERS) as pool:
        return dict(zip(selected, pool.map(_run, selected)))


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.id for m in MUTANTS])
def test_tier1_kills_the_mutant(outcomes, mutant):
    result = outcomes[mutant]
    tail = "\n".join(result.stdout.splitlines()[-15:] + result.stderr.splitlines()[-15:])
    assert result.returncode in (0, 1), f"{mutant.id}: tier-1 did not run (exit {result.returncode})\n{tail}"
    if mutant.equivalent is not None:
        assert mutant.equivalent.strip(), f"{mutant.id}: marked equivalent with no reason"
        return
    assert result.returncode == 1, f"{mutant.id} survived: {mutant.why}\n{tail}"


def test_readme_counts_the_faults():
    match = re.search(r"Its (\d+) faults", " ".join((ROOT / "README.md").read_text().split()))
    assert match and int(match.group(1)) == len(MUTANTS), "README's mutant sentence must name len(MUTANTS)"


# Runs pytest with the remaining arguments under a tracer that records each
# line executed in a frame of a file under argv[1], then writes them to argv[2]
TRACED_PYTEST = """
import json, sys
import pytest

src, out = sys.argv[1], sys.argv[2]
ran = set()

def line(frame, event, arg):
    if event == "line":
        ran.add((frame.f_code.co_filename, frame.f_lineno))
    return line

def call(frame, event, arg):
    return line if frame.f_code.co_filename.startswith(src) else None

sys.settrace(call)
code = pytest.main(sys.argv[3:])
sys.settrace(None)
with open(out, "w") as handle:
    json.dump(sorted(ran), handle)
sys.exit(code)
"""

# Statements tier-1 runs only in a child process (`python -m nwgame`), which
# the tracer does not follow: `__main__.py`'s two, and `cli.entrypoint`'s body
UNTRACED = {
    ("__main__.py", "from .cli import entrypoint"), ("__main__.py", "entrypoint()"),
    ("cli.py", "raise SystemExit(main())"),
}


def _unreached(path: Path, ran: set[int]) -> list[str]:
    """Each statement of the file with none of its lines in `ran`, as
    `file:line: source`, skipping docstrings and `global`/`nonlocal`, which
    compile to no code of their own, and the statements in UNTRACED."""
    tree = ast.parse(path.read_text())
    bodies = [node.body for node in ast.walk(tree) if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef))]
    docstrings = {
        id(body[0]) for body in bodies
        if isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant) and isinstance(body[0].value.value, str)
    }
    return [
        f"{path.name}:{node.lineno}: {ast.unparse(node).splitlines()[0]}"
        for node in ast.walk(tree)
        if isinstance(node, ast.stmt) and not isinstance(node, (ast.Global, ast.Nonlocal)) and id(node) not in docstrings
        and (path.name, ast.unparse(node)) not in UNTRACED and ran.isdisjoint(range(node.lineno, node.end_lineno + 1))
    ]


def test_tier1_runs_every_statement(tmp_path):
    src = ROOT / "src" / "nwgame"
    out = tmp_path / "ran.json"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    command = [sys.executable, "-c", TRACED_PYTEST, f"{src}{os.sep}", str(out),
               "-q", "-p", "no:cacheprovider", "--hypothesis-seed=0", "tests"]
    result = subprocess.run(command, cwd=ROOT, env=env, capture_output=True, text=True, timeout=1800)
    assert result.returncode == 0, "tier-1 failed under the tracer\n" + "\n".join(result.stdout.splitlines()[-15:])
    ran: dict[str, set[int]] = {}
    for filename, lineno in json.loads(out.read_text()):
        ran.setdefault(filename, set()).add(lineno)
    unreached = [line for path in sorted(src.glob("*.py")) for line in _unreached(path, ran.get(str(path), set()))]
    assert not unreached, "statements tier-1 never runs:\n" + "\n".join(unreached)
