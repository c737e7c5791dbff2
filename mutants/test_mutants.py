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
"""

from __future__ import annotations

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
    Mutant("m07", "game.py", "else min(strategy.max_queries, inst.c))", "else strategy.max_queries)",
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
    Mutant("m18", "game.py", "islice(strategy.plan(m), len(steps))", "strategy.plan(m)",
           "a plan is drawn past the step budget, so its column is not cut to the solve budget min(max_queries, c)"),
    Mutant("m19", "analysis.py", '"proper": -1', '"proper": 0',
           "the assignment search scores a proper extension 0, so its margin is the exact count alone"),
    Mutant("m20", "game.py", "takewhile(lambda row: isinstance(row, int) and 0 <= row < m, ",
           "takewhile(range(m).__contains__, ",
           "a plan column takes 1.0 as row 1, where the game loop takes it for no row"),
    Mutant("m21", "hardcore.py", "row = stage_move(view if own_view else view.without_invert, a, own)",
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
    Mutant("m26", "generator.py", "cached_property(lambda self: {})", "cached_property(lambda self: {None: [self]})",
           "the plan-column cache holds its instance, a cycle that keeps every dropped instance alive until a collection"),
    Mutant("m27", "game.py", "kept.get(plan)", "kept.get(tuple(strategy.plan(m)))",
           "a scan looks its kept column up by the plan drawn without the step budget's cut, so a solve scan reads a witness scan's column"),
    Mutant("m28", "analysis.py", "p >> shift & mask for p in packs", "p >> shifts[i - 1] & mask for p in packs",
           "a witness table reads its row's restrictions at the previous row's slot"),
    Mutant("m29", "analysis.py", 'check_bits(u, inst.ell, "predictor input"))]', 'check_bits(u, inst.ell, "predictor input")[::-1])]',
           "the predictor reads its group at the reversed u, so it replays another input of the fixing"),
    Mutant("m30", "game.py", "latest[-1] = replies", "latest.append(replies)",
           "a played game records every ask's reply prefix, about q^2/2 references for q answered queries"),
    Mutant("m31", "game.py", "kept.clear()", "pass",
           "an instance keeps one plan column per distinct plan ever scanned, with no bound"),
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
        command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "--hypothesis-seed=0", "tests"]
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
