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
    Mutant("m09", "analysis.py", "return 1 - int(inst.b[expected])", "return int(inst.b[expected])",
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
