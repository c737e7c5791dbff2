"""Golden corpus: a fixed list of CLI commands run in-process through
`cli.main`, each hashed from its exit code, stdout, stderr and every
`--out`/`--csv` file it writes, and compared with `tests/golden.json`.

The commands build their own design and instance files in a temporary
directory, in list order; its path is replaced by `<tmp>` before hashing.
A change that keeps every report byte leaves `golden.json` as it is.  A
change that alters output on purpose re-records it by running this module:

    python tests/test_golden.py

and names the entries that changed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden.json"
if __name__ == "__main__":  # recording from a checkout reads the package in src/
    sys.path.insert(0, str(HERE.parent / "src"))

from nwgame.cli import main  # noqa: E402

TMP = "<tmp>"

STAGES = [{"kind": "constant", "row": 0, "queries": 1}, "round-robin:2", "seeded-random:3:1"]
TABLE = {"kind": "table", "moves": {"0000": [0, 1], "0110": [2], "1011": [4, 3, 1], "1111": [1]}, "name": "scripted"}
STRATEGIES = [
    "constant:1", {"kind": "constant", "row": 0, "queries": 0, "output": "x"}, "round-robin:2:1",
    {"kind": "seeded-random", "max_queries": 2, "seed": 9}, "omniscient",
]

# files written before the first command
INPUTS = {
    "broken-design.json": {"n": 4, "ell": 2, "d": 0, "sets": [[0, 1], [0, 2]]},
    "family.json": {"stages": STAGES},
    "table.json": TABLE,
    "run-all.json": {
        "seed": 7, "c": 2, "design": {"q": 3, "degree": 1, "extend_to": 11},
        "permutation": {"kind": "table"}, "hard_bit": "parity", "strategies": STRATEGIES,
        "analyses": ["census", "assignment", "reduce", "failureset"],
        "hardcore": {"stages": STAGES, "k": 2, "k_max": 3},
    },
    "run-feistel.json": {
        "seed": 3, "c": 2, "design": {"q": 2, "degree": 1, "extend_to": 6}, "permutation": {"kind": "feistel"},
        "b": {"mode": "seeded-random"}, "strategies": [TABLE, "round-robin:2"], "analyses": ["assignment", "reduce"],
    },
    "run-explicit-b.json": {
        "design": {"explicit": {"n": 4, "ell": 2, "d": 1, "sets": [[0, 2], [1, 3], [0, 3], [1, 2], [2, 3]]}},
        "b": {"mode": "explicit", "value_hex": "03"}, "strategies": ["omniscient"], "analyses": ["failureset"],
    },
    "run-misspelled.json": {"design": {"q": 2, "degree": 1, "extendto": 6}},
}

# (name, argv); "<tmp>" stands for the temporary directory
CASES = [
    ("design-build-q3", ["design", "build", "--q", "3", "--degree", "1", "--out", "<tmp>/d3.json"]),
    ("design-build-q3-extend", ["design", "build", "--q", "3", "--degree", "1", "--extend-to", "11", "--seed", "4",
                                "--out", "<tmp>/d3x.json"]),
    ("design-build-q4", ["design", "build", "--q", "4", "--degree", "1"]),
    ("design-build-q4-degree2", ["design", "build", "--q", "4", "--degree", "2"]),
    ("design-build-q2-extend", ["design", "build", "--q", "2", "--degree", "1", "--extend-to", "5",
                                "--out", "<tmp>/d2.json"]),
    ("design-build-exhausted", ["design", "build", "--q", "2", "--degree", "1", "--extend-to", "7"]),
    ("design-verify", ["design", "verify", "<tmp>/d3x.json"]),
    ("design-verify-broken", ["design", "verify", "<tmp>/broken-design.json"]),
    ("instance-make-identity", ["instance", "make", "--design", "<tmp>/d2.json", "--out", "<tmp>/i2.json"]),
    ("instance-make-table-parity", ["instance", "make", "--design", "<tmp>/d3.json", "--perm", "table",
                                    "--perm-seed", "5", "--hard-bit", "parity", "--c", "2", "--out", "<tmp>/i3.json"]),
    ("instance-make-feistel", ["instance", "make", "--design", "<tmp>/d2.json", "--perm", "feistel",
                               "--perm-seed", "3", "--c", "2", "--out", "<tmp>/i2f.json"]),
    ("instance-make-seeded-b", ["instance", "make", "--design", "<tmp>/d3x.json", "--perm", "table",
                                "--b-mode", "seeded-random", "--seed", "7", "--c", "2", "--out", "<tmp>/i3x.json"]),
    ("instance-make-explicit-b", ["instance", "make", "--design", "<tmp>/d2.json", "--b", "10110"]),
    ("instance-make-in-range-b", ["instance", "make", "--design", "<tmp>/d2.json", "--b", "00000"]),
    ("instance-make-strict", ["instance", "make", "--design", "<tmp>/d2.json", "--strict"]),
    ("instance-check", ["instance", "check", "<tmp>/i3x.json"]),
    ("instance-check-strict", ["instance", "check", "<tmp>/i2.json", "--strict"]),
    ("game-play", ["game", "play", "--instance", "<tmp>/i3.json", "--strategy", "round-robin:2",
                   "--input", "101100111"]),
    ("game-play-witness", ["game", "play", "--instance", "<tmp>/i3.json", "--strategy", "round-robin:2",
                           "--input", "101100111", "--witness", "--out", "<tmp>/play.json"]),
    ("game-failureset", ["game", "failureset", "--instance", "<tmp>/i3.json", "--strategy", "seeded-random:2:4",
                         "--out", "<tmp>/failures.json"]),
    ("game-failureset-sample", ["game", "failureset", "--instance", "<tmp>/i3x.json", "--strategy", "round-robin:2",
                                "--sample", "40", "--sample-seed", "2"]),
    ("analyze-census-omniscient", ["analyze", "census", "--instance", "<tmp>/i3.json", "--strategy", "omniscient"]),
    ("analyze-census-table", ["analyze", "census", "--instance", "<tmp>/i2.json", "--strategy", "<tmp>/table.json"]),
    ("analyze-census-constant", ["analyze", "census", "--instance", "<tmp>/i2f.json", "--strategy", "constant:3:2"]),
    ("analyze-assignment", ["analyze", "assignment", "--instance", "<tmp>/i3x.json", "--strategy", "round-robin:2"]),
    ("analyze-assignment-trace", ["analyze", "assignment", "--instance", "<tmp>/i3.json",
                                  "--strategy", "seeded-random:2:4", "--trace", "3,0"]),
    ("analyze-assignment-none", ["analyze", "assignment", "--instance", "<tmp>/i2.json", "--strategy", "constant:0:0"]),
    ("analyze-reduce", ["analyze", "reduce", "--instance", "<tmp>/i2f.json", "--strategy", "round-robin:2"]),
    ("analyze-advantage", ["analyze", "advantage", "--instance", "<tmp>/i3x.json", "--strategy", "round-robin:2:5"]),
    ("hardcore-extract", ["hardcore", "extract", "--instance", "<tmp>/i2f.json", "--family", "<tmp>/family.json",
                          "--k", "2"]),
    ("hardcore-sweep", ["hardcore", "sweep", "--instance", "<tmp>/i3x.json", "--family", json.dumps(STAGES),
                        "--k-max", "3", "--csv", "<tmp>/sweep.csv", "--out", "<tmp>/sweep.json", "--jobs", "2"]),
    ("run-all", ["run", "<tmp>/run-all.json", "--out", "<tmp>/report.json"]),
    ("run-feistel-seed-override", ["run", "<tmp>/run-feistel.json", "--seed", "5"]),
    ("run-explicit-b", ["run", "<tmp>/run-explicit-b.json"]),
    ("run-misspelled", ["run", "<tmp>/run-misspelled.json"]),
]


def run_case(argv: list[str], tmp: Path) -> dict:
    """The case's exit code and the sha256 of everything it printed or wrote."""
    where = str(tmp)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = main([token.replace(TMP, where) for token in argv])
        except SystemExit as exc:
            code = exc.code
    files = {}
    for flag, path in zip(argv, argv[1:]):
        if flag in ("--out", "--csv"):
            written = Path(path.replace(TMP, where))
            files[path] = written.read_text() if written.exists() else None
    seen = json.dumps({"stdout": stdout.getvalue(), "stderr": stderr.getvalue(), "files": files}, sort_keys=True)
    return {"exit": code, "sha256": hashlib.sha256(seen.replace(where, TMP).encode()).hexdigest()}


def run_corpus(tmp: Path) -> dict[str, dict]:
    for name, data in INPUTS.items():
        (tmp / name).write_text(json.dumps(data))
    return {name: run_case(argv, tmp) for name, argv in CASES}


@pytest.fixture(scope="module")
def corpus(tmp_path_factory) -> dict[str, dict]:
    return run_corpus(tmp_path_factory.mktemp("golden"))


def test_golden_names_every_case():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(name for name, _ in CASES)


@pytest.mark.parametrize("name", [name for name, _ in CASES])
def test_golden_case(corpus, name):
    assert corpus[name] == json.loads(GOLDEN.read_text())[name]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        recorded = run_corpus(Path(tmp))
    GOLDEN.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(recorded)} cases in {GOLDEN}")
