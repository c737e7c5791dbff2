import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import nwgame
from nwgame import (
    Design,
    HardBit,
    Instance,
    Permutation,
    SearchExhausted,
    StudentFamily,
    build_polynomial_design,
    cli,
    compose,
    evaluate,
    extend_greedy,
    make_instance,
    strategy_from_spec,
    verify_design,
)
from nwgame.bits import bits_to_hex
from nwgame.design import POLYNOMIAL_MAX_ROWS
from nwgame.game import MAX_SAMPLE, MAX_STEPS
from nwgame.cli import (
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_SEARCH,
    EXIT_VALIDATION,
    main,
    run_experiment,
)


BUILT_FAMILIES = [(q, degree) for q in (2, 3, 4, 5, 7, 8, 9) for degree in range(1, q) if q ** (degree + 1) <= POLYNOMIAL_MAX_ROWS]


@settings(max_examples=25, deadline=None)
@given(family=st.sampled_from(BUILT_FAMILIES), extra=st.integers(0, 6), seed=st.integers(0, 1 << 32))
def test_every_design_that_design_build_emits_verifies(family, extra, seed):
    # nothing rechecks a built design before it is written: polynomial rows
    # share at most `degree` points, and extend_greedy appends only rows
    # that share at most d points with every row before them
    q, degree = family
    extend_to = q ** (degree + 1) + extra
    try:
        design = cli._design_from_config({"q": q, "degree": degree, "extend_to": extend_to}, seed)
    except SearchExhausted:
        return  # `design build` exits 4 and emits no design
    assert design.m == extend_to and verify_design(design).ok


@pytest.fixture()
def workspace(tmp_path):
    design = tmp_path / "design.json"
    assert main(
        [
            "design", "build", "--q", "2", "--degree", "1",
            "--extend-to", "5", "--seed", "0", "--out", str(design),
        ]
    ) == EXIT_OK
    instance = tmp_path / "instance.json"
    assert main(
        ["instance", "make", "--design", str(design), "--c", "1", "--out", str(instance)]
    ) == EXIT_OK
    return tmp_path, design, instance


def test_design_build_and_verify(workspace):
    tmp, design, _ = workspace
    data = json.loads(design.read_text())
    assert data["m"] == 5 and data["ell"] == 2
    assert main(["design", "verify", str(design)]) == EXIT_OK


def test_design_verify_rejects_broken(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"n": 4, "ell": 2, "d": 0, "sets": [[0, 1], [0, 2]]}))
    out = tmp_path / "report.json"
    assert main(["design", "verify", str(bad), "--out", str(out)]) == EXIT_VALIDATION
    assert json.loads(out.read_text())["ok"] is False


def test_instance_make_and_check(workspace):
    tmp, _, instance = workspace
    data = json.loads(instance.read_text())
    assert data["b_certified"] is True
    assert main(["instance", "check", str(instance)]) == EXIT_OK
    # strict mode trips on the relaxed d
    out = tmp / "checks.json"
    assert main(["instance", "check", str(instance), "--strict", "--out", str(out)]) == EXIT_VALIDATION
    assert json.loads(out.read_text())["ok"] is False


@pytest.mark.parametrize(
    "design, b, claimed, expected",
    [
        # ell past the bijection check's cap, and no b to certify
        (Design(n=14, ell=13, d=0, sets=(tuple(range(13)),)), None, False, {"bijection_ok": None, "b_off_range": None}),
        # n past the enumeration cap: b is left uncertified, and a claimed certificate is not trusted
        (Design(n=21, ell=2, d=0, sets=((0, 1),)), "1", False, {"bijection_ok": True, "b_off_range": None}),
        (Design(n=21, ell=2, d=0, sets=((0, 1),)), "1", True, {"bijection_ok": True, "b_off_range": None}),
    ],
    ids=["ell-13-without-b", "n-21", "n-21-claiming-a-certificate"],
)
def test_instance_check_skips_checks_past_their_caps(tmp_path, capsys, design, b, claimed, expected):
    path = tmp_path / "instance.json"
    inst = Instance(design, Permutation(ell=design.ell, kind="identity"), HardBit(), c=1, b=b, b_certified=claimed)
    path.write_text(json.dumps(inst.to_json_dict()))
    assert main(["instance", "check", str(path)]) == EXIT_OK
    checks = json.loads(capsys.readouterr().out)
    assert {key: checks[key] for key in expected} == expected and checks["ok"] is True
    # the loading subcommands read the file with no certificate
    assert cli._load_instance(str(path)).b_certified is False


def test_instance_check_exits_validation_on_a_broken_permutation(workspace, capsys, monkeypatch):
    tmp, design, _ = workspace
    instance = tmp / "table.json"
    assert main(["instance", "make", "--design", str(design), "--perm", "table", "--out", str(instance)]) == EXIT_OK
    post_init = Permutation.__post_init__

    def reversed_inverse(self):
        # a reversed inverse table undoes no point of a permutation of 4 points
        post_init(self)
        object.__setattr__(self, "_inverse", self._inverse[::-1])

    monkeypatch.setattr(Permutation, "__post_init__", reversed_inverse)
    assert main(["instance", "check", str(instance)]) == EXIT_VALIDATION
    checks = json.loads(capsys.readouterr().out)
    assert checks["bijection_ok"] is False and checks["ok"] is False


@pytest.fixture
def forged(tmp_path):
    """An n = m = 9 instance whose b is g(0^9), in the range, that still
    claims b_certified."""
    design, instance = tmp_path / "design.json", tmp_path / "forged.json"
    assert main(["design", "build", "--q", "3", "--degree", "1", "--out", str(design)]) == EXIT_OK
    assert main(["instance", "make", "--design", str(design), "--out", str(instance)]) == EXIT_OK
    data = json.loads(instance.read_text())
    data["b_hex"] = bits_to_hex(evaluate(Instance.from_json_dict(data), "0" * 9))
    instance.write_text(json.dumps(data))
    assert data["b_certified"] is True and len(data["design"]["sets"]) == 9
    return instance


def test_instance_check_reports_a_forged_certificate(forged, capsys):
    assert main(["instance", "check", str(forged)]) == EXIT_VALIDATION
    assert json.loads(capsys.readouterr().out)["b_off_range"] is False


@pytest.mark.parametrize(
    "argv",
    [
        ["game", "play", "--strategy", "round-robin:1", "--input", "0" * 9],
        ["analyze", "census", "--strategy", "round-robin:1"],
        ["hardcore", "extract", "--family", '["constant:0"]', "--k", "1"],
    ],
    ids=["game", "analyze", "hardcore"],
)
def test_loading_an_instance_rechecks_its_claimed_certificate(forged, capsys, monkeypatch, argv):
    def no_game(*args):
        raise AssertionError("a game was played")

    monkeypatch.setattr(nwgame.game, "_column", no_game)
    assert main([*argv, "--instance", str(forged)]) == EXIT_VALIDATION
    assert str(forged) in capsys.readouterr().err


def test_instance_make_rejects_in_range_b(workspace):
    tmp, design, _ = workspace
    code = main(
        ["instance", "make", "--design", str(design), "--c", "1", "--b", "00000"]
    )
    assert code == EXIT_VALIDATION


def test_game_play_and_witness(workspace, capsys):
    tmp, _, instance = workspace
    assert main(
        ["game", "play", "--instance", str(instance), "--strategy", "omniscient", "--input", "0110"]
    ) == EXIT_OK
    played = json.loads(capsys.readouterr().out)
    assert played["success"] is True
    assert main(
        [
            "game", "play", "--instance", str(instance), "--strategy",
            "round-robin:2", "--input", "0000", "--witness",
        ]
    ) == EXIT_OK
    witnessed = json.loads(capsys.readouterr().out)
    assert witnessed["defined"] is not None


def test_game_failureset(workspace, capsys):
    tmp, _, instance = workspace
    assert main(
        ["game", "failureset", "--instance", str(instance), "--strategy", "constant:0"]
    ) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["exhaustive"] is True
    assert report["failure_count"] + report["success_count"] == 16


def test_analyze_chain(workspace, capsys):
    tmp, _, instance = workspace
    for sub in ("census", "assignment", "reduce", "advantage"):
        assert main(
            ["analyze", sub, "--instance", str(instance), "--strategy", "omniscient"]
        ) == EXIT_OK
        json.loads(capsys.readouterr().out)


def test_analyze_assignment_without_a_successful_run(workspace, capsys):
    tmp, _, instance = workspace
    assert main(["analyze", "assignment", "--instance", str(instance), "--strategy", "constant:0:0"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out) == {"assignment": None, "reason": "no successful runs"}


def test_analyze_assignment_with_explicit_trace(workspace, capsys):
    tmp, _, instance = workspace
    assert main(
        [
            "analyze", "assignment", "--instance", str(instance),
            "--strategy", "omniscient", "--trace", "0",
        ]
    ) == EXIT_OK
    data = json.loads(capsys.readouterr().out)
    assert data["trace"] == [0]


def test_hardcore_cli(workspace, capsys, tmp_path):
    tmp, _, instance = workspace
    family = '[{"kind":"constant","row":0},{"kind":"round-robin","max_queries":2}]'
    assert main(
        ["hardcore", "extract", "--instance", str(instance), "--family", family, "--k", "2"]
    ) == EXIT_OK
    json.loads(capsys.readouterr().out)
    # the extraction reads the sweep to k, but names k when k is outside the family; the sweep names k_max
    for k in ("0", "3"):
        assert main(["hardcore", "extract", "--instance", str(instance), "--family", family, "--k", k]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"error: k must be in 1..2, got {k}\n"
        assert main(["hardcore", "sweep", "--instance", str(instance), "--family", family, "--k-max", k]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"error: k_max must be in 1..2, got {k}\n"
    with pytest.raises(ValueError, match=r"^k must be in 1\.\.2, got 0$"):
        compose(StudentFamily(tuple(map(strategy_from_spec, json.loads(family)))), 0)
    csv_path = tmp_path / "sweep.csv"
    assert main(
        [
            "hardcore", "sweep", "--instance", str(instance), "--family", family,
            "--k-max", "2", "--csv", str(csv_path),
        ]
    ) == EXIT_OK
    json.loads(capsys.readouterr().out)
    rows = csv_path.read_text().strip().splitlines()
    assert rows[0] == "k,size,bound,meets_bound"
    assert len(rows) == 3
    assert "/" in rows[1].split(",")[2]  # rationals stay exact in CSV
    # the report is written first, so a report that cannot be written leaves no CSV
    late_csv = tmp_path / "late.csv"
    assert main(
        [
            "hardcore", "sweep", "--instance", str(instance), "--family", family,
            "--k-max", "2", "--csv", str(late_csv), "--out", str(tmp_path / "missing" / "out.json"),
        ]
    ) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("error: ")
    assert not late_csv.exists()


def test_exit_code_config_error(tmp_path):
    missing = tmp_path / "nope.json"
    assert main(["design", "verify", str(missing)]) == EXIT_CONFIG
    assert main(["instance", "make", "--design", str(missing)]) == EXIT_CONFIG


def test_design_build_refuses_oversized_designs():
    assert main(["design", "build", "--q", "16", "--degree", "15"]) == EXIT_CONFIG


def test_exit_code_search_exhausted(tmp_path):
    # m=1 over a 2-bit input covers both 1-bit outputs: search must fail
    design = tmp_path / "tiny.json"
    design.write_text(json.dumps({"n": 2, "ell": 2, "d": 1, "sets": [[0, 1]]}))
    assert main(["instance", "make", "--design", str(design), "--c", "1"]) == EXIT_SEARCH


@pytest.mark.parametrize(
    "mode, message",
    [("lex-min", "generator is surjective; no off-range string exists"),
     ("seeded-random", "no off-range string found in 1000 seeded draws")],
    ids=["lex-min", "seeded-random"],
)
def test_zero_row_design_has_no_off_range_b(tmp_path, capsys, mode, message):
    # with no rows the generator maps onto the one 0-bit string: no b exists
    design = tmp_path / "empty.json"
    design.write_text(json.dumps({"n": 4, "ell": 2, "d": 1, "sets": []}))
    assert main(["instance", "make", "--design", str(design), "--b-mode", mode]) == EXIT_SEARCH
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("claimed", [False, True], ids=["unclaimed", "claimed"])
@pytest.mark.parametrize(
    "argv",
    [
        ["game", "failureset", "--strategy", "round-robin:1"],
        ["game", "play", "--strategy", "round-robin:1", "--input", "000"],
        ["analyze", "census", "--strategy", "seeded-random:1"],
        ["hardcore", "sweep", "--family", '["round-robin:1"]', "--k-max", "1"],
    ],
    ids=["game-failureset", "game-play", "analyze-census", "hardcore-sweep"],
)
def test_a_loaded_b_on_a_design_with_no_rows_is_in_range(tmp_path, capsys, monkeypatch, argv, claimed):
    # the generator's one output is the empty string, which is the only b
    instance = tmp_path / "empty.json"
    instance.write_text(json.dumps({
        "design": {"n": 3, "ell": 2, "d": 1, "sets": []}, "permutation": {"ell": 2, "kind": "identity"},
        "c": 1, "b_hex": "", "b_certified": claimed,
    }))

    def no_game(*args):
        raise AssertionError("a game was played")

    monkeypatch.setattr(nwgame.game, "_column", no_game)
    assert main([*argv, "--instance", str(instance)]) == EXIT_VALIDATION
    assert str(instance) in capsys.readouterr().err


def test_oversized_budgets_exit_config_before_any_game(workspace, capsys, monkeypatch):
    # a failure ceiling too long to print is refused before the first game
    tmp, _, instance = workspace
    config = tmp / "big-c.json"
    config.write_text(json.dumps({"c": 5000, "strategies": ["round-robin:2"], "analyses": ["reduce"]}))
    family = json.dumps(["constant:0"] * 70)

    def no_game(*args):
        raise AssertionError("a game was played")

    monkeypatch.setattr(nwgame.game, "_column", no_game)
    for argv, budget in (
        (["run", str(config)], "c=5000"),
        (["hardcore", "extract", "--instance", str(instance), "--family", family, "--k", "70"], "c=4900"),
        (["hardcore", "sweep", "--instance", str(instance), "--family", family, "--k-max", "70"], "c=4900"),
    ):
        assert main(argv) == EXIT_CONFIG
        assert budget in capsys.readouterr().err


def test_strategy_shorthand_rejects_garbage(workspace):
    tmp, _, instance = workspace
    code = main(
        ["game", "play", "--instance", str(instance), "--strategy", "psychic", "--input", "0000"]
    )
    assert code == EXIT_CONFIG


CONFIG = {
    "seed": 7,
    "c": 1,
    "design": {"q": 2, "degree": 1, "extend_to": 5},
    "permutation": {"kind": "table"},
    "hard_bit": "last-bit",
    "b": {"mode": "lex-min"},
    "strategies": [{"kind": "omniscient"}, {"kind": "constant", "row": 0}],
    "analyses": ["census", "assignment", "reduce", "failureset"],
    "hardcore": {
        "stages": [{"kind": "constant", "row": 0}, {"kind": "round-robin", "max_queries": 2}],
        "k": 2,
        "k_max": 2,
    },
}


def test_run_experiment_report_shape():
    report = run_experiment(CONFIG, jobs=1)
    assert report["schema"] == "nwgame-report/1"
    assert report["instance"]["b_certified"] is True
    omni = report["strategies"][0]
    assert omni["reduction"]["met"] is True
    assert "extract" in report["hardcore"] and "sweep" in report["hardcore"]


def test_run_cli_byte_identical_across_jobs(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(CONFIG))
    out1 = tmp_path / "r1.json"
    out4 = tmp_path / "r4.json"
    assert main(["run", str(config), "--jobs", "1", "--out", str(out1)]) == EXIT_OK
    assert main(["run", str(config), "--jobs", "4", "--out", str(out4)]) == EXIT_OK
    assert out1.read_bytes() == out4.read_bytes()


def test_run_seed_override_changes_report(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(CONFIG))
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    assert main(["run", str(config), "--seed", "7", "--out", str(out_a)]) == EXIT_OK
    assert main(["run", str(config), "--seed", "8", "--out", str(out_b)]) == EXIT_OK
    assert json.loads(out_a.read_text())["config"]["seed"] == 7
    assert json.loads(out_b.read_text())["config"]["seed"] == 8
    assert out_a.read_bytes() != out_b.read_bytes()


def test_run_rejects_unknown_analysis(tmp_path, capsys, monkeypatch):
    # refused when the config is read, before the instance is built, with or without strategies
    monkeypatch.setattr(cli, "_build_instance", lambda *args: pytest.fail("the instance was built"))
    config = tmp_path / "config.json"
    for strategies in (CONFIG["strategies"], []):
        config.write_text(json.dumps(dict(CONFIG, strategies=strategies, analyses=["census", "vibes"])))
        assert main(["run", str(config)]) == EXIT_CONFIG
        assert "unknown analyses ['vibes']" in capsys.readouterr().err


def test_run_reads_every_config_object_before_the_instance(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "_build_instance", lambda *args: pytest.fail("the instance was built"))
    config = tmp_path / "config.json"
    stage = {"kind": "constant", "row": 0, "qeries": 1}
    for bad, named in [
        (dict(CONFIG, permutation={"kind": "table", "sed": 4}), "sed"),
        (dict(CONFIG, b={"mode": "lex-min", "valu_hex": "3"}), "valu_hex"),
        (dict(CONFIG, strategies=[{"kind": "round-robin", "max_queries": 2, "strat": 1}]), "strat"),
        (dict(CONFIG, hardcore={"stages": [stage], "k": 1}), "qeries"),
    ]:
        config.write_text(json.dumps(bad))
        assert main(["run", str(config)]) == EXIT_CONFIG
        assert repr(named) in capsys.readouterr().err


def test_run_names_unknown_config_fields(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(dict(CONFIG, analysis=["failureset"], sed=3)))
    assert main(["run", str(config)]) == EXIT_CONFIG
    assert "unknown config fields ['analysis', 'sed']" in capsys.readouterr().err


def test_run_checks_the_permutation_ell_against_the_design(tmp_path, capsys):
    # the default design is q = 2: ell = 2; an ell far past the bijection cap is refused unenumerated
    config = tmp_path / "config.json"
    base = {"strategies": ["round-robin:2"]}
    for permutation in ({"kind": "table", "ell": 7}, {"kind": "identity", "ell": 10**6}):
        config.write_text(json.dumps(dict(base, permutation=permutation)))
        assert main(["run", str(config)]) == EXIT_CONFIG
        assert f"design ell=2 does not match permutation ell={permutation['ell']}" in capsys.readouterr().err
    plain = run_experiment(dict(base, permutation={"kind": "table"}))
    assert run_experiment(dict(base, permutation={"kind": "table", "ell": 2}))["instance"] == plain["instance"]


ROW_IS_A_LIST = {"kind": "constant", "row": [1]}


def _instance_with(**fields):
    """A bad input file: the workspace's instance with some fields replaced."""
    return lambda instance: dict(instance, **fields)


def _permutation_with(**fields):
    """The workspace's instance with some fields of its permutation replaced."""
    return lambda instance: dict(instance, permutation=dict(instance["permutation"], **fields))


ELL_IS_A_STRING = {"n": 6, "ell": "3", "d": 1, "sets": [[0, 1, 2], [0, 3, 4], [1, 3, 5], [2, 4, 5]]}

# past the interpreter's recursion limit: json.loads raises RecursionError
DEEP = "[" * 50_000 + "]" * 50_000

# hex that int(_, 16) reads as 31, a 5-bit value: m = 5 takes 2 plain digits
BAD_HEX = {"0x1f": "prefix", "1_f": "separator", " 1f\n": "whitespace", "+1f": "sign", "001f": "too-many-digits"}


@pytest.mark.parametrize(
    "args, config, named",
    [
        (["game", "failureset", "--strategy", "constant"], None, None),
        (["game", "failureset", "--strategy", "constant:0", "--sample", "-5"], None, None),
        (["run"], [CONFIG], None),
        (["run"], dict(CONFIG, strategies="abc"), None),
        (["run"], dict(CONFIG, design=5), None),
        (["run"], dict(CONFIG, seed=[1]), None),
        (["run"], dict(CONFIG, permutation=7), None),
        (["run"], dict(CONFIG, b=3), None),
        (["run"], dict(CONFIG, hardcore=3, strategies=[]), None),
        (["instance", "check"], _instance_with(c=[1]), None),
        (["instance", "check"], _instance_with(permutation=7), None),
        (["design", "verify"], {"n": 4, "ell": 2, "d": 1, "sets": 5}, None),
        (["analyze", "census", "--strategy", "omniscient", "--instance"], _instance_with(c=[1]), None),
        (["hardcore", "extract", "--family", '{"stages": 5}', "--k", "1"], None, None),
        (["analyze", "census", "--strategy", json.dumps(ROW_IS_A_LIST)], None, None),
        (["run"], dict(CONFIG, strategies=[ROW_IS_A_LIST]), None),
        (["hardcore", "extract", "--family", json.dumps([ROW_IS_A_LIST]), "--k", "1"], None, None),
        (["analyze", "census", "--strategy", '{"kind":"table","moves":5}'], None, None),
        (["run"], dict(CONFIG, b={"mode": "explicit", "value_hex": 5}), None),
        (["run"], dict(CONFIG, strict="no"), None),
        (["run"], dict(CONFIG, seed="7"), None),
        (["analyze", "assignment", "--strategy", "round-robin:2", "--trace", "99"], None, None),
        (["analyze", "assignment", "--strategy", "round-robin:2", "--trace", "-1"], None, None),
        (["analyze", "assignment", "--strategy", "round-robin:2", "--trace", "0,1,0"], None, None),
        (["instance", "check"], _instance_with(b_certified="no"), None),
        (["instance", "check"], _instance_with(c="2"), None),
        (["instance", "check"], _instance_with(c=2.5), None),
        (["instance", "check"], _permutation_with(seed="1"), None),
        (["design", "verify"], {"n": float("inf"), "ell": 2, "d": 1, "sets": [[0, 1]]}, None),
        (["run"], dict(CONFIG, design={"explicit": ELL_IS_A_STRING}), None),
        *[(["instance", "check"], _instance_with(b_hex=hx), None) for hx in BAD_HEX],
        *[(["run"], dict(CONFIG, b={"mode": "explicit", "value_hex": hx}), None) for hx in BAD_HEX],
        (["instance", "check"], _permutation_with(kind="feistel", rounds=300000), None),
        (["run"], dict(CONFIG, permutation={"kind": "feistel", "rounds": 300000}), None),
        (["instance", "check"], _permutation_with(kind="feistel", ell=64), None),
        (["run"], DEEP, None),
        (["instance", "check"], DEEP, None),
        (["design", "verify"], DEEP, None),
        (["game", "play", "--input", "0000", "--strategy", DEEP], None, None),
        (["hardcore", "extract", "--k", "1", "--family", DEEP], None, None),
        (["analyze", "census", "--strategy", "round-robin:-2"], None, None),
        (["analyze", "census", "--strategy", "constant:0:-1"], None, None),
        (["analyze", "census", "--strategy", "seeded-random:-1"], None, None),
        (["analyze", "census", "--strategy", '{"kind":"table","moves":{},"max_queries":-1}'], None, None),
        (["run"], dict(CONFIG, strategies=[{"kind": "round-robin", "max_queries": -1}]), None),
        (["run"], dict(CONFIG, design={"q": 2, "degree": 1, "extendto": 6}), "extendto"),
        (["run"], dict(CONFIG, design={"explicit": build_polynomial_design(2, 1).to_json_dict(), "q": 2}), "q"),
        (["run"], dict(CONFIG, permutation={"kind": "table", "sed": 4}), "sed"),
        (["run"], dict(CONFIG, b={"mode": "lex-min", "valu_hex": "3"}), "valu_hex"),
        (["run"], dict(CONFIG, b={"mode": "explicit"}), "value_hex"),
        (["run"], dict(CONFIG, b={"value_hex": "02"}), "value_hex"),
        (["run"], dict(CONFIG, hardcore={"stages": ["constant:0"], "kmax": 1}), "kmax"),
        (["analyze", "census", "--strategy", '{"kind": "round-robin", "max_queries": 2, "strat": 1}'], None, "strat"),
        (["hardcore", "extract", "--k", "1", "--family", '[{"kind":"constant","row":0,"qeries":1}]'], None, "qeries"),
        (["hardcore", "extract", "--k", "1", "--family", '{"stages": ["constant:0"], "k": 1}'], None, "k"),
        (["design", "verify"], lambda instance: dict(instance["design"], mm=4), "mm"),
        (["instance", "check"], _instance_with(b_hexx="02"), "b_hexx"),
        (["instance", "check"], _permutation_with(rnds=4), "rnds"),
        (["analyze", "census", "--strategy", '{"kind":"table","moves":{"01x":[1],"0101010":[0]}}'], None, "01x"),
        (["analyze", "census", "--strategy", '{"kind":"table","moves":{"0101010":[0]}}'], None, "0101010"),
        (["hardcore", "sweep", "--k-max", "1", "--family", '[{"kind":"table","moves":{"01010":[0]}}]'], None, "01010"),
        (["game", "failureset", "--strategy", "round-robin:2", "--instance"],
         _instance_with(design={"n": 15, "ell": 2, "d": 0, "sets": [[0, 1]]}, b_hex="1", b_certified=False), None),
        (["instance", "check"], _instance_with(b_hex=None), None),
        (["game", "play", "--strategy", "round-robin:2", "--input", "0000", "--instance"],
         _instance_with(b_hex=None), None),
    ],
    ids=[
        "shorthand-missing-row", "negative-sample", "config-is-a-list", "strategies-is-a-string",
        "design-is-a-number", "seed-is-a-list", "permutation-is-a-number", "b-is-a-number",
        "hardcore-is-a-number", "instance-c-is-a-list", "instance-permutation-is-a-number",
        "design-sets-is-a-number", "census-on-bad-instance", "family-stages-is-a-number",
        "strategy-row-is-a-list", "config-strategy-row-is-a-list", "family-stage-row-is-a-list",
        "table-moves-is-a-number", "value-hex-is-a-number", "strict-is-a-string", "seed-is-a-string",
        "trace-row-past-m", "trace-row-negative", "trace-final-row-repeated",
        "b-certified-is-a-string", "instance-c-is-a-string",
        "instance-c-is-a-float", "permutation-seed-is-a-string", "design-n-is-infinity",
        "explicit-design-ell-is-a-string",
        *[f"b-hex-{name}" for name in BAD_HEX.values()],
        *[f"value-hex-{name}" for name in BAD_HEX.values()],
        "instance-feistel-rounds-300000", "config-feistel-rounds-300000", "instance-feistel-ell-64",
        "config-nested-too-deep", "instance-nested-too-deep", "design-nested-too-deep",
        "inline-strategy-nested-too-deep", "inline-family-nested-too-deep",
        "round-robin-negative-budget", "constant-negative-budget", "seeded-random-negative-budget",
        "table-negative-budget", "config-strategy-negative-budget",
        "config-design-misspelled", "config-design-explicit-and-q", "config-permutation-misspelled",
        "config-b-misspelled", "config-b-explicit-without-value", "config-b-value-without-explicit",
        "config-hardcore-misspelled", "strategy-misspelled", "family-stage-misspelled", "family-object-misspelled",
        "design-file-misspelled", "instance-file-misspelled", "instance-permutation-misspelled",
        "table-key-not-bits", "table-key-wider-than-n", "family-table-key-wider-than-n",
        "exhaustive-failureset-past-the-scan-cap",
        "instance-check-certified-without-b", "game-play-certified-without-b",
    ],
)
def test_bad_input_exits_config(workspace, capsys, args, config, named):
    tmp, _, instance = workspace
    if config is None:
        argv = [*args, "--instance", str(instance)]
    else:
        if callable(config):
            config = config(json.loads(instance.read_text()))
        path = tmp / "config.json"
        path.write_text(config if isinstance(config, str) else json.dumps(config))
        argv = [*args, str(path)]
    assert main(argv) == EXIT_CONFIG
    if named is not None:  # a misspelled or missing field is named
        assert repr(named) in capsys.readouterr().err


@pytest.mark.parametrize(
    "args, c, cap",
    [
        (["game", "play", "--witness", "--input", "0110", "--strategy", f"constant:0:{MAX_STEPS + 1}"], 1, "MAX_STEPS"),
        (["game", "play", "--input", "0110", "--strategy", f"round-robin:{MAX_STEPS + 1}"], MAX_STEPS + 1, "MAX_STEPS"),
        (["analyze", "census", "--strategy", f"seeded-random:{MAX_STEPS + 1}"], MAX_STEPS + 1, "MAX_STEPS"),
        (["game", "failureset", "--strategy", "constant:0", "--sample", str(MAX_SAMPLE + 1)], 1, "MAX_SAMPLE"),
        (["game", "play", "--witness", "--input", "0110", "--strategy", f"constant:0:{1 << 64}"], 1, "MAX_STEPS"),
        (["game", "play", "--input", "0110", "--strategy", f"round-robin:{1 << 64}"], 1 << 64, "MAX_STEPS"),
    ],
    ids=[
        "witness-budget-past-the-cap", "solve-budget-past-the-cap", "census-budget-past-the-cap", "sample-past-the-cap",
        "witness-budget-2^64", "solve-budget-2^64",
    ],
)
def test_step_and_sample_caps_exit_config(workspace, capsys, args, c, cap):
    # a witness budget is max_queries, a solve budget min(max_queries, c)
    tmp, _, instance = workspace
    path = tmp / "wide.json"
    path.write_text(json.dumps(dict(json.loads(instance.read_text()), c=c)))
    assert main([*args, "--instance", str(path), "--out", str(tmp / "out.json")]) == EXIT_CONFIG
    assert cap in capsys.readouterr().err
    assert not (tmp / "out.json").exists()


@pytest.mark.parametrize("position", [4, -1], ids=["position-past-n", "position-negative"])
@pytest.mark.parametrize(
    "args",
    [
        ["instance", "check"],
        ["analyze", "census", "--strategy", "omniscient", "--instance"],
        ["game", "play", "--strategy", "omniscient", "--input", "0110", "--instance"],
        ["hardcore", "extract", "--family", '[{"kind":"constant","row":0}]', "--k", "1", "--instance"],
    ],
    ids=["instance-check", "analyze-census", "game-play", "hardcore-extract"],
)
def test_invalid_design_exits_validation(workspace, capsys, args, position):
    tmp, _, instance = workspace
    data = json.loads(instance.read_text())
    row = data["design"]["sets"][0]
    row[-1 if position > 0 else 0] = position
    path = tmp / "invalid.json"
    path.write_text(json.dumps(data))
    capsys.readouterr()
    assert main([*args, str(path)]) == EXIT_VALIDATION
    out, err = capsys.readouterr()
    assert out == ""
    assert "range at row 0" in err


def test_subcommand_sections_match_run_report(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(CONFIG))
    assert main(["run", str(config)]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    instance = tmp_path / "instance.json"
    instance.write_text(json.dumps(report["instance"]))

    def section(*args):
        assert main([*args, "--instance", str(instance)]) == EXIT_OK
        return json.loads(capsys.readouterr().out)

    for entry in report["strategies"]:
        strategy = json.dumps(entry["spec"])
        assert section("analyze", "census", "--strategy", strategy) == entry["census"]
        assignment = entry["assignment"] or {"assignment": None, "reason": "no successful runs"}
        assert section("analyze", "assignment", "--strategy", strategy) == assignment
        assert section("analyze", "reduce", "--strategy", strategy) == entry["reduction"]
        assert section("game", "failureset", "--strategy", strategy) == entry["failures"]
    family = json.dumps(CONFIG["hardcore"]["stages"])
    hc = report["hardcore"]
    assert section("hardcore", "extract", "--family", family, "--k", "2") == hc["extract"]
    assert section("hardcore", "sweep", "--family", family, "--k-max", "2") == {"sweep": hc["sweep"]}


def test_run_strict_flag(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(CONFIG))
    # the reference-style design violates the strict d requirement
    assert main(["run", str(config), "--strict", "--out", str(tmp_path / "x.json")]) == EXIT_VALIDATION


def test_instance_make_and_run_share_the_instance_checks(workspace, monkeypatch):
    tmp, design, _ = workspace
    config = tmp / "config.json"
    config.write_text(json.dumps(CONFIG))
    monkeypatch.setattr(cli, "check_bijection", lambda h: False)
    assert main(["instance", "make", "--design", str(design)]) == EXIT_VALIDATION
    assert main(["run", str(config)]) == EXIT_VALIDATION


def _json_paths(value, path=()):
    """The path to value and to everything nested in it."""
    yield path
    children = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, child in children:
        yield from _json_paths(child, (*path, key))


# every field of CONFIG, nested ones and list entries included, plus
# optional fields CONFIG leaves out
FUZZ_PATHS = sorted(
    {*_json_paths(CONFIG)} - {()}
    | {("strict",), ("permutation", "seed"), ("permutation", "rounds"), ("b", "value_hex"),
       ("strategies", 0, "name"), ("strategies", 1, "queries"), ("strategies", 1, "output"),
       ("hardcore", "stages", 1, "start")},
    key=repr,
)
JSON_VALUES = st.one_of(
    st.integers(-2, 3),
    st.floats(allow_nan=False, allow_infinity=False),
    st.booleans(),
    st.text(max_size=4),
    st.lists(st.integers(-2, 3), max_size=2),
    st.dictionaries(st.text(max_size=3), st.integers(-2, 3), max_size=2),
    st.none(),
)


@settings(max_examples=150, deadline=None)
@given(path=st.sampled_from(FUZZ_PATHS), value=JSON_VALUES)
def test_run_never_raises_on_a_wrong_typed_field(tmp_path_factory, path, value):
    config = json.loads(json.dumps(CONFIG))
    parent = config
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    config_path = tmp_path_factory.mktemp("fuzz") / "config.json"
    config_path.write_text(json.dumps(config))
    assert main(["run", str(config_path), "--out", os.devnull]) in (EXIT_OK, EXIT_CONFIG, EXIT_VALIDATION, EXIT_SEARCH)


# A valid design file, instance file and explicit-design run config; the
# feistel permutation gives the instance every permutation field.
ARTIFACT_DESIGN = extend_greedy(build_polynomial_design(2, 1), 5, 0)
ARTIFACT_FAMILY = '[{"kind":"constant","row":0},{"kind":"round-robin","max_queries":2}]'
ARTIFACTS = {
    "design": (ARTIFACT_DESIGN.to_json_dict(), [["design", "verify"], ["instance", "make", "--design"]]),
    "instance": (
        make_instance(ARTIFACT_DESIGN, Permutation(ell=2, kind="feistel", seed=1), HardBit(), 1).to_json_dict(),
        [
            ["instance", "check"],
            ["analyze", "census", "--strategy", "round-robin:2", "--instance"],
            ["hardcore", "extract", "--family", ARTIFACT_FAMILY, "--k", "1", "--instance"],
        ],
    ),
    "run": (
        {"design": {"explicit": ARTIFACT_DESIGN.to_json_dict()}, "strategies": ["round-robin:2"]},
        [["run"]],
    ),
}
# every nested field of each artifact; in the run config, those of its design
ARTIFACT_PATHS = sorted(
    (
        (name, path)
        for name, (data, _) in ARTIFACTS.items()
        for path in _json_paths(data)
        if path and (name != "run" or path[:1] == ("design",))
    ),
    key=repr,
)
ARTIFACT_VALUES = st.one_of(
    st.integers(-2, 5),
    st.floats(),
    st.booleans(),
    st.integers(-2, 5).map(str),
    st.text(max_size=4),
    st.lists(st.integers(-2, 3), max_size=2),
    st.dictionaries(st.text(max_size=3), st.integers(-2, 3), max_size=2),
    st.none(),
)


@settings(max_examples=200, deadline=None)
@given(case=st.sampled_from(ARTIFACT_PATHS), value=ARTIFACT_VALUES)
@example(case=("design", ("n",)), value=float("inf"))
@example(case=("instance", ("design", "n")), value=float("-inf"))
@example(case=("run", ("design", "explicit", "n")), value=float("inf"))
def test_artifact_files_never_raise_on_a_wrong_typed_field(tmp_path_factory, case, value):
    name, path = case
    data = json.loads(json.dumps(ARTIFACTS[name][0]))
    parent = data
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    file = tmp_path_factory.mktemp("fuzz") / f"{name}.json"
    file.write_text(json.dumps(data))
    for args in ARTIFACTS[name][1]:
        code = main([*args, str(file), "--out", os.devnull])
        assert code in (EXIT_OK, EXIT_CONFIG, EXIT_VALIDATION, EXIT_SEARCH), (args, code)


# One valid argv for every subcommand, over the files ARGV_FILES writes into
# the working directory; every token after the command names that is not a
# flag is a value the fuzz may replace.
ARGV_INSTANCE = make_instance(ARTIFACT_DESIGN, Permutation(ell=2, kind="table", seed=1), HardBit(), 2)
ARGV_FILES = {
    "design.json": ARTIFACT_DESIGN.to_json_dict(),
    "instance.json": ARGV_INSTANCE.to_json_dict(),
    "family.json": json.loads(ARTIFACT_FAMILY),
    "config.json": {"design": {"explicit": ARTIFACT_DESIGN.to_json_dict()}, "strategies": ["round-robin:2"]},
}
SUBCOMMAND_ARGVS = [
    ["design", "build", "--q", "2", "--degree", "1", "--extend-to", "5", "--seed", "0"],
    ["design", "verify", "design.json"],
    [
        "instance", "make", "--design", "design.json", "--perm", "table", "--perm-seed", "1", "--rounds", "4",
        "--hard-bit", "parity", "--c", "2", "--b", ARGV_INSTANCE.b, "--b-mode", "seeded-random", "--seed", "1",
    ],
    ["instance", "check", "instance.json"],
    ["game", "play", "--instance", "instance.json", "--strategy", "round-robin:2", "--input", "0101"],
    ["game", "failureset", "--instance", "instance.json", "--strategy", "constant:0", "--sample", "8",
     "--sample-seed", "1", "--jobs", "2"],
    ["analyze", "census", "--instance", "instance.json", "--strategy", "seeded-random:2:1", "--jobs", "2"],
    ["analyze", "assignment", "--instance", "instance.json", "--strategy", "round-robin:2", "--trace", "0,1"],
    ["analyze", "reduce", "--instance", "instance.json", "--strategy", '{"kind": "constant", "row": 1}'],
    ["analyze", "advantage", "--instance", "instance.json", "--strategy", "round-robin:2"],
    ["hardcore", "extract", "--instance", "instance.json", "--family", "family.json", "--k", "2"],
    ["hardcore", "sweep", "--instance", "instance.json", "--family", ARTIFACT_FAMILY, "--k-max", "2",
     "--csv", "sweep.csv"],
    ["run", "config.json", "--seed", "1", "--jobs", "2"],
]
SUBCOMMAND_ARGVS = [[*argv, "--out", "out.json"] for argv in SUBCOMMAND_ARGVS]
ARGV_VALUES = [
    (argv, i)
    for argv in SUBCOMMAND_ARGVS
    for i in range(1 if argv[0] == "run" else 2, len(argv))
    if not argv[i].startswith("--")
]
ARGV_TOKENS = st.one_of(
    st.integers(-3, 12).map(str),
    st.text(max_size=5),
    st.sampled_from(
        ["", "-", "1e3", "0x1f", "nan", "{", "[]", "{}", "[1]", '{"kind": 1}', "0,0", ",", ".", "missing.json",
         *ARGV_FILES, "constant:9", "omniscient", "table:1", f"constant:0:{MAX_STEPS + 1}", f"constant:0:{1 << 64}",
         str(MAX_SAMPLE + 1)]
    ),
)


def _exit_code(argv):
    try:
        return main(argv)
    except SystemExit as exc:  # argparse rejects a malformed flag with 2
        return exc.code


def test_every_subcommand_argv_is_valid(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for name, data in ARGV_FILES.items():
        (tmp_path / name).write_text(json.dumps(data))
    for argv in SUBCOMMAND_ARGVS:
        (tmp_path / "out.json").unlink(missing_ok=True)
        assert _exit_code(argv) == EXIT_OK, argv
        json.loads((tmp_path / "out.json").read_text())


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_jobs_below_one_exits_config(tmp_path, monkeypatch, capsys, jobs):
    # every subcommand that takes --jobs refuses a count below 1 and names the flag
    monkeypatch.chdir(tmp_path)
    for name, data in ARGV_FILES.items():
        (tmp_path / name).write_text(json.dumps(data))
    argvs = [argv for argv in SUBCOMMAND_ARGVS if argv[0] in ("analyze", "hardcore", "run") or argv[1] == "failureset"]
    assert len(argvs) == 8
    for argv in argvs:
        assert _exit_code([*argv, "--jobs", jobs]) == EXIT_CONFIG, argv
        assert f"argument --jobs: must be at least 1, got {jobs}" in capsys.readouterr().err
        assert not (tmp_path / "out.json").exists()


def test_trace_that_is_not_rows_exits_config(workspace, capsys):
    # --trace is read by argparse, so an error names the flag
    tmp, _, instance = workspace
    argv = ["analyze", "assignment", "--instance", str(instance), "--strategy", "round-robin:2", "--trace", "1,x"]
    assert _exit_code(argv) == EXIT_CONFIG
    assert "argument --trace: invalid row list: '1,x'" in capsys.readouterr().err


@settings(max_examples=300, deadline=None)
@given(case=st.sampled_from(ARGV_VALUES), token=ARGV_TOKENS)
def test_subcommands_never_raise_on_a_bad_argument(tmp_path_factory, case, token):
    argv, i = case
    workdir = tmp_path_factory.mktemp("argv")
    for name, data in ARGV_FILES.items():
        (workdir / name).write_text(json.dumps(data))
    with pytest.MonkeyPatch.context() as patch:
        patch.chdir(workdir)
        code = _exit_code([*argv[:i], token, *argv[i + 1 :]])
    assert code in (EXIT_OK, EXIT_CONFIG, EXIT_VALIDATION, EXIT_SEARCH), (argv[:2], argv[i - 1], token, code)


def test_module_entry_point_exit_codes(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(Path(nwgame.__file__).parents[1])}

    def nwgame_cli(*args):
        return subprocess.run(
            [sys.executable, "-m", "nwgame", *args], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60
        )

    good = nwgame_cli("design", "build", "--q", "2", "--degree", "1")
    assert good.returncode == EXIT_OK and json.loads(good.stdout)["m"] == 4
    bad = nwgame_cli("design", "build", "--q", "two", "--degree", "1")
    assert bad.returncode == EXIT_CONFIG
    assert "Traceback" not in bad.stderr
