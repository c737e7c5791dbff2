"""Command-line workbench.

Subcommands build designs and instances, play single games, run the
census/assignment/reduction analyses, extract hardcore sets, and execute a
whole experiment config reproducibly.  All reports are JSON with sorted
keys; rationals appear as {"num", "den"} pairs.  Exit codes: 0 ok, 2 bad
config or arguments, 3 validation failure, 4 infeasible search.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from typing import Any

from . import analysis, hardcore
from .bits import check_bits, hex_to_bits
from .crypto import DEFAULT_ROUNDS, HARD_BIT_KINDS, PERMUTATION_KINDS, HardBit, Permutation, check_bijection
from .design import Design, build_polynomial_design, extend_greedy, require_valid, verify_design
from .errors import ABSENT, REQUIRED, SearchExhausted, ValidationError, json_object, json_value
from .game import StudentStrategy, evaluate_partial, failure_set, play, strategy_from_spec
from .generator import (
    ENUMERATION_MAX_N,
    OFF_RANGE_MODES,
    Instance,
    certify_off_range,
    make_instance,
    strict_violations,
)
from .seeds import derive_seed

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_VALIDATION = 3
EXIT_SEARCH = 4

BIJECTION_CHECK_MAX_ELL = 12
SCHEMA = "nwgame-report/1"

# The run config's fields; a config without "hardcore" has no hardcore section
CONFIG_FIELDS = {
    "seed": (int, 0), "c": (int, 1), "strict": (bool, False), "hard_bit": (str, "last-bit"),
    "design": (dict, {"q": 2, "degree": 1}), "permutation": (dict, {"kind": "identity"}),
    "b": (dict, {"mode": "lex-min"}), "strategies": (list, []), "analyses": (list, ["census"]),
    "hardcore": (dict, ABSENT),
}
HARDCORE_FIELDS = {"stages": (list, REQUIRED), "k": (int, None), "k_max": (int, None)}
ANALYSES = ("census", "assignment", "reduce", "failureset")


def _dump(payload: dict, out: str | None) -> None:
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w") as handle:
            handle.write(text)


def _parse_json(text: str, what: str) -> Any:
    """json.loads, with nesting past the interpreter's recursion limit
    refused as bad input."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError(f"{what} is nested too deeply to read") from None


def _load_json(path: str) -> Any:
    with open(path) as handle:
        return _parse_json(handle.read(), path)


def _load_instance(path: str) -> Instance:
    return Instance.from_json_dict(_load_json(path))


def _json_arg(text: str) -> Any:
    """A --strategy or --family argument: inline JSON ({...} or [...]) or a
    path to a .json file.  Other text, the strategy shorthand, comes back
    unchanged."""
    text = text.strip()
    if text.startswith(("{", "[")):
        return _parse_json(text, "inline JSON")
    if text.endswith(".json"):
        return _load_json(text)
    return text


def _parse_trace(text: str) -> tuple[int, ...]:
    return tuple(int(part) for part in text.split(",") if part.strip() != "")


# ---------------------------------------------------------------------------
# Experiment configs


def _design_from_config(cfg: dict, extend_seed: int) -> Design:
    """A design config: {"explicit": DESIGN} or the polynomial family
    {"q", "degree"}, greedily extended to "extend_to" rows."""
    if "explicit" in cfg:
        return Design.from_json_dict(json_object(cfg, {"explicit": (dict, REQUIRED)}, "design")["explicit"])
    cfg = json_object(cfg, {"q": (int, REQUIRED), "degree": (int, REQUIRED), "extend_to": (int, ABSENT)}, "design")
    base = build_polynomial_design(cfg["q"], cfg["degree"])
    return require_valid(extend_greedy(base, cfg.get("extend_to", base.m), extend_seed))


def _build_instance(
    design: Design, h: Permutation, hard_bit: str, c: int, seed: int, b: str | None, b_mode: str, strict: bool
) -> tuple[Instance, list[str]]:
    """The instance `instance make` and `nwgame run` emit, with its strict
    warnings: h is checked to be a bijection (ell <= 12), b is searched for
    or, when given, certified off range, and strict mode refuses warnings."""
    if h.ell <= BIJECTION_CHECK_MAX_ELL and not check_bijection(h):
        raise ValidationError(f"permutation {h.kind} on ell={h.ell} is not a bijection")
    inst = make_instance(design, h, HardBit(hard_bit), c, b=b, b_mode=b_mode, seed=seed)
    warnings = strict_violations(inst)
    if strict and warnings:
        raise ValidationError("strict regime violated: " + "; ".join(warnings))
    return inst, warnings


def _assignment(inst: Instance, strategy: StudentStrategy, trace: analysis.Trace, jobs: int) -> dict:
    best = analysis.best_partial_assignment(inst, strategy, trace, jobs=jobs)
    return {"trace": list(trace), **best.to_json_dict()}


def strategy_sections(
    inst: Instance, strategy: StudentStrategy, analyses: list, jobs: int = 1
) -> dict:
    """One strategy's report sections, one per analysis: census, assignment
    (None when no run succeeds), reduction and failures.  Census and
    assignment share one census; reduce and failureset scan on their own."""
    sections: dict[str, Any] = {}
    census = None
    for kind in analyses:
        if kind in ("census", "assignment"):
            census = census or analysis.trace_census(inst, strategy, jobs=jobs)
        if kind == "census":
            sections["census"] = census.to_json_dict()
        elif kind == "assignment":
            picked = analysis.best_margin_trace(census)
            sections["assignment"] = (
                None if picked is None else _assignment(inst, strategy, picked[0], jobs)
            )
        elif kind == "reduce":
            sections["reduction"] = analysis.run_reduction(inst, strategy, jobs=jobs).to_json_dict()
        elif kind == "failureset":
            sections["failures"] = failure_set(inst, strategy, jobs=jobs).to_json_dict()
    return sections


def hardcore_section(
    inst: Instance, family: hardcore.StudentFamily, k: int | None, k_max: int | None, jobs: int = 1
) -> dict:
    """The hardcore report section for a family of students: the k-stage
    extraction and the sweep over k = 1..k_max, each when asked for."""
    section: dict[str, Any] = {}
    if k is not None:
        section["extract"] = hardcore.extract_hardcore(inst, family, k, jobs=jobs).to_json_dict()
    if k_max is not None:
        reports = hardcore.sweep(inst, family, k_max, jobs=jobs)
        section["sweep"] = [r.to_json_dict() for r in reports]
    return section


def run_experiment(config: dict, jobs: int = 1) -> dict:
    """Execute a config end to end.  The report is a pure function of the
    config: worker count and wall clock never reach the output.  Every
    config object and analysis name is read before the instance is built."""
    resolved = json_object(config, CONFIG_FIELDS, "config")
    unknown = [kind for kind in resolved["analyses"] if kind not in ANALYSES]
    if unknown:
        raise ValueError(f"unknown analyses {unknown}; the analyses are {list(ANALYSES)}")
    value_hex = {"value_hex": (str, REQUIRED)} if resolved["b"].get("mode") == "explicit" else {}
    b_cfg = json_object(resolved["b"], {"mode": (str, "lex-min"), **value_hex}, "b")
    hc = json_object(resolved["hardcore"], HARDCORE_FIELDS, "hardcore") if "hardcore" in resolved else None
    family = None if hc is None else hardcore.StudentFamily(tuple(map(strategy_from_spec, hc["stages"])))
    strategies = [(spec, strategy_from_spec(spec)) for spec in resolved["strategies"]]

    seed = resolved["seed"]
    design = _design_from_config(resolved["design"], derive_seed("design-extend", seed))
    # kind, seed and ell default; an ell other than the design's is refused by Instance
    perm = {"kind": "identity", "seed": derive_seed("permutation", seed), "ell": design.ell, **resolved["permutation"]}
    h = Permutation.from_json_dict(perm)
    b = hex_to_bits(b_cfg["value_hex"], design.m) if b_cfg["mode"] == "explicit" else None
    inst, warnings = _build_instance(
        design, h, resolved["hard_bit"], resolved["c"], seed, b, b_cfg["mode"], resolved["strict"]
    )

    report: dict[str, Any] = {
        "schema": SCHEMA,
        "config": resolved,
        "design": design.to_json_dict(),
        "instance": inst.to_json_dict(),
        "strict_warnings": warnings,
        "strategies": [],
    }

    for spec, strategy in strategies:
        sections = strategy_sections(inst, strategy, resolved["analyses"], jobs=jobs)
        report["strategies"].append({"name": strategy.name, "spec": spec, **sections})

    if hc is not None:
        report["hardcore"] = hardcore_section(inst, family, hc["k"], hc["k_max"], jobs=jobs)

    return report


# ---------------------------------------------------------------------------
# Subcommand handlers


def _cmd_design_build(args: argparse.Namespace) -> int:
    cfg = {"q": args.q, "degree": args.degree}
    if args.extend_to is not None:
        cfg["extend_to"] = args.extend_to
    _dump(_design_from_config(cfg, args.seed).to_json_dict(), args.out)
    return EXIT_OK


def _cmd_design_verify(args: argparse.Namespace) -> int:
    report = verify_design(Design.from_json_dict(_load_json(args.design)))
    _dump(report.to_json_dict(), args.out)
    return EXIT_OK if report.ok else EXIT_VALIDATION


def _cmd_instance_make(args: argparse.Namespace) -> int:
    design = Design.from_json_dict(_load_json(args.design))
    h = Permutation(ell=design.ell, kind=args.perm, seed=args.perm_seed, rounds=args.rounds)
    inst, warnings = _build_instance(
        design, h, args.hard_bit, args.c, args.seed, args.b, args.b_mode, args.strict
    )
    _dump({**inst.to_json_dict(), "strict_warnings": warnings}, args.out)
    return EXIT_OK


def _cmd_instance_check(args: argparse.Namespace) -> int:
    inst = _load_instance(args.instance)  # an Instance's design is valid, else exit 3
    checks: dict[str, Any] = {"design_ok": True}
    if inst.ell <= BIJECTION_CHECK_MAX_ELL:
        checks["bijection_ok"] = check_bijection(inst.h)
    else:
        checks["bijection_ok"] = None
    if inst.b is not None and inst.n <= ENUMERATION_MAX_N:
        checks["b_off_range"] = certify_off_range(inst, inst.b)
    else:
        checks["b_off_range"] = None
    warnings = strict_violations(inst)
    checks["strict_warnings"] = warnings
    hard_failures = (
        checks["bijection_ok"] is False
        or checks["b_off_range"] is False
        or (args.strict and bool(warnings))
    )
    checks["ok"] = not hard_failures
    _dump(checks, args.out)
    return EXIT_VALIDATION if hard_failures else EXIT_OK


def _cmd_game_play(args: argparse.Namespace) -> int:
    inst = _load_instance(args.instance)
    strategy = strategy_from_spec(_json_arg(args.strategy))
    a = check_bits(args.input, inst.n, "--input")
    transcript = evaluate_partial(inst, strategy, a) if args.witness else play(inst, strategy, a)
    _dump(transcript.to_json_dict(), args.out)
    return EXIT_OK


def _cmd_strategy_section(args: argparse.Namespace) -> int:
    """`analyze *` and `game failureset`: the strategy's section of the run
    report for the one analysis the subcommand names."""
    inst = _load_instance(args.instance)
    strategy = strategy_from_spec(_json_arg(args.strategy))
    name = args.subcommand
    if name == "assignment" and args.trace is not None:
        payload = _assignment(inst, strategy, _parse_trace(args.trace), args.jobs)
    elif name == "failureset" and args.sample is not None:
        payload = failure_set(inst, strategy, sample=(args.sample, args.sample_seed)).to_json_dict()
    else:
        kind = "reduce" if name == "advantage" else name
        (payload,) = strategy_sections(inst, strategy, [kind], jobs=args.jobs).values()
    if name == "assignment" and payload is None:
        payload = {"assignment": None, "reason": "no successful runs"}
    elif name == "advantage":
        payload = {key: payload[key] for key in ("advantage", "target", "met", "diagnostics")}
    _dump(payload, args.out)
    return EXIT_OK


def _cmd_hardcore(args: argparse.Namespace) -> int:
    """`hardcore extract|sweep`: the run report's hardcore section."""
    inst = _load_instance(args.instance)
    family = _json_arg(args.family)
    if isinstance(family, dict):
        family = json_object(family, {"stages": (list, REQUIRED)}, "family")["stages"]
    family = hardcore.StudentFamily(tuple(map(strategy_from_spec, json_value(family, list, "family stages"))))
    section = hardcore_section(inst, family, args.k, args.k_max, jobs=args.jobs)
    if args.subcommand == "extract":
        _dump(section["extract"], args.out)
        return EXIT_OK
    if args.csv is not None:
        with open(args.csv, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["k", "size", "bound", "meets_bound"])
            for r in section["sweep"]:
                bound = f"{r['bound']['num']}/{r['bound']['den']}"
                writer.writerow([r["k"], r["size"], bound, r["meets_bound"]])
    _dump(section, args.out)
    return EXIT_OK


def _cmd_run(args: argparse.Namespace) -> int:
    config = json_value(_load_json(args.config), dict, "config")
    if args.seed is not None:
        config["seed"] = args.seed
    if args.strict:
        config["strict"] = True
    report = run_experiment(config, jobs=args.jobs)
    _dump(report, args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser


def _jobs(text: str) -> int:
    """--jobs: an int of at least 1; other text fails as type=int would."""
    try:
        jobs = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if jobs < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {jobs}")
    return jobs


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="nwgame", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, jobs: bool = True) -> None:
        p.add_argument("--out", default=None, help="write JSON here instead of stdout")
        if jobs:
            p.add_argument("--jobs", type=_jobs, default=1, help="worker shards, at least 1; never changes results")

    p = sub.add_parser("design", help="build or verify designs")
    dsub = p.add_subparsers(dest="subcommand", required=True)
    d = dsub.add_parser("build", help="polynomial family, optionally greedily extended")
    d.add_argument("--q", type=int, required=True)
    d.add_argument("--degree", type=int, required=True)
    d.add_argument("--extend-to", type=int, default=None)
    d.add_argument("--seed", type=int, default=0)
    common(d, jobs=False)
    d.set_defaults(func=_cmd_design_build)
    d = dsub.add_parser("verify", help="exhaustive invariant check")
    d.add_argument("design")
    common(d, jobs=False)
    d.set_defaults(func=_cmd_design_verify)

    p = sub.add_parser("instance", help="assemble or check full instances")
    isub = p.add_subparsers(dest="subcommand", required=True)
    i = isub.add_parser("make")
    i.add_argument("--design", required=True)
    i.add_argument("--perm", default="identity", choices=PERMUTATION_KINDS)
    i.add_argument("--perm-seed", type=int, default=0)
    i.add_argument("--rounds", type=int, default=DEFAULT_ROUNDS)
    i.add_argument("--hard-bit", default="last-bit", choices=HARD_BIT_KINDS)
    i.add_argument("--c", type=int, default=1)
    i.add_argument("--b", default=None, help=f"explicit off-range bits; certifying them needs n <= {ENUMERATION_MAX_N}")
    i.add_argument("--b-mode", default="lex-min", choices=OFF_RANGE_MODES)
    i.add_argument("--seed", type=int, default=0)
    i.add_argument("--strict", action="store_true")
    common(i, jobs=False)
    i.set_defaults(func=_cmd_instance_make)
    i = isub.add_parser("check")
    i.add_argument("instance")
    i.add_argument("--strict", action="store_true")
    common(i, jobs=False)
    i.set_defaults(func=_cmd_instance_check)

    p = sub.add_parser("game", help="single runs and failure sets")
    gsub = p.add_subparsers(dest="subcommand", required=True)
    g = gsub.add_parser("play")
    g.add_argument("--instance", required=True)
    g.add_argument("--strategy", required=True)
    g.add_argument("--input", required=True)
    g.add_argument("--witness", action="store_true", help="abort on disagreeing replies")
    common(g, jobs=False)
    g.set_defaults(func=_cmd_game_play)
    g = gsub.add_parser("failureset")
    g.add_argument("--instance", required=True)
    g.add_argument("--strategy", required=True)
    g.add_argument("--sample", type=int, default=None, help="Monte-Carlo size for n > 14")
    g.add_argument("--sample-seed", type=int, default=0)
    common(g)
    g.set_defaults(func=_cmd_strategy_section)

    p = sub.add_parser("analyze", help="census, assignments, reductions")
    asub = p.add_subparsers(dest="subcommand", required=True)
    for name in ("census", "assignment", "reduce", "advantage"):
        a = asub.add_parser(name)
        a.add_argument("--instance", required=True)
        a.add_argument("--strategy", required=True)
        if name == "assignment":
            a.add_argument("--trace", default=None, help="comma-separated rows; default: margin-best")
        common(a)
        a.set_defaults(func=_cmd_strategy_section)

    p = sub.add_parser("hardcore", help="composed students and definedness sets")
    hsub = p.add_subparsers(dest="subcommand", required=True)
    h = hsub.add_parser("extract")
    h.add_argument("--instance", required=True)
    h.add_argument("--family", required=True, help="JSON list of stage specs, inline or a path")
    h.add_argument("--k", type=int, required=True)
    common(h)
    h.set_defaults(func=_cmd_hardcore, k_max=None)
    h = hsub.add_parser("sweep")
    h.add_argument("--instance", required=True)
    h.add_argument("--family", required=True)
    h.add_argument("--k-max", type=int, required=True)
    h.add_argument("--csv", default=None, help="also write k,size,bound rows here")
    common(h)
    h.set_defaults(func=_cmd_hardcore, k=None)

    p = sub.add_parser("run", help="execute an experiment config")
    p.add_argument("config")
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.add_argument("--strict", action="store_true")
    common(p)
    p.set_defaults(func=_cmd_run)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, KeyError, OSError, SearchExhausted) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, SearchExhausted):
            return EXIT_SEARCH
        return EXIT_VALIDATION if isinstance(exc, ValidationError) else EXIT_CONFIG


def entrypoint() -> None:
    raise SystemExit(main())
