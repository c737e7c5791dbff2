"""Command-line workbench.

Subcommands build designs and instances, play single games, run the
census/assignment/reduction analyses, extract hardcore sets, and execute a
whole experiment config reproducibly.  Each handler returns its report,
which `main` writes as JSON with sorted keys; rationals appear as
{"num", "den"} pairs.  Exit codes: 0 ok, 2 bad config or arguments, 3
validation failure (a report whose "ok" is false, as `design verify` and
`instance check` write), 4 infeasible search.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import replace
from typing import Any

from . import analysis, hardcore
from .bits import check_bits, hex_to_bits
from .crypto import DEFAULT_ROUNDS, HARD_BIT_KINDS, PERMUTATION_KINDS, HardBit, Permutation, check_bijection
from .design import Design, build_polynomial_design, extend_greedy, require_valid, verify_design
from .errors import ABSENT, REQUIRED, SearchExhausted, ValidationError, json_object, json_value
from .game import EXHAUSTIVE_MAX_N, MAX_SAMPLE, StudentStrategy, evaluate_partial, failure_set, play, strategy_from_spec
from .generator import ENUMERATION_MAX_N, OFF_RANGE_MODES, Instance, certify_off_range, make_instance, strict_violations
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


def _bijection_ok(h: Permutation) -> bool | None:
    """Whether h is a bijection, checked at ell <= BIJECTION_CHECK_MAX_ELL; else None."""
    return check_bijection(h) if h.ell <= BIJECTION_CHECK_MAX_ELL else None


def _b_off_range(inst: Instance) -> bool | None:
    """Whether the instance's b is off the generator's range, checked when b
    is present and n <= ENUMERATION_MAX_N; else None."""
    return certify_off_range(inst, inst.b) if inst.b is not None and inst.n <= ENUMERATION_MAX_N else None


def _load_instance(path: str) -> Instance:
    """The instance in the file, its b rechecked: a b in the generator's range
    is a validation failure (with no rows, so is any b, claimed or not), and
    a `b_certified` claim that cannot be rechecked (n > ENUMERATION_MAX_N) is dropped."""
    inst = Instance.from_json_dict(_load_json(path))
    if inst.b is not None and inst.m == 0:
        raise ValidationError(f"{path} has a design with no rows, so its b is in the generator's range")
    if not inst.b_certified:
        return inst
    off_range = _b_off_range(inst)
    if off_range is False:
        raise ValidationError(f"{path} claims b_certified, but its b is in the generator's range")
    return inst if off_range else replace(inst, b_certified=False)


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
    """--trace: comma-separated rows; other text fails naming the flag."""
    try:
        return tuple(int(part) for part in text.split(",") if part.strip() != "")
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid row list: {text!r}") from None


def _family(stages: Any) -> hardcore.StudentFamily:
    """The StudentFamily of a JSON list of stage specs."""
    return hardcore.StudentFamily(tuple(map(strategy_from_spec, json_value(stages, list, "family stages"))))


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
    if _bijection_ok(h) is False:
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
    """The hardcore report section for a family of students: the k-stage extraction and the sweep
    over k = 1..k_max, each when asked for, both read from one sweep to the larger of k and k_max."""
    asked = [hardcore.stage_count(family, v, name) for v, name in ((k_max, "k_max"), (k, "k")) if v is not None]
    reports = hardcore.sweep(inst, family, max(asked), jobs=jobs) if asked else []
    section: dict[str, Any] = {}
    if k is not None:
        section["extract"] = reports[k - 1].to_json_dict()
    if k_max is not None:
        section["sweep"] = [r.to_json_dict() for r in reports[:k_max]]
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
    family = None if hc is None else _family(hc["stages"])
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


def _cmd_design_build(args: argparse.Namespace) -> dict:
    extend = {} if args.extend_to is None else {"extend_to": args.extend_to}
    return _design_from_config({"q": args.q, "degree": args.degree, **extend}, args.seed).to_json_dict()


def _cmd_design_verify(args: argparse.Namespace) -> dict:
    return verify_design(Design.from_json_dict(_load_json(args.design))).to_json_dict()


def _cmd_instance_make(args: argparse.Namespace) -> dict:
    design = Design.from_json_dict(_load_json(args.design))
    h = Permutation(ell=design.ell, kind=args.perm, seed=args.perm_seed, rounds=args.rounds)
    inst, warnings = _build_instance(
        design, h, args.hard_bit, args.c, args.seed, args.b, args.b_mode, args.strict
    )
    return {**inst.to_json_dict(), "strict_warnings": warnings}


def _cmd_instance_check(args: argparse.Namespace) -> dict:
    # an Instance's design is valid, else exit 3; b is rechecked here, into the report
    inst = Instance.from_json_dict(_load_json(args.instance))
    checks = {"design_ok": True, "bijection_ok": _bijection_ok(inst.h), "b_off_range": _b_off_range(inst)}
    warnings = strict_violations(inst)
    checks["ok"] = False not in (checks["bijection_ok"], checks["b_off_range"]) and not (args.strict and warnings)
    return {**checks, "strict_warnings": warnings}


def _cmd_game_play(args: argparse.Namespace) -> dict:
    inst = _load_instance(args.instance)
    strategy = strategy_from_spec(_json_arg(args.strategy))
    a = check_bits(args.input, inst.n, "--input")
    return (evaluate_partial(inst, strategy, a) if args.witness else play(inst, strategy, a)).to_json_dict()


def _cmd_strategy_section(args: argparse.Namespace) -> dict:
    """`analyze *` and `game failureset`: the strategy's section of the run
    report for the one analysis the subcommand names."""
    inst = _load_instance(args.instance)
    strategy = strategy_from_spec(_json_arg(args.strategy))
    name = args.subcommand
    if name == "assignment" and args.trace is not None:
        payload = _assignment(inst, strategy, args.trace, args.jobs)
    elif name == "failureset" and args.sample is not None:
        payload = failure_set(inst, strategy, sample=(args.sample, args.sample_seed)).to_json_dict()
    else:
        kind = "reduce" if name == "advantage" else name
        (payload,) = strategy_sections(inst, strategy, [kind], jobs=args.jobs).values()
    if name == "assignment" and payload is None:
        payload = {"assignment": None, "reason": "no successful runs"}
    elif name == "advantage":
        payload = {key: payload[key] for key in ("advantage", "target", "met", "diagnostics")}
    return payload


def _cmd_hardcore(args: argparse.Namespace) -> dict:
    """`hardcore extract|sweep`: the run report's hardcore section."""
    inst = _load_instance(args.instance)
    family = _json_arg(args.family)
    if isinstance(family, dict):
        family = json_object(family, {"stages": (list, REQUIRED)}, "family")["stages"]
    section = hardcore_section(inst, _family(family), args.k, args.k_max, jobs=args.jobs)
    return section["extract"] if args.subcommand == "extract" else section


def _cmd_run(args: argparse.Namespace) -> dict:
    config = json_value(_load_json(args.config), dict, "config")
    if args.seed is not None:
        config["seed"] = args.seed
    if args.strict:
        config["strict"] = True
    return run_experiment(config, jobs=args.jobs)


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
    # parent parsers: each shared option is declared once, and the subcommands inherit it
    out, jobs, instance, strategy, family, strict = (argparse.ArgumentParser(add_help=False) for _ in range(6))
    out.add_argument("--out", default=None, help="write JSON here instead of stdout")
    jobs.add_argument("--jobs", type=_jobs, default=1, help="worker shards, at least 1; never changes results")
    instance.add_argument("--instance", required=True)
    strategy.add_argument("--strategy", required=True)
    family.add_argument("--family", required=True, help="JSON list of stage specs, inline or a path")
    strict.add_argument("--strict", action="store_true")

    def group(name: str, text: str) -> Any:
        return sub.add_parser(name, help=text).add_subparsers(dest="subcommand", required=True)

    dsub = group("design", "build or verify designs")
    d = dsub.add_parser("build", parents=[out], help="polynomial family, optionally greedily extended")
    d.add_argument("--q", type=int, required=True)
    d.add_argument("--degree", type=int, required=True)
    d.add_argument("--extend-to", type=int, default=None)
    d.add_argument("--seed", type=int, default=0)
    d.set_defaults(func=_cmd_design_build)
    d = dsub.add_parser("verify", parents=[out], help="exhaustive invariant check")
    d.add_argument("design")
    d.set_defaults(func=_cmd_design_verify)

    isub = group("instance", "assemble or check full instances")
    i = isub.add_parser("make", parents=[out, strict])
    i.add_argument("--design", required=True)
    i.add_argument("--perm", default="identity", choices=PERMUTATION_KINDS)
    i.add_argument("--perm-seed", type=int, default=0)
    i.add_argument("--rounds", type=int, default=DEFAULT_ROUNDS)
    i.add_argument("--hard-bit", default="last-bit", choices=HARD_BIT_KINDS)
    i.add_argument("--c", type=int, default=1)
    i.add_argument("--b", default=None, help=f"explicit off-range bits; certifying them needs n <= {ENUMERATION_MAX_N}")
    i.add_argument("--b-mode", default="lex-min", choices=OFF_RANGE_MODES)
    i.add_argument("--seed", type=int, default=0)
    i.set_defaults(func=_cmd_instance_make)
    i = isub.add_parser("check", parents=[out, strict])
    i.add_argument("instance")
    i.set_defaults(func=_cmd_instance_check)

    gsub = group("game", "single runs and failure sets")
    g = gsub.add_parser("play", parents=[instance, strategy, out])
    g.add_argument("--input", required=True)
    g.add_argument("--witness", action="store_true", help="abort on disagreeing replies")
    g.set_defaults(func=_cmd_game_play)
    g = gsub.add_parser("failureset", parents=[instance, strategy, out, jobs])
    g.add_argument("--sample", type=int, default=None, help=f"Monte-Carlo size for n > {EXHAUSTIVE_MAX_N}, at most {MAX_SAMPLE}")
    g.add_argument("--sample-seed", type=int, default=0)
    g.set_defaults(func=_cmd_strategy_section)

    asub = group("analyze", "census, assignments, reductions")
    for name in ("census", "assignment", "reduce", "advantage"):
        a = asub.add_parser(name, parents=[instance, strategy, out, jobs])
        if name == "assignment":
            a.add_argument("--trace", type=_parse_trace, help="comma-separated rows; default: margin-best")
        a.set_defaults(func=_cmd_strategy_section)

    hsub = group("hardcore", "composed students and definedness sets")
    h = hsub.add_parser("extract", parents=[instance, family, out, jobs])
    h.add_argument("--k", type=int, required=True)
    h.set_defaults(func=_cmd_hardcore, k_max=None)
    h = hsub.add_parser("sweep", parents=[instance, family, out, jobs])
    h.add_argument("--k-max", type=int, required=True)
    h.add_argument("--csv", default=None, help="also write k,size,bound,meets_bound rows here, after the report")
    h.set_defaults(func=_cmd_hardcore, k=None)

    p = sub.add_parser("run", parents=[out, jobs, strict], help="execute an experiment config")
    p.add_argument("config")
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.set_defaults(func=_cmd_run)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        report = args.func(args)
        _dump(report, args.out)
        if getattr(args, "csv", None) is not None:
            rows = [[r["k"], r["size"], "{num}/{den}".format(**r["bound"]), r["meets_bound"]] for r in report["sweep"]]
            with open(args.csv, "w", newline="") as handle:
                csv.writer(handle).writerows([["k", "size", "bound", "meets_bound"], *rows])
    except (ValueError, KeyError, OSError, SearchExhausted) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, SearchExhausted):
            return EXIT_SEARCH
        return EXIT_VALIDATION if isinstance(exc, ValidationError) else EXIT_CONFIG
    return EXIT_VALIDATION if report.get("ok") is False else EXIT_OK


def entrypoint() -> None:
    raise SystemExit(main())
