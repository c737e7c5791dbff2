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
from .crypto import DEFAULT_ROUNDS, HardBit, Permutation, check_bijection
from .design import Design, build_polynomial_design, extend_greedy, require_valid, verify_design
from .errors import SearchExhausted, ValidationError
from .game import StudentStrategy, evaluate_partial, failure_set, play, strategy_from_spec
from .generator import (
    ENUMERATION_MAX_N,
    Instance,
    certify_off_range,
    strict_violations,
    with_explicit_b,
    with_off_range,
)
from .seeds import derive_seed

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_VALIDATION = 3
EXIT_SEARCH = 4

BIJECTION_CHECK_MAX_ELL = 12
SCHEMA = "nwgame-report/1"


def _dump(payload: dict, out: str | None) -> None:
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w") as handle:
            handle.write(text)


def _load_json(path: str) -> dict:
    with open(path) as handle:
        return json.load(handle)


def _load_instance(path: str) -> Instance:
    return Instance.from_json_dict(_load_json(path))


def _json_arg(text: str) -> Any:
    """A --strategy or --family argument: inline JSON ({...} or [...]) or a
    path to a .json file.  Other text, the strategy shorthand, comes back
    unchanged."""
    text = text.strip()
    if text.startswith(("{", "[")):
        return json.loads(text)
    if text.endswith(".json"):
        return _load_json(text)
    return text


def _parse_trace(text: str) -> tuple[int, ...]:
    return tuple(int(part) for part in text.split(",") if part.strip() != "")


# ---------------------------------------------------------------------------
# Experiment configs


def _list_field(config: dict, key: str, default: list) -> list:
    value = config.get(key, default)
    if not isinstance(value, list):
        raise ValueError(f"config {key!r} must be a list, got {value!r}")
    return list(value)


def _object_field(config: dict, key: str, default: dict) -> dict:
    value = config.get(key, default)
    if not isinstance(value, dict):
        raise ValueError(f"config {key!r} must be an object, got {value!r}")
    return dict(value)


def _int(value: Any, key: str) -> int:
    """int(value); a value of the wrong JSON type is a bad config
    (ValueError, exit 2), not a TypeError."""
    try:
        return int(value)
    except TypeError:
        raise ValueError(f"config {key!r} must be an integer, got {value!r}") from None


def _resolve_config(config: dict) -> dict:
    resolved = {
        "seed": _int(config.get("seed", 0), "seed"),
        "c": _int(config.get("c", 1), "c"),
        "strict": bool(config.get("strict", False)),
        "design": _object_field(config, "design", {"q": 2, "degree": 1}),
        "permutation": _object_field(config, "permutation", {"kind": "identity"}),
        "hard_bit": config.get("hard_bit", "last-bit"),
        "b": _object_field(config, "b", {"mode": "lex-min"}),
        "strategies": _list_field(config, "strategies", []),
        "analyses": _list_field(config, "analyses", ["census"]),
    }
    if "hardcore" in config:
        resolved["hardcore"] = _object_field(config, "hardcore", {})
    return resolved


def _design_from_config(cfg: dict, seed: int) -> Design:
    if "explicit" in cfg:
        return require_valid(Design.from_json_dict(_object_field(cfg, "explicit", {})))
    base = build_polynomial_design(_int(cfg["q"], "q"), _int(cfg["degree"], "degree"))
    target = _int(cfg.get("extend_to", base.m), "extend_to")
    if target != base.m:
        base = extend_greedy(base, target, derive_seed("design-extend", seed))
    return require_valid(base)


def _permutation_from_config(cfg: dict, ell: int, seed: int) -> Permutation:
    kind = cfg.get("kind", "identity")
    perm_seed = _int(cfg["seed"], "seed") if "seed" in cfg else derive_seed("permutation", seed)
    rounds = _int(cfg.get("rounds", DEFAULT_ROUNDS), "rounds")
    return Permutation(ell=ell, kind=kind, seed=perm_seed, rounds=rounds)


def _attach_b(inst: Instance, cfg: dict, seed: int) -> Instance:
    mode = cfg.get("mode", "lex-min")
    if mode == "explicit":
        return with_explicit_b(inst, hex_to_bits(cfg["value_hex"], inst.m))
    return with_off_range(inst, mode=mode, seed=seed)


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
        else:
            raise ValueError(f"unknown analysis {kind!r}")
    return sections


def hardcore_section(
    inst: Instance, stages: Any, k: int | None, k_max: int | None, jobs: int = 1
) -> dict:
    """The hardcore report section for a family of stage specs: the k-stage
    extraction and the sweep over k = 1..k_max, each when asked for."""
    if not isinstance(stages, list):
        raise ValueError(f"family stages must be a list of strategy specs, got {stages!r}")
    family = hardcore.StudentFamily(tuple(strategy_from_spec(s) for s in stages))
    section: dict[str, Any] = {}
    if k is not None:
        section["extract"] = hardcore.extract_hardcore(inst, family, k, jobs=jobs).to_json_dict()
    if k_max is not None:
        reports = hardcore.sweep(inst, family, k_max, jobs=jobs)
        section["sweep"] = [r.to_json_dict() for r in reports]
    return section


def run_experiment(config: dict, jobs: int = 1) -> dict:
    """Execute a config end to end.  The report is a pure function of the
    config: worker count and wall clock never reach the output."""
    resolved = _resolve_config(config)
    seed = resolved["seed"]

    design = _design_from_config(resolved["design"], seed)
    h = _permutation_from_config(resolved["permutation"], design.ell, seed)
    if design.ell <= BIJECTION_CHECK_MAX_ELL and not check_bijection(h):
        raise ValidationError(f"permutation {h.kind} on ell={h.ell} is not a bijection")
    inst = Instance(design, h, HardBit(resolved["hard_bit"]), resolved["c"])
    inst = _attach_b(inst, resolved["b"], seed)

    warnings = strict_violations(inst)
    if resolved["strict"] and warnings:
        raise ValidationError("strict regime violated: " + "; ".join(warnings))

    report: dict[str, Any] = {
        "schema": SCHEMA,
        "config": resolved,
        "design": design.to_json_dict(),
        "instance": inst.to_json_dict(),
        "strict_warnings": warnings,
        "strategies": [],
    }

    for spec in resolved["strategies"]:
        strategy = strategy_from_spec(spec)
        sections = strategy_sections(inst, strategy, resolved["analyses"], jobs=jobs)
        report["strategies"].append({"name": strategy.name, "spec": spec, **sections})

    if "hardcore" in resolved:
        hc = resolved["hardcore"]
        k, k_max = (_int(hc[key], key) if key in hc else None for key in ("k", "k_max"))
        report["hardcore"] = hardcore_section(inst, hc.get("stages"), k, k_max, jobs=jobs)

    return report


# ---------------------------------------------------------------------------
# Subcommand handlers


def _cmd_design_build(args: argparse.Namespace) -> int:
    design = build_polynomial_design(args.q, args.degree)
    if args.extend_to is not None:
        design = extend_greedy(design, args.extend_to, args.seed)
    require_valid(design)
    _dump(design.to_json_dict(), args.out)
    return EXIT_OK


def _cmd_design_verify(args: argparse.Namespace) -> int:
    report = verify_design(Design.from_json_dict(_load_json(args.design)))
    _dump(report.to_json_dict(), args.out)
    return EXIT_OK if report.ok else EXIT_VALIDATION


def _cmd_instance_make(args: argparse.Namespace) -> int:
    design = require_valid(Design.from_json_dict(_load_json(args.design)))
    h = Permutation(ell=design.ell, kind=args.perm, seed=args.perm_seed, rounds=args.rounds)
    inst = Instance(design, h, HardBit(args.hard_bit), args.c)
    if args.b is not None:
        inst = with_explicit_b(inst, check_bits(args.b, design.m, "--b"))
    else:
        inst = with_off_range(inst, mode=args.b_mode, seed=args.seed)
    warnings = strict_violations(inst)
    if args.strict and warnings:
        raise ValidationError("strict regime violated: " + "; ".join(warnings))
    payload = inst.to_json_dict()
    payload["strict_warnings"] = warnings
    _dump(payload, args.out)
    return EXIT_OK


def _cmd_instance_check(args: argparse.Namespace) -> int:
    inst = _load_instance(args.instance)
    design_report = verify_design(inst.design)
    checks: dict[str, Any] = {"design_ok": design_report.ok}
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
        not design_report.ok
        or checks["bijection_ok"] is False
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
    stages = family.get("stages") if isinstance(family, dict) else family
    section = hardcore_section(inst, stages, args.k, args.k_max, jobs=args.jobs)
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
    config = _load_json(args.config)
    if not isinstance(config, dict):
        raise ValueError(f"config must be a JSON object, got {type(config).__name__}")
    if args.seed is not None:
        config["seed"] = args.seed
    if args.strict:
        config["strict"] = True
    report = run_experiment(config, jobs=args.jobs)
    _dump(report, args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="nwgame", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, jobs: bool = True) -> None:
        p.add_argument("--out", default=None, help="write JSON here instead of stdout")
        if jobs:
            p.add_argument("--jobs", type=int, default=1, help="worker shards; never changes results")

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
    i.add_argument("--perm", default="identity", choices=("identity", "table", "feistel"))
    i.add_argument("--perm-seed", type=int, default=0)
    i.add_argument("--rounds", type=int, default=4)
    i.add_argument("--hard-bit", default="last-bit", choices=("last-bit", "parity"))
    i.add_argument("--c", type=int, default=1)
    i.add_argument("--b", default=None, help="explicit off-range bits (certified when n allows)")
    i.add_argument("--b-mode", default="lex-min", choices=("lex-min", "seeded-random"))
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
    except SearchExhausted as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SEARCH
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def entrypoint() -> None:
    raise SystemExit(main())
