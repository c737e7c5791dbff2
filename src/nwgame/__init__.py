"""Desk-scale workbench for query-bounded prediction games against
bit-stretching generators built from designs and invertible permutations.

Everything is exact and exhaustively checkable: counting claims are
verified by enumeration, probabilities are fractions, and every randomized
step is seeded.
"""

from .analysis import (
    TraceCensus,
    best_margin_trace,
    best_partial_assignment,
    build_predictor,
    build_witness_tables,
    failure_bound,
    measure_advantage,
    run_reduction,
    trace_census,
)
from .crypto import HardBit, Permutation, check_bijection, preimage_bit
from .design import (
    Design,
    build_polynomial_design,
    embed,
    extend_greedy,
    restrict,
    verify_design,
)
from .errors import CapabilityError, SearchExhausted, ValidationError
from .game import (
    GameView,
    Output,
    ProtocolViolation,
    StudentStrategy,
    constant_strategy,
    evaluate_partial,
    failure_set,
    omniscient_strategy,
    play,
    round_robin_strategy,
    seeded_random_strategy,
    strategy_from_spec,
    table_strategy,
)
from .generator import (
    Instance,
    certify_off_range,
    evaluate,
    find_off_range,
    make_instance,
    strict_violations,
    with_explicit_b,
    with_off_range,
)
from .hardcore import (
    StudentFamily,
    compose,
    composed_budget,
    definedness_set,
    extract_hardcore,
    sweep,
)

__version__ = "0.1.0"

__all__ = [
    "CapabilityError",
    "Design",
    "GameView",
    "HardBit",
    "Instance",
    "Output",
    "Permutation",
    "ProtocolViolation",
    "SearchExhausted",
    "StudentFamily",
    "StudentStrategy",
    "TraceCensus",
    "ValidationError",
    "best_margin_trace",
    "best_partial_assignment",
    "build_polynomial_design",
    "build_predictor",
    "build_witness_tables",
    "certify_off_range",
    "check_bijection",
    "compose",
    "composed_budget",
    "constant_strategy",
    "definedness_set",
    "embed",
    "evaluate",
    "evaluate_partial",
    "extend_greedy",
    "extract_hardcore",
    "failure_bound",
    "failure_set",
    "find_off_range",
    "make_instance",
    "measure_advantage",
    "omniscient_strategy",
    "play",
    "preimage_bit",
    "restrict",
    "round_robin_strategy",
    "run_reduction",
    "seeded_random_strategy",
    "strategy_from_spec",
    "strict_violations",
    "sweep",
    "table_strategy",
    "trace_census",
    "verify_design",
    "with_explicit_b",
    "with_off_range",
]
