"""Desk-scale workbench for query-bounded prediction games against
bit-stretching generators built from designs and invertible permutations.

Everything is exact and exhaustively checkable: counting claims are
verified by enumeration, probabilities are fractions, and every randomized
step is seeded.  The names imported here are the package's public API.
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
