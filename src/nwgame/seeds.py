"""Deterministic seed derivation.

Every randomized stage draws its seed from a labeled blake2b hash of the
master seed plus its own coordinates, so adding stages or changing the
worker count never shifts another stage's stream.

Each part is hashed as a token, bytes as they are and anything else as the
UTF-8 of its repr, followed by 0x1f.  `seed_stream(*prefix)` hashes a fixed
prefix once and derives each seed from a copy of that state, so
`seed_stream(*prefix)(*rest) == derive_seed(*prefix, *rest)`.
"""

from __future__ import annotations

import hashlib
from typing import Any, Callable


def _hash(state: Any, parts: tuple) -> Any:
    for part in parts:
        state.update(part if isinstance(part, bytes) else repr(part).encode())
        state.update(b"\x1f")
    return state


def seed_stream(*prefix: object) -> Callable[..., int]:
    """derive_seed with `prefix` fixed in front, its tokens hashed once."""
    head = _hash(hashlib.blake2b(digest_size=8), prefix)
    return lambda *rest: int.from_bytes(_hash(head.copy(), rest).digest(), "big")


def derive_seed(*parts: object) -> int:
    """Collapse labels, ints, and strings into a stable 64-bit seed."""
    return seed_stream()(*parts)
