"""Exception types shared across the package, and the one rule for reading
JSON input: a wrong JSON type, missing or unknown field is bad input (ValueError)."""

import copy
from typing import Any


class SearchExhausted(RuntimeError):
    """A bounded randomized search ran out of attempts."""


class CapabilityError(RuntimeError):
    """A strategy invoked an oracle its capability flags do not allow."""


class ValidationError(ValueError):
    """An artifact failed its exhaustive validity check."""


_JSON_TYPES = {int: "an integer", bool: "a boolean", str: "a string", list: "a list", dict: "an object"}
REQUIRED, ABSENT = object(), object()


def json_value(value: Any, kind: type, what: str) -> Any:
    """value, if it has the JSON type `kind` (object takes any value); a
    bool is not an integer, and neither is a float or a numeric string."""
    if kind is object or (isinstance(value, kind) and not (kind is int and isinstance(value, bool))):
        return value
    raise ValueError(f"{what} must be {_JSON_TYPES[kind]}, got {value!r}")


def json_object(data: Any, fields: dict[str, tuple[type, Any]], where: str) -> dict:
    """`data` read through its table of field -> (JSON type, default): an
    absent field takes a copy of its default (REQUIRED: bad input; ABSENT:
    left out), a field outside the table is bad input, and null is a value."""
    data = json_value(data, dict, where)
    unknown = sorted(set(data) - set(fields), key=str)
    if unknown:
        raise ValueError(f"unknown {where} fields {unknown}")
    resolved = {}
    for key, (kind, default) in fields.items():
        if key in data:
            resolved[key] = json_value(data[key], kind, f"{where} {key!r}")
        elif default is REQUIRED:
            raise ValueError(f"{where} needs the field {key!r}")
        elif default is not ABSENT:
            resolved[key] = copy.deepcopy(default)
    return resolved
