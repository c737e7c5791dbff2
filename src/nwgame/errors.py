"""Exception types shared across the package, and the one rule for reading
JSON input: a value of the wrong JSON type is bad input (ValueError)."""

from typing import Any


class SearchExhausted(RuntimeError):
    """A bounded randomized search ran out of attempts."""


class CapabilityError(RuntimeError):
    """A strategy invoked an oracle its capability flags do not allow."""


class ValidationError(ValueError):
    """An artifact failed its exhaustive validity check."""


_JSON_TYPES = {int: "an integer", bool: "a boolean", str: "a string", list: "a list", dict: "an object"}
REQUIRED = object()


def json_value(value: Any, kind: type, what: str) -> Any:
    """value, if it has the JSON type `kind` (object takes any value); a
    bool is not an integer, and neither is a float or a numeric string."""
    if kind is object or (isinstance(value, kind) and not (kind is int and isinstance(value, bool))):
        return value
    raise ValueError(f"{what} must be {_JSON_TYPES[kind]}, got {value!r}")


def json_field(data: dict, key: str, kind: type, default: Any = REQUIRED, where: str = "config") -> Any:
    """json_value of data[key], or `default` when the key is absent.  null
    is a value, never an absent key; a missing required key is bad input."""
    if key in data:
        return json_value(data[key], kind, f"{where} {key!r}")
    if default is REQUIRED:
        raise ValueError(f"{where} needs the field {key!r}")
    return default
