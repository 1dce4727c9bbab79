"""Exception hierarchy shared across the pipeline, and the JSON artifact format.

Validation-type failures map to process exit code 1, numerical aborts to
exit code 2 (see qtc.cli).  Every JSON file qtc reads goes through
``read_json`` and every one it writes through ``write_json``.  ``read_json``
and ``json_field`` turn a damaged file or field into a ParseError that names
it, instead of a ValueError, KeyError or TypeError.  ``naming`` is how an
error says what it is about: the file it was read from, or the flags given.
"""

import contextlib
import json
import math


class QtcError(Exception):
    """Base class for all package errors."""


class ValidationError(QtcError):
    """Inputs violate a documented precondition or invariant."""


class SchemaError(ValidationError):
    """A structured input (CSV header, JSON document) is missing required fields."""


class ParseError(ValidationError):
    """A file could not be parsed; message includes the offending row where known."""


class VersioningError(ValidationError):
    """A stage artifact does not match the stage expected by the consumer."""


class NumericalError(QtcError):
    """A numerical routine aborted (non-finite objective, failed decomposition)."""


NUMBER = (int, float)


@contextlib.contextmanager
def naming(prefix):
    """Re-raise a ValidationError raised inside as the same class, with
    ``"{prefix}: "`` in front of its message."""
    try:
        yield
    except ValidationError as exc:
        raise type(exc)(f"{prefix}: {exc}") from exc


def read_json(path) -> dict:
    """The JSON object held by the file at ``path``; a missing file raises OSError."""
    with open(path, encoding="utf-8") as fh:
        try:
            value = json.load(fh)
        except ValueError as exc:  # also undecodable bytes: UnicodeDecodeError is a ValueError
            raise ParseError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(value, dict):
        raise ParseError(f"{path}: expected a JSON object, got {type(value).__name__}")
    return value


def write_json(path, payload: dict) -> None:
    """Write ``payload`` as JSON with 2-space indent, sorted keys and a final
    newline.  A NaN or infinity raises NumericalError before the file opens."""
    try:
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise NumericalError(f"{path}: holds a non-finite number") from exc
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def _holds(value, kind) -> bool:
    """Whether a JSON value is of ``kind``; a bool never counts as a number."""
    return isinstance(value, kind) and (not isinstance(value, bool) or kind is bool)


def json_field(d, key: str, kind, items=None):
    """``d[key]`` from a parsed JSON object, checked to be of ``kind``.

    ``items``, when given, is the kind every element of the (list) value
    must be.  A missing key, a value of another kind or a NaN or infinity
    (which Python's ``json`` parses) where a number belongs raises ParseError.
    """
    if not isinstance(d, dict):
        raise ParseError(f"expected a JSON object holding {key!r}, got {type(d).__name__}")
    if key not in d:
        raise ParseError(f"missing field {key!r}")
    value = d[key]
    if not _holds(value, kind) or (items is not None and not all(_holds(v, items) for v in value)):
        raise ParseError(f"field {key!r} has the wrong type")
    numbers = value if items is not None else [value]
    if any(isinstance(v, float) and not math.isfinite(v) for v in numbers):
        raise ParseError(f"field {key!r} holds a non-finite number")
    return value
