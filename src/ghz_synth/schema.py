"""Field-by-field reading of the package's JSON documents.

The circuit, layout and sweep-config loaders read every field through
`field`, so a missing or mistyped field raises InputError (a ValueError)
whose message starts with the field's path in the document, such as
`ops[0].target` or `protocols[1].strategy.f`.
"""

from __future__ import annotations

__all__ = ["InputError", "field", "is_int"]


class InputError(ValueError):
    """A JSON document lacks a field or has one of the wrong kind."""


_REQUIRED = object()


def field(
    rec,
    key: str,
    path: str,
    kind: type,
    default=_REQUIRED,
    error: type = InputError,
    root: str = "document",
):
    """rec[key], checked to be of the given kind, or default when it is absent.

    path locates rec in the document ("" for the document itself, which
    error messages call `root`). A tuple kind reads a list of ints, a float
    kind any number (returned as a float); a field that is null counts as
    absent when there is a default.
    """
    where = f"{path}.{key}" if path else key
    if not isinstance(rec, dict):
        raise error(f"{path or root}: expected an object")
    value = rec.get(key)
    if value is None and default is not _REQUIRED:
        return default
    if key not in rec:
        raise error(f"{where}: missing field")
    if kind is tuple:
        if not isinstance(value, list) or not all(is_int(v) for v in value):
            raise error(f"{where}: expected a list of integers")
        return tuple(value)
    if kind is float:
        if not (is_int(value) or isinstance(value, float)):
            raise error(f"{where}: expected a number, got {value!r}")
        return float(value)
    if not (is_int(value) if kind is int else isinstance(value, kind)):
        raise error(f"{where}: expected {kind.__name__}, got {value!r}")
    return value


def is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)
