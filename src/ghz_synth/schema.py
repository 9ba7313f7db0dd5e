"""Reading the package's JSON documents: one parse, one object reader.

A layout, circuit or sweep config is text that `parse` turns into one JSON
object, and every object in it, the document itself included, is read by
`read` from a spec that lists each of its keys with its kind (and default,
if it may be left out). An object whose kind is named by one of its fields,
such as an op record by its `tag` or a strategy by its `strategy`, is read
by `read_tagged`. So a missing, mistyped or unknown field raises InputError
(a ValueError) whose message starts with the field's path in the document,
such as `ops[0].target` or `protocols[1].strategy.f`. A value out of range
names its field too: the top-level constructors start their messages with
it, and nested objects are built through `construct`, which prefixes their
path. `check_count` is the one bound on a count, such as a node, qubit, cbit,
size, sample, shot, star-size or worker count, whether it comes from a
document, a command-line flag, an environment variable or the Python API:
an integer (not a bool), at most MAX_N, or a tighter `high` such as a source
layout's node count. `check_probability` is the one bound on a probability,
a number that is not a bool, and `rng.check_seed` the one bound on a seed,
an integer that is not a bool; all three raise InputError, whose message
starts with the bad value's name. Each returns the value it admits as a plain
Python number (`plain`), which is what an object built from it keeps, so a
numpy scalar never reaches a JSON document.
"""

from __future__ import annotations

import json
import numbers

import numpy as np

__all__ = ["InputError", "parse", "read", "read_tagged", "field", "construct", "is_int",
           "MAX_N", "check_count", "check_probability", "plain"]


class InputError(ValueError):
    """Bad input, from a document, a command-line flag or a Python argument: a
    missing field, or a value of the wrong kind or out of range."""


_REQUIRED = object()


def parse(text: str, root: str, error: type = InputError) -> dict:
    """The JSON object that text holds; error, naming the document root, if it holds none.

    Text that is not JSON, nests deeper than the parser can follow, or holds
    something other than an object is refused.
    """
    try:
        obj = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an integer too long to convert
        raise error(f"{root}: not a JSON document: {exc}") from None
    except RecursionError:
        raise error(f"{root}: not a JSON document: nested too deeply") from None
    if not isinstance(obj, dict):
        raise error(f"{root}: expected an object")
    return obj


def read(obj, spec: dict, path: str = "", noun: str = "field", error: type = InputError) -> dict:
    """Each field that spec lists, by key, read through `field`; error for any other key.

    spec maps each of one or more keys to its kind, or to (kind, default)
    for a field that may be left out. path locates obj in the document (""
    for the document itself). Every listed field is read, in spec order,
    before a key that spec does not list is refused as an "unknown <noun>".
    """
    values = {key: field(obj, key, path, *(k if isinstance(k, tuple) else (k,)), error=error)
              for key, k in spec.items()}
    for key in obj:
        if key not in spec:
            raise error(f"{_where(path, key)}: unknown {noun}")
    return values


def read_tagged(obj, key: str, classes: dict, specs: dict, path: str, noun: str,
                error: type = InputError):
    """classes[obj[key]] built by `construct` from the fields its spec, specs[class], lists.

    A tag not in classes is an "unknown <noun>"; obj may hold no key but
    the tag and its class's fields.
    """
    tag = field(obj, key, path, str, error=error)
    cls = classes.get(tag)
    if cls is None:
        raise error(f"{_where(path, key)}: unknown {noun} {tag!r}")
    args = read(obj, {key: str, **specs[cls]}, path, error=error)
    del args[key]
    return construct(path, cls, **args)


def _where(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def field(rec, key: str, path: str, kind: type, default=_REQUIRED, error: type = InputError):
    """rec[key], checked to be of the given kind, or default when it is absent.

    path locates rec in the document ("" for the document itself). A tuple
    kind reads a list of ints, a float kind any number (returned as a float);
    a field that is null counts as absent when there is a default.
    """
    where = _where(path, key)
    if not isinstance(rec, dict):
        raise error(f"{path}: expected an object")
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
        try:
            return float(value)
        except OverflowError:  # JSON integers are exact, so one may pass float range
            raise error(f"{where}: expected a number, "
                        "got an integer too large for a float") from None
    if not (is_int(value) if kind is int else isinstance(value, kind)):
        raise error(f"{where}: expected {kind.__name__}, got {value!r}")
    return value


def construct(path: str, make, *args, **kwargs):
    """make(*args, **kwargs); a ValueError it raises becomes an InputError under path."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise InputError(f"{path}: {exc}") from None


# Most qubits or classical bits of a circuit or nodes of a layout, sweep
# samples or shots: far above the 16k-qubit grids the package targets, and
# low enough that no n-element list is gigabytes.
MAX_N = 1 << 24


def check_count(n: int, name: str = "n", low: int = 1, error: type = InputError,
                high: int | None = None) -> int:
    """plain(n) if n is an integer in [low, high]; else error, whose message starts with name.

    An integer is an int or a numpy integer, not a bool; anything else is
    refused as `field` refuses it in a document. high defaults to MAX_N,
    read when the check runs.
    """
    if not is_int(n):
        raise error(f"{name}: expected int, got {n!r}")
    if n < low:
        raise error(f"{name}: must be >= {low}, got {n}")
    if high is None:
        high = MAX_N
    if n > high:
        raise error(f"{name}: must be <= {high}, got {n}")
    return plain(n)


def check_probability(p: float, name: str) -> float:
    """plain(p) if p is a number in [0, 1]; else InputError, whose message starts with name.

    A number is a real number, int, float or numpy scalar, but not a bool.
    """
    if not isinstance(p, numbers.Real) or isinstance(p, bool):
        raise InputError(f"{name}: expected a number, got {p!r}")
    if not 0.0 <= p <= 1.0:  # NaN fails both comparisons
        raise InputError(f"{name}: must lie in [0, 1], got {p}")
    return plain(p)


def plain(x):
    """The plain Python number of a numpy scalar, by its `item()`; any other x itself."""
    return x.item() if isinstance(x, np.generic) else x


def is_int(value) -> bool:
    """Whether value is an integer: an int or a numpy integer, not a bool."""
    return type(value) is int or isinstance(value, numbers.Integral) and not isinstance(value, bool)
