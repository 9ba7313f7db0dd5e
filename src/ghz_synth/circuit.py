"""Circuit intermediate representation.

Operations are plain immutable records; a circuit is an ordered tuple of them
plus qubit/classical-bit counts, valid by construction. The ASAP `Schedule`
is the one place that knows an operation's rules: it checks each operation
and places it, in one pass. Every operation occupies one layer on each qubit
it touches, and a classically controlled X cannot share or precede the layer
of the measurement that produced its control bit. A circuit runs its
operations through one Schedule when it is built, and keeps the depth and
the CX and measurement counts that walk found, so no consumer checks,
schedules or counts it again. That walk is the
only one: synthesis hands the circuit an op source, which reads the walk's
layers as it yields the ops, instead of scheduling them itself.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from typing import Union

from . import schema

__all__ = [
    "H",
    "X",
    "CX",
    "MeasureZ",
    "Reset",
    "CondX",
    "Operation",
    "Circuit",
    "MalformedCircuitError",
    "Schedule",
    "depth",
    "count_2q",
    "count_measurements",
    "export_qasm",
]


class MalformedCircuitError(schema.InputError):
    """A circuit violates a structural invariant or its JSON form is malformed."""


def init_through_slots(cls):
    """Give a frozen slotted dataclass an __init__ that sets each field through its slot.

    The dataclass __init__ assigns each field by object.__setattr__; calling
    each slot's member descriptor instead builds a record in about two thirds
    of the time. The new __init__ takes the same arguments, positional or by
    keyword, from dataclasses.fields(cls), and equality, hashing, repr,
    pickling and the refusal of assignment stay the dataclass's own.
    """
    names = [f.name for f in fields(cls)]
    scope = {f"_set_{name}": getattr(cls, name).__set__ for name in names}
    exec(f"def __init__(self, {', '.join(names)}):\n"
         + "".join(f"    _set_{name}(self, {name})\n" for name in names), scope)
    scope["__init__"].__qualname__ = f"{cls.__qualname__}.__init__"
    cls.__init__ = scope["__init__"]
    return cls


@init_through_slots
@dataclass(frozen=True, slots=True)
class H:
    q: int


@init_through_slots
@dataclass(frozen=True, slots=True)
class X:
    q: int


@init_through_slots
@dataclass(frozen=True, slots=True)
class CX:
    control: int
    target: int


@init_through_slots
@dataclass(frozen=True, slots=True)
class MeasureZ:
    q: int
    cbit: int


@init_through_slots
@dataclass(frozen=True, slots=True)
class Reset:
    q: int


@init_through_slots
@dataclass(frozen=True, slots=True)
class CondX:
    """Apply X to every target iff the classical bit equals 1."""

    targets: tuple[int, ...]
    cbit: int


Operation = Union[H, X, CX, MeasureZ, Reset, CondX]


def touched_qubits(op: Operation) -> tuple[int, ...]:
    touched = _TOUCHED.get(type(op))
    if touched is None:
        raise TypeError(f"unknown operation {op!r}")
    return touched(op)


# qubits each operation type touches, one small function per type
_TOUCHED = {
    H: lambda op: (op.q,),
    X: lambda op: (op.q,),
    CX: lambda op: (op.control, op.target),
    MeasureZ: lambda op: (op.q,),
    Reset: lambda op: (op.q,),
    CondX: lambda op: op.targets,
}


@dataclass(frozen=True)
class Circuit:
    """A dynamic circuit, valid by construction: it runs `validate` once, when built.

    ops may be given as the ops themselves or as an op source, a function
    source(last) that yields them; either way the circuit keeps them as a
    tuple.
    """

    qubit_count: int
    cbit_count: int
    ops: tuple[Operation, ...]
    _depth: int = field(init=False, repr=False, compare=False, default=0)
    _n_2q: int = field(init=False, repr=False, compare=False, default=0)
    _n_meas: int = field(init=False, repr=False, compare=False, default=0)

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        """Raise MalformedCircuitError if any invariant is violated; keep ops, depth and counts.

        Checks 1 <= n <= schema.MAX_N and 0 <= cbits <= schema.MAX_N, then emits every op
        through one Schedule, which checks each op's rules (see
        `Schedule.emit`); its highest layer is the depth that `depth` returns,
        and its CX and MeasureZ counts are what `count_2q` and
        `count_measurements` return.
        An op source gets the schedule's last list, and each op is emitted
        before the next is drawn, so the source may read the layers of the
        ops it has yielded so far.
        """
        object.__setattr__(self, "qubit_count",
                           schema.check_count(self.qubit_count, error=MalformedCircuitError))
        object.__setattr__(self, "cbit_count",
                           schema.check_count(self.cbit_count, "cbits", 0, MalformedCircuitError))
        schedule = Schedule(self.qubit_count, self.cbit_count)
        ops = self.ops(schedule.last) if callable(self.ops) else self.ops
        object.__setattr__(self, "ops", tuple(map(schedule.emit, ops)))
        object.__setattr__(self, "_depth", max(schedule.last))
        object.__setattr__(self, "_n_2q", schedule.n_2q)
        object.__setattr__(self, "_n_meas", schedule.n_meas)

    def to_json(self) -> str:
        """The circuit's JSON form; a field built from numpy integers is written as a plain int."""
        ops = [
            {"tag": _TAGS[type(op)], **{f: _plain(getattr(op, f)) for f in _FIELDS[type(op)]}}
            for op in self.ops
        ]
        return json.dumps({"n": self.qubit_count, "cbits": self.cbit_count, "ops": ops})

    @classmethod
    def from_json(cls, text: str) -> "Circuit":
        """Parse a circuit; MalformedCircuitError names the bad field."""
        obj = schema.parse(text, "circuit", MalformedCircuitError)
        n, cbits, records = schema.read(obj, {"n": int, "cbits": int, "ops": list},
                                        error=MalformedCircuitError).values()
        ops = [schema.read_tagged(rec, "tag", _OPS_BY_TAG, _FIELDS, f"ops[{i}]", "op tag",
                                  MalformedCircuitError) for i, rec in enumerate(records)]
        return cls(n, cbits, ops)


def _plain(value):
    """An op field as JSON writes it: schema.plain of the value, or of each item of targets."""
    return [*map(schema.plain, value)] if isinstance(value, (tuple, list)) else schema.plain(value)


# JSON tag of each operation type; a record's other keys are the op's fields
_TAGS = {H: "h", X: "x", CX: "cx", MeasureZ: "measure_z", Reset: "reset", CondX: "cond_x"}
_OPS_BY_TAG = {tag: op_type for op_type, tag in _TAGS.items()}
_KINDS = {"q": int, "control": int, "target": int, "cbit": int, "targets": tuple}
# the fields of each operation type, in order, with their kinds: its JSON spec
_FIELDS = {op_type: {f.name: _KINDS[f.name] for f in fields(op_type)} for op_type in _TAGS}
# OpenQASM 3 statement of each operation type but CondX, formatted with the op
_QASM = {H: "h q[{0.q}];", X: "x q[{0.q}];", CX: "cx q[{0.control}], q[{0.target}];",
         MeasureZ: "c[{0.cbit}] = measure q[{0.q}];", Reset: "reset q[{0.q}];"}


class Schedule:
    """Incremental ASAP list scheduler that checks each operation as it places it.

    The one place that knows the operations' rules and layers, for a circuit
    on n qubits and cbits classical bits. last[q] is the layer of the latest
    operation on qubit q, so max(last) is the depth so far, and emitted is
    the number of operations placed. A circuit's op source reads last[...]
    to pick the qubits that free up earliest, and the circuit emits each
    operation as the source yields it, so synthesis fails at the operation
    that broke a rule. n_2q and n_meas count the CX and MeasureZ ops placed.
    """

    def __init__(self, n: int, cbits: int):
        self.n, self.cbits = n, cbits
        self.last = [0] * n
        self.emitted = self.n_2q = self.n_meas = 0
        self._writes: dict[int, list[int]] = {}  # cbit -> layer of each measurement of it
        self._dead: set[int] = set()  # qubits measured and not reset since

    def emit(self, op: Operation) -> Operation:
        """Place op one layer after everything it waits for and return it, or raise.

        MalformedCircuitError names the op's index and the first rule it
        breaks, in this order: each touched qubit is in range and, unless
        op is a Reset, not measured since its last reset; a CX's control
        differs from its target; a MeasureZ's or CondX's cbit is in range;
        a CondX has targets, none twice, and its bit was written by exactly
        one earlier measurement. A CondX also waits for that measurement.

        Each op kind has one branch, which checks and places it inline; CX
        and MeasureZ are counted in theirs. The CondX branch is the general
        loop over the touched qubits, and it is where any other object meets
        `touched_qubits`, which raises TypeError.
        """
        i, kind, n, last, dead = self.emitted, type(op), self.n, self.last, self._dead
        if kind is CX:
            c, t = op.control, op.target
            if not 0 <= c < n or c in dead:
                raise _qubit_error(i, c, n)
            layer = last[c]
            if not 0 <= t < n or t in dead:
                raise _qubit_error(i, t, n)
            if last[t] > layer:
                layer = last[t]
            if c == t:
                raise MalformedCircuitError(f"op {i}: CX control equals target")
            last[c] = last[t] = layer + 1
            self.n_2q += 1
        elif kind is H or kind is X:
            q = op.q
            if not 0 <= q < n or q in dead:
                raise _qubit_error(i, q, n)
            last[q] += 1
        elif kind is MeasureZ:
            q, cbit = op.q, op.cbit
            if not 0 <= q < n or q in dead:
                raise _qubit_error(i, q, n)
            if not 0 <= cbit < self.cbits:
                raise MalformedCircuitError(f"op {i}: cbit {cbit} out of range")
            last[q] += 1
            self._writes.setdefault(cbit, []).append(last[q])
            dead.add(q)
            self.n_meas += 1
        elif kind is Reset:
            q = op.q
            if not 0 <= q < n:
                raise _qubit_error(i, q, n)
            dead.discard(q)
            last[q] += 1
        else:
            qs = touched_qubits(op)  # a CondX; TypeError for an object that is no op
            layer = 1
            for q in qs:
                if not 0 <= q < n or q in dead:
                    raise _qubit_error(i, q, n)
                if last[q] >= layer:
                    layer = last[q] + 1
            if not 0 <= op.cbit < self.cbits:
                raise MalformedCircuitError(f"op {i}: cbit {op.cbit} out of range")
            if not qs:
                raise MalformedCircuitError(f"op {i}: CondX with no targets")
            if len(set(qs)) != len(qs):
                raise MalformedCircuitError(f"op {i}: CondX duplicate targets")
            if len(writes := self._writes.get(op.cbit, ())) != 1:
                raise MalformedCircuitError(f"op {i}: cbit {op.cbit} must be written by exactly "
                                            f"one earlier measurement, saw {len(writes)}")
            if writes[0] >= layer:
                layer = writes[0] + 1
            for q in qs:
                last[q] = layer
        self.emitted = i + 1
        return op


def _qubit_error(i: int, q: int, n: int) -> MalformedCircuitError:
    """The error of op i's qubit q, out of range or else measured and not reset since."""
    if not 0 <= q < n:
        return MalformedCircuitError(f"op {i}: qubit {q} out of range")
    return MalformedCircuitError(f"op {i}: qubit {q} used after measurement without reset")


def depth(c: Circuit) -> int:
    """ASAP-schedule layer count (0 for an empty circuit).

    The circuit found it once, when it was built, so this does not schedule.
    """
    return c._depth


def count_2q(c: Circuit) -> int:
    """The circuit's CX count, kept from its schedule walk."""
    return c._n_2q


def count_measurements(c: Circuit) -> int:
    """The circuit's MeasureZ count, kept from its schedule walk."""
    return c._n_meas


def export_qasm(c: Circuit) -> str:
    """Emit an OpenQASM 3 subset. Output is deterministic for equal input."""
    lines = ['OPENQASM 3.0;', 'include "stdgates.inc";']
    if c.cbit_count > 0:
        lines.append(f"bit[{c.cbit_count}] c;")
    lines.append(f"qubit[{c.qubit_count}] q;")
    for op in c.ops:
        if isinstance(op, CondX):
            body = " ".join(f"x q[{t}];" for t in op.targets)
            lines.append(f"if (c[{op.cbit}] == 1) {{ {body} }}")
        else:
            lines.append(_QASM[type(op)].format(op))
    return "\n".join(lines) + "\n"
