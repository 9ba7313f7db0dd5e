"""Circuit intermediate representation.

Operations are plain immutable records; a circuit is an ordered list of them
plus qubit/classical-bit counts. Depth is computed by ASAP list scheduling:
every operation occupies one layer on each qubit it touches, and a
classically controlled X cannot share or precede the layer of the
measurement that produced its control bit.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from typing import Union

from .schema import InputError, field

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


class MalformedCircuitError(InputError):
    """A circuit violates a structural invariant or its JSON form is malformed."""


@dataclass(frozen=True)
class H:
    q: int


@dataclass(frozen=True)
class X:
    q: int


@dataclass(frozen=True)
class CX:
    control: int
    target: int


@dataclass(frozen=True)
class MeasureZ:
    q: int
    cbit: int


@dataclass(frozen=True)
class Reset:
    q: int


@dataclass(frozen=True)
class CondX:
    """Apply X to every target iff the classical bit equals 1."""

    targets: tuple[int, ...]
    cbit: int


Operation = Union[H, X, CX, MeasureZ, Reset, CondX]


def touched_qubits(op: Operation) -> tuple[int, ...]:
    if isinstance(op, (H, X)):
        return (op.q,)
    if isinstance(op, CX):
        return (op.control, op.target)
    if isinstance(op, MeasureZ):
        return (op.q,)
    if isinstance(op, Reset):
        return (op.q,)
    if isinstance(op, CondX):
        return op.targets
    raise TypeError(f"unknown operation {op!r}")


@dataclass(frozen=True)
class Circuit:
    qubit_count: int
    cbit_count: int
    ops: tuple[Operation, ...]

    def validate(self) -> None:
        """Raise MalformedCircuitError if any invariant is violated.

        Checks index ranges, CX control != target, CondX target lists,
        single-writer classical bits read only after being written, and the
        convention that a measured qubit is untouched until it is reset.
        """
        writes: dict[int, int] = {}
        dead: set[int] = set()
        for i, op in enumerate(self.ops):
            for q in touched_qubits(op):
                if not 0 <= q < self.qubit_count:
                    raise MalformedCircuitError(f"op {i}: qubit {q} out of range")
            if isinstance(op, CX) and op.control == op.target:
                raise MalformedCircuitError(f"op {i}: CX control equals target")
            if isinstance(op, CondX):
                if not op.targets:
                    raise MalformedCircuitError(f"op {i}: CondX with no targets")
                if len(set(op.targets)) != len(op.targets):
                    raise MalformedCircuitError(f"op {i}: CondX duplicate targets")
                if not 0 <= op.cbit < self.cbit_count:
                    raise MalformedCircuitError(f"op {i}: cbit {op.cbit} out of range")
                if writes.get(op.cbit, 0) != 1:
                    raise MalformedCircuitError(
                        f"op {i}: cbit {op.cbit} must be written by exactly one "
                        f"earlier measurement, saw {writes.get(op.cbit, 0)}"
                    )
            if isinstance(op, MeasureZ) and not 0 <= op.cbit < self.cbit_count:
                raise MalformedCircuitError(f"op {i}: cbit {op.cbit} out of range")
            for q in touched_qubits(op):
                if q in dead and not isinstance(op, Reset):
                    raise MalformedCircuitError(
                        f"op {i}: qubit {q} used after measurement without reset"
                    )
            if isinstance(op, MeasureZ):
                writes[op.cbit] = writes.get(op.cbit, 0) + 1
                dead.add(op.q)
            elif isinstance(op, Reset):
                dead.discard(op.q)

    def to_json(self) -> str:
        ops = [
            {"tag": _TAGS[type(op)], **{f: getattr(op, f) for f in _FIELDS[type(op)]}}
            for op in self.ops
        ]
        return json.dumps({"n": self.qubit_count, "cbits": self.cbit_count, "ops": ops})

    @classmethod
    def from_json(cls, text: str) -> "Circuit":
        """Parse and validate a circuit; MalformedCircuitError names the bad field."""
        obj = json.loads(text)
        ops: list[Operation] = []
        for i, rec in enumerate(_field(obj, "ops", "", list)):
            path = f"ops[{i}]"
            tag = _field(rec, "tag", path, str)
            if tag not in _OPS_BY_TAG:
                raise MalformedCircuitError(f"{path}.tag: unknown op tag {tag!r}")
            op_type = _OPS_BY_TAG[tag]
            ops.append(op_type(*(_field(rec, f, path, _KINDS[f]) for f in _FIELDS[op_type])))
        circuit = cls(_field(obj, "n", "", int), _field(obj, "cbits", "", int), tuple(ops))
        circuit.validate()
        return circuit


# JSON tag of each operation type; a record's other keys are the op's fields
_TAGS = {H: "h", X: "x", CX: "cx", MeasureZ: "measure_z", Reset: "reset", CondX: "cond_x"}
_OPS_BY_TAG = {tag: op_type for op_type, tag in _TAGS.items()}
_FIELDS = {op_type: tuple(f.name for f in fields(op_type)) for op_type in _TAGS}
_KINDS = {"q": int, "control": int, "target": int, "cbit": int, "targets": tuple}


def _field(rec, key: str, path: str, kind: type):
    return field(rec, key, path, kind, error=MalformedCircuitError, root="circuit")


class Schedule:
    """Incremental ASAP list scheduler: the layer assignment behind depth().

    last[q] is the layer of the latest operation on qubit q and depth the
    highest layer so far. Synthesis emits operations as it builds them and
    reads last[...] to pick the qubits that free up earliest.
    """

    def __init__(self, n: int):
        self.last = [0] * n
        self.depth = 0
        self._cbit_layer: dict[int, int] = {}

    def emit(self, op: Operation) -> None:
        last = self.last
        qs = touched_qubits(op)
        layer = 1 + max([last[q] for q in qs])
        if isinstance(op, CondX):
            layer = max(layer, self._cbit_layer[op.cbit] + 1)
        for q in qs:
            last[q] = layer
        if isinstance(op, MeasureZ):
            self._cbit_layer[op.cbit] = layer
        if layer > self.depth:
            self.depth = layer


def depth(c: Circuit) -> int:
    """ASAP-schedule layer count (0 for an empty circuit)."""
    c.validate()
    schedule = Schedule(c.qubit_count)
    for op in c.ops:
        schedule.emit(op)
    return schedule.depth


def count_2q(c: Circuit) -> int:
    return sum(1 for op in c.ops if isinstance(op, CX))


def count_measurements(c: Circuit) -> int:
    return sum(1 for op in c.ops if isinstance(op, MeasureZ))


def export_qasm(c: Circuit) -> str:
    """Emit an OpenQASM 3 subset. Output is deterministic for equal input."""
    c.validate()
    lines = ['OPENQASM 3.0;', 'include "stdgates.inc";']
    if c.cbit_count > 0:
        lines.append(f"bit[{c.cbit_count}] c;")
    lines.append(f"qubit[{c.qubit_count}] q;")
    for op in c.ops:
        if isinstance(op, H):
            lines.append(f"h q[{op.q}];")
        elif isinstance(op, X):
            lines.append(f"x q[{op.q}];")
        elif isinstance(op, CX):
            lines.append(f"cx q[{op.control}], q[{op.target}];")
        elif isinstance(op, MeasureZ):
            lines.append(f"c[{op.cbit}] = measure q[{op.q}];")
        elif isinstance(op, Reset):
            lines.append(f"reset q[{op.q}];")
        elif isinstance(op, CondX):
            body = " ".join(f"x q[{t}];" for t in op.targets)
            lines.append(f"if (c[{op.cbit}] == 1) {{ {body} }}")
    return "\n".join(lines) + "\n"
