import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghz_synth import circuit
from ghz_synth.circuit import (
    CX,
    Circuit,
    CondX,
    H,
    MalformedCircuitError,
    MeasureZ,
    Reset,
    Schedule,
    X,
    count_2q,
    count_measurements,
    depth,
    export_qasm,
    touched_qubits,
)
from ghz_synth.growing import synthesize_growing
from ghz_synth.layouts import eagle_127, rect_grid
from ghz_synth.merging import HighestDegree, synthesize_merging
from ghz_synth.rng import make_rng
from ghz_synth.schema import MAX_N
from ghz_synth.stabilizer import run, sample_counts
from ghz_synth.statevector import run_dense
from helpers import ReferenceSchedule, circ


class TestDepth:
    def test_empty(self):
        assert depth(circ(3, 0)) == 0

    def test_star_serializes_on_control(self):
        assert depth(circ(3, 0, H(0), CX(0, 1), CX(0, 2))) == 3

    def test_disjoint_gates_parallelize(self):
        assert depth(circ(4, 0, H(0), CX(0, 1), CX(2, 3))) == 2

    def test_measure_and_reset_each_one_layer(self):
        c = circ(1, 1, H(0), MeasureZ(0, 0), Reset(0))
        assert depth(c) == 3

    def test_condx_after_its_measurement(self):
        # the conditional X on a free qubit still cannot precede the measure
        c = circ(2, 1, MeasureZ(0, 0), CondX((1,), 0))
        assert depth(c) == 2

    def test_condx_single_layer_on_all_targets(self):
        c = circ(4, 1, MeasureZ(0, 0), CondX((1, 2, 3), 0))
        assert depth(c) == 2

    def test_condx_waits_for_busy_target(self):
        c = circ(3, 1, MeasureZ(0, 0), H(1), H(1), H(1), CondX((1, 2), 0))
        assert depth(c) == 4

    def test_lower_bound_busiest_qubit(self):
        rng = make_rng(17)
        for _ in range(20):
            n = 5
            ops = []
            for _ in range(15):
                a, b = rng.choice(n, size=2, replace=False)
                ops.append(CX(int(a), int(b)))
            c = circ(n, 0, *ops)
            busiest = max(
                sum(1 for op in ops if q in touched_qubits(op)) for q in range(n)
            )
            assert depth(c) >= busiest

    def test_invariant_under_commuting_swaps(self):
        # swapping adjacent ops that share no qubit and no classical
        # dependency must not change the ASAP depth
        rng = make_rng(23)
        base = [
            H(0), CX(0, 1), CX(2, 3), H(4), CX(4, 2), MeasureZ(3, 0),
            CondX((2, 4), 0), Reset(3), CX(1, 3), X(0), CX(0, 4),
        ]
        c0 = circ(5, 1, *base)
        d0 = depth(c0)
        ops = list(base)
        for _ in range(200):
            i = int(rng.integers(0, len(ops) - 1))
            a, b = ops[i], ops[i + 1]
            if set(touched_qubits(a)) & set(touched_qubits(b)):
                continue
            a_c = a.cbit if isinstance(a, (MeasureZ, CondX)) else None
            b_c = b.cbit if isinstance(b, (MeasureZ, CondX)) else None
            if a_c is not None and a_c == b_c:
                continue
            ops[i], ops[i + 1] = b, a
            try:
                assert depth(circ(5, 1, *ops)) == d0
            except MalformedCircuitError:
                ops[i], ops[i + 1] = a, b  # swap broke an ordering invariant


class TestCounts:
    def test_empty(self):
        assert count_2q(circ(2, 0)) == 0
        assert count_measurements(circ(2, 0)) == 0

    def test_star_k_leaves(self):
        k = 5
        ops = [H(0)] + [CX(0, i) for i in range(1, k + 1)]
        assert count_2q(circ(k + 1, 0, *ops)) == k

    def test_counts_invariant_under_relabeling(self):
        ops = [H(0), CX(0, 1), MeasureZ(1, 0), Reset(1), CX(0, 1)]
        c = circ(3, 1, *ops)
        perm = {0: 2, 1: 0, 2: 1}
        relabeled = [
            H(perm[0]), CX(perm[0], perm[1]), MeasureZ(perm[1], 0),
            Reset(perm[1]), CX(perm[0], perm[1]),
        ]
        c2 = circ(3, 1, *relabeled)
        assert count_2q(c) == count_2q(c2)
        assert count_measurements(c) == count_measurements(c2)


class TestValidation:
    def test_qubit_out_of_range(self):
        with pytest.raises(MalformedCircuitError):
            depth(circ(2, 0, H(2)))

    def test_cx_self_target(self):
        with pytest.raises(MalformedCircuitError):
            depth(circ(2, 0, CX(1, 1)))

    def test_condx_unwritten_cbit(self):
        with pytest.raises(MalformedCircuitError):
            depth(circ(2, 1, CondX((0,), 0)))

    def test_condx_empty_targets(self):
        with pytest.raises(MalformedCircuitError):
            depth(circ(2, 1, MeasureZ(0, 0), CondX((), 0)))

    def test_condx_duplicate_targets(self):
        with pytest.raises(MalformedCircuitError):
            depth(circ(3, 1, MeasureZ(0, 0), CondX((1, 1), 0)))

    def test_measured_qubit_needs_reset(self):
        with pytest.raises(MalformedCircuitError):
            depth(circ(2, 1, MeasureZ(0, 0), H(0)))

    def test_reset_revives_qubit(self):
        c = circ(2, 1, MeasureZ(0, 0), Reset(0), H(0))
        assert depth(c) == 3

    def test_touched_qubits_per_op_type(self):
        ops = (H(0), X(1), CX(2, 0), MeasureZ(3, 0), Reset(4), CondX((5, 1, 2), 0))
        assert [touched_qubits(op) for op in ops] == [(0,), (1,), (2, 0), (3,), (4,), (5, 1, 2)]

    def test_unknown_op_type_rejected(self):
        with pytest.raises(TypeError, match="unknown operation"):
            touched_qubits(("h", 0))
        with pytest.raises(TypeError, match="unknown operation"):
            circ(2, 0, H(0), "cx 0 1")


class TestValidByConstruction:
    def test_validated_once_when_built_and_never_by_consumers(self, monkeypatch):
        calls = []
        validate = Circuit.validate

        def counting(self):
            calls.append(self)
            validate(self)

        monkeypatch.setattr(Circuit, "validate", counting)
        c = synthesize_merging(eagle_127(), HighestDegree())
        assert calls == [c]
        depth(c), export_qasm(c), count_2q(c)
        run(c, seed=1)
        sample_counts(c, 64, seed=1)
        small = synthesize_merging(rect_grid(3, 4), HighestDegree())
        run_dense(small, seed=1)
        assert calls == [c, small]

    @pytest.mark.parametrize(
        "n, cbits, field",
        [(0, 0, "n"), (2, -1, "cbits"), (2, MAX_N + 1, "cbits"), (1, 2**63, "cbits")],
    )
    def test_bad_counts_rejected_in_both_forms(self, n, cbits, field):
        with pytest.raises(MalformedCircuitError, match=f"^{field}: "):
            Circuit(n, cbits, ())
        text = json.dumps({"n": n, "cbits": cbits, "ops": []})
        with pytest.raises(MalformedCircuitError, match=f"^{field}: "):
            Circuit.from_json(text)

    def test_invalid_ops_raise_at_construction(self):
        ops = (H(0), MeasureZ(0, 0), CX(0, 1))
        with pytest.raises(MalformedCircuitError, match="used after measurement"):
            Circuit(2, 1, ops)

    def test_ops_stored_as_tuple(self):
        c = Circuit(2, 0, [H(0)])
        assert type(c.ops) is tuple
        assert c == Circuit(2, 0, (H(0),))


class TestOneWalk:
    def test_depth_found_when_built_and_not_rescheduled(self, monkeypatch):
        calls = []
        emit = Schedule.emit

        def counting(self, op):
            calls.append(op)
            return emit(self, op)

        monkeypatch.setattr(Schedule, "emit", counting)
        ops = (H(0), CX(0, 1), MeasureZ(1, 0), CondX((2,), 0), Reset(1))
        c = Circuit(3, 1, ops)
        assert calls == list(ops)
        assert depth(c) == 4
        assert calls == list(ops)

    def test_depth_stays_out_of_equality_and_repr(self):
        c = circ(2, 0, H(0), CX(0, 1))
        assert c == Circuit(2, 0, (H(0), CX(0, 1)))
        for kept in ("_depth", "_n_2q", "_n_meas"):
            assert kept not in repr(c)
            object.__setattr__(c, kept, -1)
            assert c == Circuit(2, 0, (H(0), CX(0, 1)))

    def test_counts_kept_from_the_walk(self):
        c = circ(3, 2, H(0), CX(0, 1), MeasureZ(1, 0), CondX((2,), 0), Reset(1), CX(0, 1),
                 MeasureZ(2, 1))
        assert (count_2q(c), count_measurements(c)) == (2, 2)

    def test_inline_branches_never_touch_the_qubit_table(self, monkeypatch):
        calls = []
        touched = circuit.touched_qubits

        def counting(op):
            calls.append(op)
            return touched(op)

        monkeypatch.setattr(circuit, "touched_qubits", counting)
        schedule = Schedule(3, 1)
        for op in (H(0), X(1), CX(0, 1), MeasureZ(1, 0), Reset(1)):
            schedule.emit(op)
        assert calls == []
        schedule.emit(CondX((2,), 0))
        assert calls == [CondX((2,), 0)]

    def test_schedule_rejects_negative_qubit(self):
        with pytest.raises(MalformedCircuitError, match=r"^op 0: qubit -1 out of range$"):
            Schedule(3, 0).emit(H(-1))

    def test_schedule_names_op_reading_unwritten_bit(self):
        schedule = Schedule(2, 1)
        schedule.emit(H(0))
        with pytest.raises(
            MalformedCircuitError,
            match=r"^op 1: cbit 0 must be written by exactly one earlier measurement, saw 0$",
        ):
            schedule.emit(CondX((1,), 0))

    @pytest.mark.parametrize("layout", ["eagle", "grid16"])
    @pytest.mark.parametrize("protocol", ["growing", "merging"])
    def test_synthesis_emits_each_op_once(self, monkeypatch, layout, protocol):
        g = eagle_127() if layout == "eagle" else rect_grid(16, 16)
        emitted = []
        emit = Schedule.emit

        def counting(self, op):
            emitted.append(op)
            return emit(self, op)

        monkeypatch.setattr(Schedule, "emit", counting)
        if protocol == "growing":
            c = synthesize_growing(g)
        else:
            c = synthesize_merging(g, HighestDegree())
        assert emitted == list(c.ops)


_NON_OPS = ("cx 0 1", ("h", 0), None, 7)


@st.composite
def _op_sequences(draw):
    """n <= 6 qubits, cbits <= 3 and up to 12 ops, with indices in -1..n and -1..cbits.

    Hypothesis favours the ends of an integer range, so an index is drawn
    from a list that holds each in-range value four times, and a MeasureZ is
    often followed by a CondX on the same bit, as in a fuse, so that enough
    CondX find their bit written once.
    """
    n, cbits = draw(st.integers(1, 6)), draw(st.integers(0, 3))
    q = st.sampled_from([*range(n)] * 4 + [-1, n])
    b = st.sampled_from([*range(cbits)] * 4 + [-1, cbits])
    targets, corrected = (st.lists(q, min_size=k, max_size=4).map(tuple) for k in (0, 1))
    op = st.one_of(
        st.builds(H, q), st.builds(X, q), st.builds(CX, q, q), st.builds(MeasureZ, q, b),
        st.builds(Reset, q), st.builds(CondX, targets, b), st.sampled_from(_NON_OPS),
    )
    fuse = b.flatmap(lambda bit: st.tuples(st.builds(MeasureZ, q, st.just(bit)),
                                           st.builds(CondX, corrected, st.just(bit))))
    pieces = draw(st.lists(op.map(lambda one: (one,)) | fuse, max_size=12))
    return n, cbits, [op for piece in pieces for op in piece][:12]


def _emit_outcome(schedule, op):
    """(exception type, message) if schedule refuses op, else the op it returns."""
    try:
        return schedule.emit(op)
    except (MalformedCircuitError, TypeError) as exc:
        return type(exc), str(exc)


class TestScheduleBranches:
    @settings(max_examples=600, deadline=None)
    @given(_op_sequences())
    def test_matches_the_generic_loop(self, case):
        # a refused op leaves both schedules as they were, so each goes on
        # with the next op, and the rules of later ops are compared as well
        n, cbits, ops = case
        schedule, reference = Schedule(n, cbits), ReferenceSchedule(n, cbits)
        placed = []
        for op in ops:
            got = _emit_outcome(schedule, op)
            assert got == _emit_outcome(reference, op)
            assert schedule.last == reference.last
            if got is op:
                placed.append(op)
        assert schedule.emitted == reference.emitted == len(placed)
        assert schedule.n_2q == sum(type(op) is CX for op in placed)
        assert schedule.n_meas == sum(type(op) is MeasureZ for op in placed)


class TestOpSource:
    def test_source_reads_layers_of_ops_so_far(self):
        seen = []

        def source(last):
            for op in (H(0), CX(0, 1), MeasureZ(1, 0), CondX((2,), 0), X(0)):
                yield op
                seen.append(list(last))

        c = Circuit(3, 1, source)
        assert seen == [[1, 0, 0], [2, 2, 0], [2, 3, 0], [2, 3, 4], [3, 3, 4]]
        assert c.ops == (H(0), CX(0, 1), MeasureZ(1, 0), CondX((2,), 0), X(0))
        assert depth(c) == 4

    @pytest.mark.parametrize(
        "bad, message",
        [
            (CX(1, 1), "op 2: CX control equals target"),
            (H(0), "op 2: qubit 0 used after measurement without reset"),
            (CondX((1,), 1), "op 2: cbit 1 out of range"),
        ],
    )
    def test_source_breaking_a_rule_names_the_op(self, bad, message):
        drawn = []

        def source(last):
            for op in (H(0), MeasureZ(0, 0), bad, X(1)):
                drawn.append(op)
                yield op

        with pytest.raises(MalformedCircuitError, match=f"^{message}$"):
            Circuit(2, 1, source)
        assert drawn == [H(0), MeasureZ(0, 0), bad]

    @pytest.mark.parametrize("protocol", ["growing", "merging"])
    def test_source_and_tuple_build_equal_circuits(self, protocol):
        g = eagle_127()
        if protocol == "growing":
            c = synthesize_growing(g)
        else:
            c = synthesize_merging(g, HighestDegree())
        from_source = Circuit(c.qubit_count, c.cbit_count, lambda last: iter(c.ops))
        from_tuple = Circuit(c.qubit_count, c.cbit_count, tuple(c.ops))
        assert from_source == from_tuple == c
        assert type(from_source.ops) is tuple
        assert depth(from_source) == depth(from_tuple) == depth(c)


class TestJson:
    def test_round_trip_all_ops(self):
        c = circ(
            4, 1,
            H(0), X(1), CX(0, 2), MeasureZ(2, 0), CondX((1, 3), 0),
            Reset(2), CX(0, 2),
        )
        assert Circuit.from_json(c.to_json()) == c

    @pytest.mark.parametrize(
        "doc, path",
        [
            ({"cbits": 0, "ops": []}, "n"),
            ({"n": 2, "ops": []}, "cbits"),
            ({"n": 2, "cbits": 0}, "ops"),
            ({"n": 2, "cbits": 0, "ops": [{"tag": "cx", "control": 0}]}, r"ops\[0\]\.target"),
            ({"n": 2, "cbits": 0, "ops": [{"q": 0}]}, r"ops\[0\]\.tag"),
            ({"n": 2, "cbits": 0, "ops": [{"tag": "h", "q": 0}, {"tag": "zz"}]}, r"ops\[1\]\.tag"),
            ({"n": 2, "cbits": 0, "ops": [{"tag": "h", "q": "0"}]}, r"ops\[0\]\.q"),
            ({"n": True, "cbits": 0, "ops": []}, "n"),
            ({"n": 2, "cbits": 1, "ops": [{"tag": "cond_x", "targets": 1, "cbit": 0}]},
             r"ops\[0\]\.targets"),
            ({"n": 2, "cbits": 0, "ops": [7]}, r"ops\[0\]"),
            ([], "circuit"),
        ],
    )
    def test_malformed_document_names_field(self, doc, path):
        with pytest.raises(MalformedCircuitError, match=f"^{path}: "):
            Circuit.from_json(json.dumps(doc))

    def test_numpy_index_ops_give_plain_json(self):
        i = np.int64
        ops = (H(i(0)), X(np.uint8(1)), CX(i(0), 1), MeasureZ(i(1), i(0)),
               CondX((i(2), np.int32(3)), i(0)), Reset(i(1)))
        plain = (H(0), X(1), CX(0, 1), MeasureZ(1, 0), CondX((2, 3), 0), Reset(1))
        text = Circuit(4, 1, ops).to_json()
        assert text == Circuit(4, 1, plain).to_json()
        assert Circuit.from_json(text) == Circuit(4, 1, ops)

    def test_numpy_counts_give_plain_json(self):
        c = Circuit(np.int64(2), np.uint8(1), (H(0), MeasureZ(0, 0)))
        assert c.to_json() == Circuit(2, 1, (H(0), MeasureZ(0, 0))).to_json()
        assert type(c.qubit_count) is type(c.cbit_count) is int

    def test_from_json_validates(self):
        text = json.dumps({"n": 2, "cbits": 0, "ops": [{"tag": "h", "q": 2}]})
        with pytest.raises(MalformedCircuitError, match="qubit 2 out of range"):
            Circuit.from_json(text)


class TestQasm:
    def test_single_h(self):
        text = export_qasm(circ(1, 0, H(0)))
        assert text.count("h ") == 1

    def test_measure_and_conditional(self):
        c = circ(2, 1, H(0), MeasureZ(0, 0), CondX((1,), 0))
        text = export_qasm(c)
        assert "measure" in text
        assert "if (" in text

    def test_reset_present(self):
        c = circ(2, 1, MeasureZ(0, 0), Reset(0))
        assert "reset" in export_qasm(c)

    def test_deterministic(self):
        c = circ(3, 1, H(0), CX(0, 1), MeasureZ(1, 0), CondX((2,), 0), Reset(1))
        assert export_qasm(c) == export_qasm(c)

    def test_declarations(self):
        text = export_qasm(circ(5, 2, MeasureZ(0, 0), MeasureZ(1, 1)))
        assert "qubit[5] q;" in text
        assert "bit[2] c;" in text
        assert text.startswith("OPENQASM 3.0;")
