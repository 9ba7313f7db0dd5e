import json

import pytest

from ghz_synth.circuit import (
    CX,
    Circuit,
    CondX,
    H,
    MalformedCircuitError,
    MeasureZ,
    Reset,
    X,
    count_2q,
    count_measurements,
    depth,
    export_qasm,
    touched_qubits,
)
from ghz_synth.rng import make_rng


def circ(n, cbits, *ops):
    return Circuit(n, cbits, tuple(ops))


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
