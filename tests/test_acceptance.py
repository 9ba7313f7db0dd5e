"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete. Statistical criteria use fixed master seeds, so the
whole suite is deterministic.
"""

import math
import statistics
import time

import numpy as np
import pytest

from ghz_synth.circuit import (
    CX,
    Circuit,
    CondX,
    H,
    MeasureZ,
    count_2q,
    count_measurements,
    depth,
    export_qasm,
)
from ghz_synth.growing import synthesize_growing
from ghz_synth.layouts import (
    average_degree,
    connected_erdos_renyi,
    eagle_127,
    random_connected_subgraph,
    rect_grid,
)
from ghz_synth.merging import (
    AbsoluteSize,
    HighestDegree,
    ScalingFactor,
    select_stars,
    synthesize_merging,
)
from ghz_synth.metrics import (
    certify,
    counts_to_distribution,
    ghz_ideal_distribution,
    hellinger_fidelity,
)
from ghz_synth.rng import derive_seed
from ghz_synth.stabilizer import NoiseModel, run, sample_counts
from ghz_synth.statevector import run_dense, state_fidelity
from ghz_synth.testutil import random_clifford_circuit, stabilizers_fix_state

MASTER = 987654321

MERGING_STRATEGIES = (
    HighestDegree(),
    ScalingFactor(0.7),
    ScalingFactor(1.0),
    ScalingFactor(1.3),
)


def _report(label: str, ok: bool, detail: str = ""):
    tail = f"  ({detail})" if detail else ""
    print(f"{'PASS' if ok else 'FAIL'}  {label}{tail}")
    assert ok, f"{label}{tail}"


def _exactness_layouts():
    cases = []
    eagle = eagle_127()
    grid = rect_grid(12, 9)
    for n in (5, 20, 50, 100, 127):
        for s in range(20):
            g, _ = random_connected_subgraph(eagle, n, derive_seed(MASTER, "eagle", n, s))
            cases.append(("eagle", n, s, g))
    for n in (5, 20, 50, 100):
        for s in range(20):
            g, _ = random_connected_subgraph(grid, n, derive_seed(MASTER, "grid", n, s))
            cases.append(("grid", n, s, g))
    for p in (0.1, 0.5, 1.0):
        for n in (5, 20, 50, 100):
            for s in range(20):
                g = connected_erdos_renyi(n, p, derive_seed(MASTER, "er", p, n, s))
                cases.append((f"er(p={p})", n, s, g))
    return cases


@pytest.fixture(scope="module")
def exactness_runs():
    """Shared synthesis + certificate for criteria 1 and 2: each run's certify
    refusal (None if certified) and whether its measurement count is the protocol's."""
    t0 = time.monotonic()
    results = []
    for family, n, s, g in _exactness_layouts():
        for strategy in (None, *MERGING_STRATEGIES):
            circ = synthesize_growing(g) if strategy is None else synthesize_merging(g, strategy)
            try:
                certify(circ, g, derive_seed(MASTER, "sim", family, n, s, str(strategy)))
                refusal = None
            except ValueError as exc:
                refusal = f"{family} n={n} s={s} {strategy}: {exc}"
            # certify holds n_2q = N - 1 + n_meas; the protocol fixes n_meas:
            # none for growing, one per merge of the stars
            n_meas = 0 if strategy is None else len(select_stars(g, strategy)) - 1
            results.append((refusal, count_measurements(circ) == n_meas))
    return results, time.monotonic() - t0


def test_c1_exact_ghz_correctness(exactness_runs):
    results, elapsed = exactness_runs
    refusals = [refusal for refusal, _ in results if refusal]
    _report(
        "criterion 1: certified on eagle/grid/ER, both protocols, all strategies",
        not refusals and elapsed < 300.0,
        f"{len(results)} runs, {elapsed:.1f}s" + (f"; first: {refusals[0]}" if refusals else ""),
    )


def test_c2_count_identities(exactness_runs):
    results, _ = exactness_runs
    ok = all(meas_ok for _, meas_ok in results)
    _report("criterion 2: one measurement per merge, none for growing, on every run", ok)


def _merge_primitive(n: int, m: int) -> Circuit:
    """Two star GHZ states (sizes n+1, m+1) fused across one bridge edge,
    without the re-add step: qubit layout [keeper center, n keeper leaves,
    absorbed center, m absorbed leaves]."""
    kc, ac = 0, n + 1
    ops = [H(kc)] + [CX(kc, i) for i in range(1, n + 1)]
    ops += [H(ac)] + [CX(ac, i) for i in range(n + 2, n + m + 2)]
    ops += [CX(kc, ac), MeasureZ(ac, 0), CondX(tuple(range(n + 2, n + m + 2)), 0)]
    return Circuit(n + m + 2, 1, tuple(ops))


def test_c3_merge_oracle_equivalence():
    checked = 0
    ok = True
    for n in range(1, 9):
        for m in range(1, 9):
            if n + m + 1 > 10:
                continue
            for branch in (0, 1):
                for s in range(10):
                    circ = _merge_primitive(n, m)
                    out = run_dense(circ, derive_seed(MASTER, "c3", n, m, branch, s),
                                    forced_outcomes=[branch])
                    # expected: GHZ on the n+m+1 unmeasured qubits, |branch> on
                    # the measured bridge qubit at position n+1
                    total = n + m + 2
                    expect = np.zeros(2**total, dtype=complex)
                    bit = 2 ** (total - 1 - (n + 1))
                    lo = branch * bit
                    hi = (2**total - 1) ^ ((1 - branch) * bit)
                    expect[lo] = expect[hi] = 1 / math.sqrt(2)
                    fid = state_fidelity(out.state, expect)
                    if abs(fid - 1.0) > 1e-10:
                        ok = False
                    checked += 1
    _report("criterion 3: merge primitive = ideal GHZ on both branches (dense oracle)",
            ok, f"{checked} branch runs, tolerance 1e-10")


def test_c4_stabilizer_vs_oracle():
    ok = True
    for i in range(200):
        circ = random_clifford_circuit(10, 60, seed=derive_seed(MASTER, "c4", i))
        tab_out = run(circ, derive_seed(MASTER, "c4run", i))
        dense = run_dense(circ, 0, forced_outcomes=tab_out.outcome_log)
        if not stabilizers_fix_state(tab_out.tableau, dense.state):
            ok = False
    _report("criterion 4: 200 random Clifford circuits, tableau stabilizes dense state", ok)


@pytest.fixture(scope="module")
def hardware_sweeps():
    data = {}
    for name, src in (("eagle", eagle_127()), ("grid", rect_grid(12, 9))):
        for n in (20, 40, 60, 80, 100):
            dg, dm, qg, qm = [], [], [], []
            for s in range(100):
                g, _ = random_connected_subgraph(src, n, derive_seed(MASTER, "c5", name, n, s))
                cg = synthesize_growing(g)
                cm = synthesize_merging(g, HighestDegree())
                dg.append(depth(cg))
                dm.append(depth(cm))
                qg.append(count_2q(cg))
                qm.append(count_2q(cm))
            data[(name, n)] = (
                statistics.mean(dg), statistics.mean(dm),
                statistics.mean(qg), statistics.mean(qm),
            )
    return data


def test_c5_hardware_layout_trends(hardware_sweeps):
    ok = True
    details = []
    for name in ("eagle", "grid"):
        dg, dm, _, _ = hardware_sweeps[(name, 100)]
        ok &= dm < dg
        details.append(f"{name} N=100 depth merge {dm:.1f} < grow {dg:.1f}")
        for n in (20, 40, 60, 80, 100):
            _, _, qg, qm = hardware_sweeps[(name, n)]
            ok &= qm > qg
    _report("criterion 5: merging shallower, more 2q gates than growing (eagle+grid)",
            ok, "; ".join(details))


def test_c6_random_graph_trends():
    means = {}
    for f in (0.7, 1.0, 1.3):
        ds, ms = [], []
        for s in range(100):
            g = connected_erdos_renyi(100, 0.5, derive_seed(MASTER, "c6", s))
            c = synthesize_merging(g, ScalingFactor(f))
            ds.append(depth(c))
            ms.append(count_measurements(c))
        means[f] = (statistics.mean(ds), statistics.mean(ms))
    depth_ok = means[0.7][0] < means[1.0][0] < means[1.3][0]
    meas_ok = means[0.7][1] > means[1.0][1] > means[1.3][1]

    p_meas = {}
    for p in (0.1, 0.5):
        ms = []
        for s in range(100):
            g = connected_erdos_renyi(100, p, derive_seed(MASTER, "c6p", p, s))
            ms.append(count_measurements(synthesize_merging(g, HighestDegree())))
        p_meas[p] = statistics.mean(ms)
    sparse_ok = p_meas[0.1] > p_meas[0.5]
    _report(
        "criterion 6: ER scaling-factor trade-off and sparse-graph measurements",
        depth_ok and meas_ok and sparse_ok,
        f"depth {means[0.7][0]:.1f}<{means[1.0][0]:.1f}<{means[1.3][0]:.1f}, "
        f"meas {means[0.7][1]:.2f}>{means[1.0][1]:.2f}>{means[1.3][1]:.2f}, "
        f"p=0.1 meas {p_meas[0.1]:.1f} > p=0.5 {p_meas[0.5]:.1f}",
    )


def _partition(g, strategy):
    return tuple((s.center, s.leaves) for s in select_stars(g, strategy))


def _records(g, strategy):
    c = synthesize_merging(g, strategy)
    return depth(c), count_2q(c), count_measurements(c)


def test_c7_strategy_equivalence():
    ok = True
    eagle = eagle_127()
    # any connected subgraph with N >= 26 has average degree >= 2 - 2/26,
    # so round-half-away(1.3 * avg) = 3 = the eagle's maximum degree and the
    # three selection rules provably coincide
    for n in (26, 50, 100, 127):
        for s in range(20):
            g, _ = random_connected_subgraph(eagle, n, derive_seed(MASTER, "c7e", n, s))
            target = math.floor(1.3 * average_degree(g) + 0.5)
            ok &= target >= 3
            parts = [_partition(g, st) for st in
                     (HighestDegree(), ScalingFactor(1.3), AbsoluteSize(4))]
            ok &= parts[0] == parts[1] == parts[2]
            recs = [_records(g, st) for st in
                    (HighestDegree(), ScalingFactor(1.3), AbsoluteSize(4))]
            ok &= recs[0] == recs[1] == recs[2]
    grid = rect_grid(12, 9)
    # AbsoluteSize(5) targets degree 4 = the grid's maximum, so it always
    # coincides with HighestDegree; ScalingFactor needs round(f*avg) >= 4,
    # asserted per sample below and guaranteed on the full grid (avg 3.611)
    for n in (20, 60, 100):
        for s in range(20):
            g, _ = random_connected_subgraph(grid, n, derive_seed(MASTER, "c7g", n, s))
            ok &= _partition(g, AbsoluteSize(5)) == _partition(g, HighestDegree())
            ok &= _records(g, AbsoluteSize(5)) == _records(g, HighestDegree())
    for n in (80, 100, 108):
        for s in range(20):
            if n == 108:
                g = grid
            else:
                g, _ = random_connected_subgraph(grid, n, derive_seed(MASTER, "c7g13", n, s))
            target = math.floor(1.3 * average_degree(g) + 0.5)
            ok &= target >= 4
            ok &= _partition(g, ScalingFactor(1.3)) == _partition(g, HighestDegree())
    for f in (1.0, 1.3):
        ok &= _partition(grid, ScalingFactor(f)) == _partition(grid, HighestDegree())
        ok &= _records(grid, ScalingFactor(f)) == _records(grid, HighestDegree())
    _report("criterion 7: equal-target strategies give identical partitions and records", ok)


def test_c8_fidelity_pipeline():
    eagle = eagle_127()
    # noiseless sampled fidelity at 4096 shots
    noiseless_ok = True
    for n in (2, 5, 10, 15, 20):
        g, _ = random_connected_subgraph(eagle, n, derive_seed(MASTER, "c8n", n))
        for circ in (synthesize_growing(g), synthesize_merging(g, HighestDegree())):
            counts = sample_counts(circ, 4096, derive_seed(MASTER, "c8s", n))
            fid = hellinger_fidelity(
                ghz_ideal_distribution(n), counts_to_distribution(counts, 4096)
            )
            noiseless_ok &= fid >= 0.98

    noise = NoiseModel(p1=1e-3, p2=1e-2, pm=1e-2, pr=1e-2)
    means = {"growing": [], "merging": []}
    for n in range(3, 16):
        for proto in ("growing", "merging"):
            fs = []
            for s in range(20):
                g, _ = random_connected_subgraph(eagle, n, derive_seed(MASTER, "c8f", n, s))
                circ = (
                    synthesize_growing(g)
                    if proto == "growing"
                    else synthesize_merging(g, HighestDegree())
                )
                counts = sample_counts(circ, 4096, derive_seed(MASTER, "c8fs", proto, n, s), noise)
                fs.append(
                    hellinger_fidelity(
                        ghz_ideal_distribution(n), counts_to_distribution(counts, 4096)
                    )
                )
            means[proto].append(statistics.mean(fs))
    mono_ok = all(
        means[proto][i + 1] <= means[proto][i]
        for proto in means
        for i in range(len(means[proto]) - 1)
    )
    order_ok = means["growing"][-1] >= means["merging"][-1]
    _report(
        "criterion 8: fidelity pipeline (noiseless >= 0.98; noisy monotone; grow >= merge)",
        noiseless_ok and mono_ok and order_ok,
        f"grow N=15 {means['growing'][-1]:.3f} vs merge {means['merging'][-1]:.3f}",
    )


def test_c9_qasm_export():
    def make():
        g = rect_grid(1, 5)
        return export_qasm(synthesize_merging(g, HighestDegree()))

    text_a, text_b = make(), make()
    two_star = len(select_stars(rect_grid(1, 5), HighestDegree())) == 2
    ok = (
        two_star
        and "measure" in text_a
        and "reset" in text_a
        and "if (" in text_a
        and text_a == text_b
    )
    _report("criterion 9: QASM export has measure/reset/conditional, byte-stable", ok)
