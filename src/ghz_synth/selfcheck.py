"""Built-in property suite over small instances, behind `ghz-synth verify`.

Every check is deterministic and fast; together they cover the layout
generators' documented layouts, Eagle's pinned by a digest, the certificate
of both protocols' circuits on small layouts (`metrics.certify`: qubit
count, every CX on a layout edge, the count identity and exact GHZ output),
merge corrections on both measurement branches, agreement between the
stabilizer tableau and the dense state vector, noisy sampling that replays
shot for shot as single runs, the noise sampler against its scalar
reference, and the rejection of malformed circuits when they are built.
"""

from __future__ import annotations

import hashlib
from collections import Counter

from . import layouts
from .bench import ProtocolSpec
from .circuit import CX, Circuit, CondX, H, MalformedCircuitError, MeasureZ
from .circuit import count_measurements, depth
from .merging import HighestDegree, ScalingFactor, select_stars, synthesize_merging
from .metrics import certify
from .rng import CounterStream, derive_seed, shot_keys
from .stabilizer import NoiseModel, run, sample_counts
from .statevector import ghz_state, run_dense, state_fidelity
from .testutil import random_clifford_circuit, scalar_skips, sorted_skips, stabilizers_fix_state

SEED = 20250601
# SHA-256 of the JSON of the published 127-qubit Eagle r3 coupling map
EAGLE_SHA256 = "4fcc915ef5b6f8234fff967ffad7426eac9cf9934ba9960ff159b618c49029e2"
# the protocol variants that the synthesis checks synthesize on every small layout
_PROTOCOLS = (
    ProtocolSpec("growing"),
    ProtocolSpec("merging", HighestDegree()),
    ProtocolSpec("merging", ScalingFactor(0.7)),
    ProtocolSpec("merging", ScalingFactor(1.0)),
)


def _small_layouts() -> list[tuple[str, layouts.LayoutGraph]]:
    out = []
    eagle = layouts.eagle_127()
    grid = layouts.rect_grid(4, 3)
    for i in range(3):
        sub, _ = layouts.random_connected_subgraph(eagle, 9, derive_seed(SEED, "eagle", i))
        out.append((f"eagle9_{i}", sub))
    out.append(("grid4x3", grid))
    for i in range(3):
        out.append(
            (f"er10_{i}", layouts.connected_erdos_renyi(10, 0.4, derive_seed(SEED, "er", i)))
        )
    return out


def check_layout_invariants() -> bool:
    """The generators' documented layouts: heavy_hex(7, 15) is the published Eagle r3
    coupling map, by the SHA-256 of its JSON, and eagle_127() is that graph; an r x c
    grid has r(c - 1) + c(r - 1) edges."""
    eagle = layouts.heavy_hex(7, 15)
    if hashlib.sha256(eagle.to_json().encode()).hexdigest() != EAGLE_SHA256:
        return False
    if layouts.eagle_127() != eagle:
        return False
    grids = ((1, 1), (1, 5), (4, 3), (6, 6))
    return all(layouts.rect_grid(r, c).edge_count == r * (c - 1) + c * (r - 1) for r, c in grids)


def check_certified_synthesis() -> bool:
    # select_stars is the independent reference for the measurement count;
    # certify's refusal propagates, so the failure reason names its property
    for name, g in _small_layouts():
        for spec in _PROTOCOLS:
            circ = spec.synthesize(g)
            n_meas = 0 if spec.strategy is None else len(select_stars(g, spec.strategy)) - 1
            if count_measurements(circ) != n_meas:
                return False
            certify(circ, g, derive_seed(SEED, "ghz", name))
    return True


def check_merge_branches() -> bool:
    g = layouts.rect_grid(1, 5)
    circ = synthesize_merging(g, ScalingFactor(1.0))
    if count_measurements(circ) == 0:
        return False
    for branch in (0, 1):
        # pin the merge measurement, replay the same branch on the dense sim
        tab_out = run(circ, SEED, forced_outcomes=[branch])
        dense = run_dense(circ, SEED, forced_outcomes=tab_out.outcome_log)
        if abs(state_fidelity(dense.state, ghz_state(g.node_count)) - 1.0) > 1e-10:
            return False
    return True


def check_tableau_vs_dense() -> bool:
    for i in range(25):
        circ = random_clifford_circuit(
            n_qubits=5, n_ops=30, seed=derive_seed(SEED, "clifford", i)
        )
        tab_out = run(circ, derive_seed(SEED, "run", i))
        dense = run_dense(circ, 0, forced_outcomes=tab_out.outcome_log)
        if not stabilizers_fix_state(tab_out.tableau, dense.state):
            return False
    return True


def check_shot_replay() -> bool:
    """Shot s of a heavy-noise sample_counts is run() with key shot_keys(m, shots)[s],
    that is (derive_seed(m, "shot") + s) mod 2**64.

    70 shots cross a 64-shot word; the merging circuit has mid-circuit
    measurements, corrections and resets, and the noise flips readouts and
    resets as well as gates. run() replays the circuit with its terminal
    readout appended, one shot at a time.
    """
    circ = synthesize_merging(layouts.rect_grid(2, 4), ScalingFactor(1.0))
    noise = NoiseModel(p1=0.05, p2=0.1, pm=0.1, pr=0.1)
    shots, n, k = 70, circ.qubit_count, circ.cbit_count
    counts = sample_counts(circ, shots, SEED, noise)
    readout = Circuit(n, k + n, circ.ops + tuple(MeasureZ(q, k + q) for q in range(n)))
    replay = Counter(
        "".join(map(str, run(readout, key, noise).cbits[k:]))
        for key in shot_keys(SEED, shots).tolist()
    )
    return count_measurements(circ) > 0 and counts == replay


def check_skip_sampler() -> bool:
    """The vectorized noise sampler finds exactly the hits of its scalar reference,
    across a 64-shot word, rare and certain errors included."""
    keys = shot_keys(SEED, 70)
    stream = CounterStream(keys)
    cases = [(p, m) for p in (0.01, 0.3, 1.0) for m in (1, 40)]
    return all(
        sorted_skips(stream, 2**62, p, m) == scalar_skips(keys, 2**62, p, m) for p, m in cases
    )


def check_depth_examples() -> bool:
    c1 = Circuit(3, 0, (H(0), CX(0, 1), CX(0, 2)))
    c2 = Circuit(4, 0, (H(0), CX(0, 1), CX(2, 3)))
    return depth(c1) == 3 and depth(c2) == 2


def check_malformed_rejected() -> bool:
    for n, cbits, ops in ((2, 1, (CondX((1,), 0),)), (2, -1, ())):
        try:
            Circuit(n, cbits, ops)
        except MalformedCircuitError:
            continue
        return False
    return True


def run_all() -> list[tuple[str, bool, str]]:
    """Run every check; each result is (name, passed, reason).

    The reason is empty unless the check raised, in which case it holds the
    exception type and message.
    """
    checks = [
        ("layout generators have their documented sizes", check_layout_invariants),
        ("synthesized circuits are certified on their layouts", check_certified_synthesis),
        ("merge corrections on both branches", check_merge_branches),
        ("tableau agrees with dense state vector", check_tableau_vs_dense),
        ("noisy sampled shots replay as single runs", check_shot_replay),
        ("noise sampler matches its scalar reference", check_skip_sampler),
        ("ASAP depth hand-scheduled examples", check_depth_examples),
        ("malformed circuits are rejected when built", check_malformed_rejected),
    ]
    results = []
    for name, fn in checks:
        try:
            results.append((name, bool(fn()), ""))
        except Exception as exc:
            results.append((name, False, f"{type(exc).__name__}: {exc}"))
    return results
