"""Synthesis at about 16k qubits: both protocols meet their count identities;
and a dense Erdős–Rényi graph on 2000 nodes, pinned by digest.

No timing is asserted; the tests exist so that a synthesis loop that turns
quadratic again makes the suite take minutes instead of about a second, and
a return to one scalar draw per vertex pair (about 4 s at 2000 nodes, against
about 0.4 s for the array draws) shows as a slow suite. Memory is bounded:
merging synthesis on a 4096-qubit grid keeps its traced peak below 3 MiB,
growing synthesis on a 16384-qubit grid below 1.25 MiB, and the star list of
a 16384-qubit grid holds less than 1 MiB.
"""

import hashlib
import tracemalloc

import pytest

from ghz_synth.circuit import count_2q, count_measurements
from ghz_synth.growing import synthesize_growing
from ghz_synth.layouts import connected_erdos_renyi, heavy_hex, rect_grid
from ghz_synth.merging import HighestDegree, select_stars, synthesize_merging

LAYOUTS = {
    "heavy_hex_111x115": lambda: heavy_hex(111, 115),
    "grid_128x128": lambda: rect_grid(128, 128),
}


@pytest.mark.parametrize("layout", list(LAYOUTS))
def test_count_identities(layout):
    g = LAYOUTS[layout]()
    assert g.node_count > 15_000
    merged = synthesize_merging(g, HighestDegree())
    assert count_2q(merged) == g.node_count - 1 + count_measurements(merged)
    grown = synthesize_growing(g)
    assert count_2q(grown) == g.node_count - 1
    assert count_measurements(grown) == 0


def test_dense_erdos_renyi_2000():
    g = connected_erdos_renyi(2000, 0.5, 0)
    assert g.edge_count == 1_000_132
    # computed with the scalar per-pair generator, before the array draws
    assert hashlib.sha256(g.to_json().encode()).hexdigest() == (
        "273360a6fe05120ecefed159da48e1551b777e96a35f438cc193c5cf9828761e"
    )


def test_merging_synthesis_memory_peak():
    # about 1.9 MiB: the circuit's ops and the walk's per-node lists; a plan
    # of node sets built on every synthesis took it to 5.6 MiB
    g = rect_grid(64, 64)
    synthesize_merging(g, HighestDegree())
    tracemalloc.start()
    try:
        synthesize_merging(g, HighestDegree())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 2**20


def test_growing_synthesis_memory_peak():
    # about 1.04 MiB: the circuit's ops and the walk's frontier; running
    # growing as a one-piece merge, with member lists, a sorted partition
    # check and a component label per node, took it to 1.78 MiB
    g = rect_grid(128, 128)
    synthesize_growing(g)
    tracemalloc.start()
    try:
        synthesize_growing(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * 2**20


def test_star_list_memory():
    # about 0.5 MiB: one slotted Star and one tuple of leaves per star; a
    # frozenset of leaves per star took it to 1.77 MiB
    g = rect_grid(128, 128)
    tracemalloc.start()
    try:
        stars = select_stars(g, HighestDegree())
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(stars) > 3000
    assert held < 2**20
