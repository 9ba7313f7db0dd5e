"""Synthesis at about 16k qubits: both protocols meet their count identities.

No timing is asserted; the test exists so that a synthesis loop that turns
quadratic again makes the suite take minutes instead of about a second.
"""

import pytest

from ghz_synth.circuit import count_2q, count_measurements
from ghz_synth.growing import synthesize_growing
from ghz_synth.layouts import heavy_hex, rect_grid
from ghz_synth.merging import HighestDegree, synthesize_merging

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
