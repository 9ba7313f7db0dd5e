import pytest

from ghz_synth.circuit import CX, H, count_2q, count_measurements, depth
from ghz_synth.growing import synthesize_growing
from ghz_synth.layouts import (
    LayoutGraph,
    connected_erdos_renyi,
    eagle_127,
    random_connected_subgraph,
    rect_grid,
)
from ghz_synth.metrics import is_ghz
from ghz_synth.rng import derive_seed
from ghz_synth.schema import InputError
from ghz_synth.stabilizer import run


def eccentricity(g: LayoutGraph, start: int) -> int:
    dist = {start: 0}
    frontier = [start]
    d = 0
    while frontier:
        d += 1
        nxt = []
        for u in frontier:
            for v in g.neighbors(u):
                if v not in dist:
                    dist[v] = d
                    nxt.append(v)
        frontier = nxt
    return max(dist.values())


class TestGrowing:
    def test_path_example(self):
        g = rect_grid(1, 5)
        c = synthesize_growing(g)
        assert c.ops == (H(1), CX(1, 0), CX(1, 2), CX(2, 3), CX(3, 4))
        assert depth(c) == 5

    def test_star_graph_serial_depth(self):
        k = 6
        g = LayoutGraph(k + 1, tuple((0, i) for i in range(1, k + 1)))
        c = synthesize_growing(g)
        assert depth(c) == k + 1
        assert count_2q(c) == k

    def test_counts_forced(self):
        for seed in range(10):
            g = connected_erdos_renyi(25, 0.2, seed)
            c = synthesize_growing(g)
            assert count_2q(c) == 24
            assert count_measurements(c) == 0
            assert all(isinstance(op, (H, CX)) for op in c.ops)

    def test_parent_relation_is_spanning_tree(self):
        g, _ = random_connected_subgraph(eagle_127(), 40, seed=3)
        c = synthesize_growing(g)
        cx_ops = [op for op in c.ops if isinstance(op, CX)]
        assert len(cx_ops) == 39
        reached = {c.ops[0].q}
        for op in cx_ops:
            assert op.control in reached      # parent already in the state
            assert op.target not in reached   # each node joins exactly once
            assert g.has_edge(op.control, op.target)
            reached.add(op.target)
        assert reached == set(range(40))

    def test_depth_lower_bound_eccentricity(self):
        for seed in range(10):
            g = connected_erdos_renyi(30, 0.15, seed)
            start = max(range(30), key=lambda u: (g.degree(u), -u))
            assert depth(synthesize_growing(g)) >= eccentricity(g, start) + 1

    def test_exact_ghz_over_random_layouts(self):
        for s in range(100):
            kind = s % 3
            if kind == 0:
                g = connected_erdos_renyi(3 + s % 14, 0.3, derive_seed(12, s))
            elif kind == 1:
                g, _ = random_connected_subgraph(eagle_127(), 4 + s % 20, derive_seed(13, s))
            else:
                g, _ = random_connected_subgraph(rect_grid(6, 6), 4 + s % 20, derive_seed(14, s))
            c = synthesize_growing(g)
            assert is_ghz(run(c, s).tableau, g.node_count)

    def test_start_node_highest_degree_lowest_index(self):
        # degrees: 1:2, 2:2, 3:2 on a path of 5 -> start at 1
        g = rect_grid(1, 5)
        assert synthesize_growing(g).ops[0] == H(1)

    def test_rejects_disconnected(self):
        # refused when the layout is built, so growing never sees it
        with pytest.raises(InputError, match=r"^edges: layout graph must be connected"):
            LayoutGraph(4, ((0, 1), (2, 3)))
