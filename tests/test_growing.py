import pytest
from hypothesis import given, settings

from ghz_synth.circuit import CX, H, Schedule, depth
from ghz_synth.growing import synthesize_growing
from ghz_synth.layouts import (
    LayoutGraph,
    connected_erdos_renyi,
    eagle_127,
    random_connected_subgraph,
    rect_grid,
)
from ghz_synth.metrics import certify
from ghz_synth.rng import derive_seed
from ghz_synth.schema import InputError
from test_merging import connected_graphs


def bfs_distances(g: LayoutGraph, start: int) -> dict[int, int]:
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
    return dist


def eccentricity(g: LayoutGraph, start: int) -> int:
    return max(bfs_distances(g, start).values())


def assert_parents_free_earliest(g: LayoutGraph):
    """Each CX(w, v) of the growing circuit takes as w the neighbor of v one
    breadth-first layer nearer the start that is free earliest, ties broken
    by index, under the layers of the ops before it."""
    n = g.node_count
    start = max(range(n), key=lambda u: (g.degree(u), -u))
    dist = bfs_distances(g, start)
    c = synthesize_growing(g)
    assert c.ops[0] == H(start)
    schedule = Schedule(n, 0)
    for op in c.ops:
        if isinstance(op, CX):
            v, last = op.target, schedule.last
            parents = [w for w in g.neighbors(v) if dist[w] == dist[v] - 1]
            assert op.control == min(parents, key=lambda w: (last[w], w)), op
        schedule.emit(op)


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
        certify(c, g)

    def test_counts_forced(self):
        for seed in range(10):
            g = connected_erdos_renyi(25, 0.2, seed)
            c = synthesize_growing(g)
            certify(c, g)
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
            certify(synthesize_growing(g), g, s)

    @settings(max_examples=100, deadline=None)
    @given(g=connected_graphs())
    def test_parent_is_free_earliest(self, g):
        assert_parents_free_earliest(g)

    # dense layouts, where many previous-layer neighbors tie on the layer
    @pytest.mark.parametrize("n", [10, 30, 60])
    @pytest.mark.parametrize("p", [0.1, 0.5])
    @pytest.mark.parametrize("seed", range(3))
    def test_parent_is_free_earliest_on_erdos_renyi(self, n, p, seed):
        assert_parents_free_earliest(connected_erdos_renyi(n, p, derive_seed(16, n, seed)))

    def test_start_node_highest_degree_lowest_index(self):
        # degrees: 1:2, 2:2, 3:2 on a path of 5 -> start at 1
        g = rect_grid(1, 5)
        assert synthesize_growing(g).ops[0] == H(1)

    def test_rejects_disconnected(self):
        # refused when the layout is built, so growing never sees it
        with pytest.raises(InputError, match=r"^edges: layout graph must be connected"):
            LayoutGraph(4, ((0, 1), (2, 3)))
