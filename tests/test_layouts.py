import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghz_synth import layouts, schema
from ghz_synth.layouts import (
    LayoutGraph,
    average_degree,
    connected_erdos_renyi,
    eagle_127,
    heavy_hex,
    random_connected_subgraph,
    rect_grid,
)
from ghz_synth.rng import make_rng
from helpers import scalar_erdos_renyi


def bfs_connected(g: LayoutGraph) -> bool:
    # independent check, no reliance on LayoutGraph.is_connected
    adj = {i: set() for i in range(g.node_count)}
    for u, v in g.edges:
        adj[u].add(v)
        adj[v].add(u)
    seen = {0}
    queue = [0]
    while queue:
        x = queue.pop()
        for y in adj[x]:
            if y not in seen:
                seen.add(y)
                queue.append(y)
    return len(seen) == g.node_count


class TestEagle:
    def test_node_count(self):
        assert eagle_127().node_count == 127

    def test_max_degree_three(self):
        g = eagle_127()
        assert max(g.degree(u) for u in range(g.node_count)) == 3

    def test_edge_count_matches_data_file(self):
        # the published Eagle r3 coupling map, one "u v" pair per line, u < v
        text = (Path(__file__).parent / "data" / "eagle_r3_edges.txt").read_text()
        published = [tuple(map(int, line.split())) for line in text.splitlines() if line.strip()]
        assert len(published) == 144
        assert list(eagle_127().edges) == published

    def test_connected(self):
        assert bfs_connected(eagle_127())


class TestRectGrid:
    def test_single_node(self):
        g = rect_grid(1, 1)
        assert g.node_count == 1 and g.edge_count == 0

    def test_two_by_two(self):
        g = rect_grid(2, 2)
        assert g.node_count == 4 and g.edge_count == 4
        assert all(g.degree(u) == 2 for u in range(4))

    def test_five_by_five_max_degree(self):
        g = rect_grid(5, 5)
        assert max(g.degree(u) for u in range(25)) == 4

    def test_indexing_convention(self):
        g = rect_grid(3, 4)
        # node (r, c) = r*4 + c; (1,2)=6 neighbors: (0,2)=2, (2,2)=10, (1,1)=5, (1,3)=7
        assert set(g.neighbors(6)) == {2, 10, 5, 7}

    @pytest.mark.parametrize("rows,cols", [(0, 3), (3, 0), (0, 0)])
    def test_zero_dimension_rejected(self, rows, cols):
        with pytest.raises(ValueError):
            rect_grid(rows, cols)

    def test_connected(self):
        assert bfs_connected(rect_grid(7, 3))

    def test_node_count_checked_before_any_edge(self, monkeypatch):
        # the message names rows, not the n of the LayoutGraph it never builds
        monkeypatch.setattr(schema, "MAX_N", 100)
        with pytest.raises(ValueError, match=r"^rows: rows x cols must be <= 100, got 20x20$"):
            rect_grid(20, 20)
        assert rect_grid(10, 10).node_count == 100


class TestHeavyHex:
    def test_7x15_is_eagle(self):
        assert heavy_hex(7, 15).edges == eagle_127().edges
        assert heavy_hex(7, 15) == eagle_127()

    def test_one_cell_numbering(self):
        # chains 0-4, 7-11 and 13-15 (corners (2,0), (2,4) dropped),
        # bridges 5 and 6 below chain 0, bridge 12 below chain 1
        assert heavy_hex(3, 5).edges == (
            (0, 1), (0, 5), (1, 2), (2, 3), (3, 4), (4, 6), (5, 7), (6, 11),
            (7, 8), (8, 9), (9, 10), (9, 12), (10, 11), (12, 14), (13, 14), (14, 15),
        )

    @pytest.mark.parametrize("rows,cols", [(1, 3), (2, 3), (3, 3), (4, 7), (9, 23), (12, 18)])
    def test_connected_degree_at_most_three(self, rows, cols):
        g = heavy_hex(rows, cols)
        assert bfs_connected(g)
        assert max(g.degree(u) for u in range(g.node_count)) <= 3

    @pytest.mark.parametrize("rows,cols", [(0, 15), (3, 2), (-1, 5)])
    def test_small_dimensions_rejected(self, rows, cols):
        with pytest.raises(ValueError):
            heavy_hex(rows, cols)

    def test_node_count_checked_before_any_edge(self, monkeypatch):
        # rows x cols is refused up front, in rect_grid's words; the bridges
        # make the node count larger, and LayoutGraph keeps the exact bound
        monkeypatch.setattr(schema, "MAX_N", 100)
        with pytest.raises(ValueError, match=r"^rows: rows x cols must be <= 100, got 20x20$"):
            heavy_hex(20, 20)
        with pytest.raises(ValueError, match=r"^n: must be <= 100, got 121$"):
            heavy_hex(10, 10)
        assert heavy_hex(5, 15).node_count == 89


class TestConnectedErdosRenyi:
    def test_single_node(self):
        g = connected_erdos_renyi(1, 0.5, seed=1)
        assert g.node_count == 1 and g.edge_count == 0

    def test_node_count_checked_before_any_draw(self, monkeypatch):
        def no_stream(seed):
            raise AssertionError("drew before checking n")

        monkeypatch.setattr(schema, "MAX_N", 100)
        monkeypatch.setattr(layouts, "make_rng", no_stream)
        with pytest.raises(ValueError, match=r"^n: must be <= 100, got 101$"):
            connected_erdos_renyi(101, 0.5, seed=1)

    def test_p_one_gives_complete_graph(self):
        for seed in (0, 7, 123):
            g = connected_erdos_renyi(6, 1.0, seed)
            assert g.edge_count == 15

    def test_always_connected(self):
        for seed in range(1000):
            g = connected_erdos_renyi(50, 0.1, seed)
            assert bfs_connected(g)

    def test_reproducible(self):
        a = connected_erdos_renyi(30, 0.2, seed=99)
        b = connected_erdos_renyi(30, 0.2, seed=99)
        assert a.edges == b.edges

    def test_different_seeds_differ(self):
        a = connected_erdos_renyi(30, 0.2, seed=1)
        b = connected_erdos_renyi(30, 0.2, seed=2)
        assert a.edges != b.edges

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 70),
        p=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
        seed=st.integers(0, 2**63 - 1),
    )
    def test_matches_scalar_reference(self, n, p, seed):
        assert connected_erdos_renyi(n, p, seed).edges == scalar_erdos_renyi(n, p, seed).edges

    @pytest.mark.parametrize("n", [1, 2, 3, 20, 100, 1000])
    def test_tree_in_one_draw_equals_scalar_draws(self, n):
        # same parents as n - 1 scalar integers(0, i) calls, and the stream
        # is left where they leave it
        for seed in range(50):
            scalar, vector = make_rng(seed), make_rng(seed)
            want = [-1] + [int(scalar.integers(0, i)) for i in range(1, n)]
            assert layouts._tree_parents(vector, n).tolist() == want
            assert vector.random() == scalar.random()

    @pytest.mark.parametrize("block", [1, 2, 7, 40, 10_000])
    def test_blocks_draw_the_same_stream(self, monkeypatch, block):
        # rows are split into blocks of at most `block` pairs (one row if it
        # has more); the graph must not depend on where the blocks fall
        monkeypatch.setattr(layouts, "_ER_BLOCK_PAIRS", block)
        for n, p, seed in ((2, 0.5, 0), (31, 0.3, 5), (64, 0.7, 11)):
            assert connected_erdos_renyi(n, p, seed).edges == scalar_erdos_renyi(n, p, seed).edges


class TestRandomConnectedSubgraph:
    def test_full_size_is_whole_graph(self):
        g = rect_grid(4, 4)
        sub, mapping = random_connected_subgraph(g, 16, seed=3)
        assert mapping == list(range(16))
        assert sub.edges == g.edges

    def test_single_node(self):
        sub, mapping = random_connected_subgraph(eagle_127(), 1, seed=5)
        assert sub.node_count == 1 and sub.edge_count == 0
        assert len(mapping) == 1

    def test_eagle_50_connected_low_degree(self):
        for s in range(25):
            sub, _ = random_connected_subgraph(eagle_127(), 50, seed=s)
            assert bfs_connected(sub)
            assert max(sub.degree(u) for u in range(50)) <= 3

    def test_induced_edges(self):
        g = eagle_127()
        sub, mapping = random_connected_subgraph(g, 30, seed=8)
        chosen = set(mapping)
        expected = sorted(
            (min(mapping.index(u), mapping.index(v)), max(mapping.index(u), mapping.index(v)))
            for u, v in g.edges
            if u in chosen and v in chosen
        )
        assert list(sub.edges) == expected

    def test_out_of_range_k(self):
        with pytest.raises(ValueError):
            random_connected_subgraph(rect_grid(2, 2), 5, seed=0)
        with pytest.raises(ValueError):
            random_connected_subgraph(rect_grid(2, 2), 0, seed=0)

    @pytest.mark.parametrize("k", [0, 5])
    def test_out_of_range_k_message(self, k):
        with pytest.raises(schema.InputError) as refused:
            random_connected_subgraph(rect_grid(2, 2), k, seed=0)
        bound = ">= 1" if k < 1 else "<= 4"
        assert str(refused.value) == f"k: must be {bound}, got {k}"


class TestAverageDegree:
    def test_two_by_two(self):
        assert average_degree(rect_grid(2, 2)) == 2

    def test_single_node(self):
        assert average_degree(rect_grid(1, 1)) == 0

    def test_eagle_exact_rational(self):
        assert average_degree(eagle_127()) == 288 / 127


_SEEDS = st.integers(0, 2**64 - 1)
_SUBGRAPH_SOURCES = {
    "eagle_127": eagle_127,
    "grid_12x9": lambda: rect_grid(12, 9),
    "er_60_p0.2": lambda: connected_erdos_renyi(60, 0.2, 7),
}


@st.composite
def _generated_layouts(draw):
    """A layout of connected_erdos_renyi, random_connected_subgraph, rect_grid or heavy_hex."""
    kind = draw(st.sampled_from(["erdos_renyi", "subgraph", "rect_grid", "heavy_hex"]))
    if kind == "erdos_renyi":
        return connected_erdos_renyi(draw(st.integers(1, 60)), draw(st.floats(0, 1)),
                                     draw(_SEEDS))
    if kind == "rect_grid":
        return rect_grid(draw(st.integers(1, 12)), draw(st.integers(1, 12)))
    if kind == "heavy_hex":
        return heavy_hex(draw(st.integers(1, 9)), draw(st.integers(3, 23)))
    source = _SUBGRAPH_SOURCES[draw(st.sampled_from(sorted(_SUBGRAPH_SOURCES)))]()
    return random_connected_subgraph(source, draw(st.integers(1, source.node_count)),
                                     draw(_SEEDS))[0]


class TestLayoutGraphInvariants:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            LayoutGraph(3, ((1, 1),))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            LayoutGraph(3, ((0, 3),))

    def test_rejects_duplicate(self):
        with pytest.raises(ValueError):
            LayoutGraph(3, ((0, 1), (0, 1)))

    @pytest.mark.parametrize("edges,message", [
        (((1, 1),), "edges: self-loop on node 1"),
        (((0, 3),), r"edges: edge \(0, 3\) out of range or unordered"),
        (((2, 1),), r"edges: edge \(2, 1\) out of range or unordered"),
        (((0, 2), (0, 1), (1, 2), (0, 2)), r"edges: duplicate edge \(0, 2\)"),
        # a malformed edge is refused before the edges are sorted, by its input index
        (((0, 1.0), (1, 2)), r"^edges\[0\]: expected a pair of integers, got \(0, 1\.0\)$"),
        (((0, 1), (1, "2")), r"^edges\[1\]: expected a pair of integers, got \(1, '2'\)$"),
        (((0, 1, 2),), r"^edges\[0\]: expected a pair of integers, got \(0, 1, 2\)$"),
        (((0, True), (1, 2)), r"^edges\[0\]: expected a pair of integers, got \(0, True\)$"),
        (((0, 1), 2), r"^edges\[1\]: expected a pair of integers, got 2$"),
    ])
    def test_error_messages_name_the_edge(self, edges, message):
        with pytest.raises(schema.InputError, match=message):
            LayoutGraph(3, edges)

    def test_numpy_and_list_pairs_are_read_as_int_pairs(self):
        g = LayoutGraph(3, ([np.int64(1), 2], (0, np.uint8(1))))
        assert g == rect_grid(1, 3)
        assert all(type(x) is int for e in g.edges for x in e)
        assert LayoutGraph.from_json(g.to_json()) == g

    def test_edges_stored_sorted(self):
        assert LayoutGraph(4, ((2, 3), (0, 1), (1, 3))).edges == ((0, 1), (1, 3), (2, 3))

    def test_connectivity_computed_once(self):
        # checked when the graph is built, which stores the adjacency it
        # searched; a disconnected graph is never built
        g = rect_grid(3, 3)
        assert g.adjacency[4] == (1, 3, 5, 7)
        assert all(g.neighbors(u) is g.adjacency[u] for u in range(9))
        with pytest.raises(schema.InputError, match=(
            r"^edges: layout graph must be connected; 3 nodes need at least 2 edges, got 1$"
        )):
            LayoutGraph(3, ((0, 1),))

    def test_edgeless_huge_layout_refused_before_it_is_built(self):
        import tracemalloc

        tracemalloc.start()
        try:
            with pytest.raises(schema.InputError, match=(
                r"^edges: layout graph must be connected; 16777216 nodes need"
            )):
                LayoutGraph.from_json('{"n": 16777216, "edges": []}')
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_json_round_trip(self):
        g = connected_erdos_renyi(12, 0.3, seed=4)
        back = LayoutGraph.from_json(g.to_json())
        assert back == g
        obj = json.loads(g.to_json())
        assert obj["n"] == 12 and all(len(e) == 2 for e in obj["edges"])

    # the generators build through LayoutGraph._valid, which checks nothing;
    # the checked constructor must accept every graph they build, as built
    @settings(max_examples=150, deadline=None)
    @given(g=_generated_layouts())
    def test_generators_all_satisfy_invariants(self, g):
        checked = LayoutGraph(g.node_count, g.edges)
        assert checked == g
        assert checked.adjacency == g.adjacency
        assert list(g.edges) == sorted(g.edges)
        assert bfs_connected(g)
        assert all(0 <= u < v < g.node_count for u, v in g.edges)
        assert len(set(g.edges)) == g.edge_count
        assert all(type(x) is int for e in g.edges for x in e)


# each generator from numpy scalars, and from the plain numbers they hold: the
# graph keeps its bounds' plain values, so its JSON is the same
_NUMPY_BUILT = {
    "LayoutGraph": lambda num: LayoutGraph(num(np.int64, 3), ((0, 1), (1, 2))),
    "rect_grid": lambda num: rect_grid(num(np.int64, 2), num(np.int64, 3)),
    # 16 x 17 overflows uint8, so the area must be checked in plain ints
    "heavy_hex": lambda num: heavy_hex(num(np.uint8, 16), num(np.uint8, 17)),
    "connected_erdos_renyi": lambda num: connected_erdos_renyi(
        num(np.int64, 12), num(np.float32, 0.25), num(np.uint64, 3)),
    "random_connected_subgraph": lambda num: random_connected_subgraph(
        rect_grid(4, 5), num(np.int64, 7), num(np.uint64, 9))[0],
}


@pytest.mark.parametrize("build", _NUMPY_BUILT.values(), ids=_NUMPY_BUILT)
def test_numpy_scalar_arguments_give_plain_json(build):
    from_numpy = build(lambda kind, x: kind(x))
    plain = build(lambda kind, x: kind(x).item())
    assert from_numpy.to_json() == plain.to_json()
    assert type(from_numpy.node_count) is int


class TestNodeIndex:
    @pytest.mark.parametrize("node", [-1, 9, -10, 100])
    def test_outside_range_refused(self, node):
        g = rect_grid(3, 3)
        message = rf"^node {node} is not in a layout of n = 9 nodes$"
        for query in (
            lambda: g.neighbors(node),
            lambda: g.degree(node),
            lambda: g.has_edge(node, 5),
            lambda: g.has_edge(5, node),
        ):
            with pytest.raises(IndexError, match=message):
                query()

    def test_both_ends_of_the_range(self):
        g = rect_grid(3, 3)
        assert g.neighbors(0) == (1, 3) and g.neighbors(8) == (5, 7)
        assert g.degree(0) == g.degree(8) == 2
        assert g.has_edge(8, 5) and g.has_edge(0, 1) and not g.has_edge(0, 8)
