import heapq
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghz_synth.circuit import (
    CX, Circuit, CondX, H, MeasureZ, Schedule, count_measurements, depth,
)
from ghz_synth.growing import synthesize_growing
from ghz_synth.layouts import LayoutGraph, connected_erdos_renyi, eagle_127, rect_grid
from ghz_synth.layouts import random_connected_subgraph
from ghz_synth.merging import (
    AbsoluteSize,
    HighestDegree,
    ScalingFactor,
    Star,
    _STRATEGIES,
    build_star_ghz,
    plan_merges,
    select_stars,
    strategy_from_json,
    strategy_from_label,
    strategy_label,
    strategy_to_json,
    synthesize_merging,
)
from ghz_synth.metrics import certify
from ghz_synth.rng import derive_seed
from ghz_synth.schema import InputError


# one example of each registered strategy kind, with its JSON form and its label
STRATEGY_EXAMPLES = {
    "highest_degree": (HighestDegree(), {"strategy": "highest_degree"}, "highest_degree"),
    "scaling_factor": (
        ScalingFactor(1.3), {"strategy": "scaling_factor", "f": 1.3}, "scaling_factor=1.3",
    ),
    "absolute_size": (AbsoluteSize(4), {"strategy": "absolute_size", "s": 4}, "absolute_size=4"),
}


def star_graph(k: int) -> LayoutGraph:
    return LayoutGraph(k + 1, tuple((0, i) for i in range(1, k + 1)))


def path_graph(n: int) -> LayoutGraph:
    return rect_grid(1, n)


def assert_partition(g, stars):
    seen = set()
    for s in stars:
        assert list(s.leaves) == sorted(s.leaves)
        nodes = set(s.nodes())
        assert not (seen & nodes)
        seen |= nodes
        assert all(g.has_edge(s.center, leaf) for leaf in s.leaves)
    assert seen == set(range(g.node_count))


def replay(stars, rounds):
    """The rounds of plan_merges with each side as its node set: (keeper, absorbed, bridge).

    The records name components by star index; a component keeps the index of
    the star it grew from, and a merge gives the keeper the absorbed nodes.
    """
    nodes = [set(s.nodes()) for s in stars]
    replayed = []
    for rnd in rounds:
        replayed.append([])
        for keeper, absorbed, bridge in rnd:
            replayed[-1].append((frozenset(nodes[keeper]), frozenset(nodes[absorbed]), bridge))
            nodes[keeper] |= nodes[absorbed]
    return replayed


def assert_bridges_free_earliest(g, strategy):
    """Each bridge of the merging circuit is the crossing edge whose later end
    is free earliest, ties broken by (keeper end, absorbed end).

    Merge k's bridge is the CX just before the measurement into cbit k, and
    the layers it was chosen by are those of a fresh schedule that emits the
    ops before that CX; the candidates are every layout edge from the keeper
    side to the absorbed side of the merge.
    """
    stars = select_stars(g, strategy)
    c = synthesize_merging(g, strategy)
    merges = [m for rnd in replay(stars, plan_merges(g, stars)) for m in rnd]
    assert len(merges) == c.cbit_count
    for k, (keeper, absorbed, (u, v)) in enumerate(merges):
        i = c.ops.index(MeasureZ(v, k)) - 1
        assert c.ops[i] == CX(u, v)
        schedule = Schedule(c.qubit_count, c.cbit_count)
        for op in c.ops[:i]:
            schedule.emit(op)
        last = schedule.last
        crossing = [(x, y) for a, b in g.edges for x, y in ((a, b), (b, a))
                    if x in keeper and y in absorbed]
        assert (u, v) == min(crossing, key=lambda e: (max(last[e[0]], last[e[1]]), e)), k


def reference_stars(g, strategy):
    """The quadratic form of select_stars: each step scans every live node for its center."""
    target, adj = strategy.target(g), g.adjacency
    live = set(range(g.node_count))
    stars = []
    while live:
        center = min(live, key=lambda u: (abs(sum(v in live for v in adj[u]) - target), u))
        leaves = tuple([v for v in adj[center] if v in live][:target])
        stars.append(Star(center, leaves))
        live.difference_update((center, *leaves))
    return stars


@st.composite
def _star_cases(draw):
    """An ER graph (n <= 60), a grid up to 12x12 or an Eagle subgraph, and a strategy."""
    kind = draw(st.sampled_from(["erdos_renyi", "rect_grid", "eagle_sub"]))
    if kind == "erdos_renyi":
        g = connected_erdos_renyi(draw(st.integers(1, 60)), draw(st.floats(0.05, 0.95)),
                                  draw(st.integers(0, 2**32)))
    elif kind == "rect_grid":
        g = rect_grid(draw(st.integers(1, 12)), draw(st.integers(1, 12)))
    else:
        g = random_connected_subgraph(eagle_127(), draw(st.integers(1, 127)),
                                      draw(st.integers(0, 2**32)))[0]
    strategy = draw(st.one_of(
        st.just(HighestDegree()),
        st.floats(0.2, 2).map(ScalingFactor),
        st.integers(1, 8).map(AbsoluteSize),
    ))
    return g, strategy


class TestSelectStars:
    @settings(max_examples=200, deadline=None)
    @given(_star_cases())
    def test_matches_the_quadratic_reference(self, case):
        g, strategy = case
        assert select_stars(g, strategy) == reference_stars(g, strategy)

    def test_dense_graph_rebuilds_the_heap(self, monkeypatch):
        calls = []
        heapify = heapq.heapify

        def counting(heap):
            calls.append(len(heap))
            heapify(heap)

        monkeypatch.setattr(heapq, "heapify", counting)
        g = connected_erdos_renyi(60, 0.5, 0)
        stars = select_stars(g, AbsoluteSize(4))
        assert len(calls) > 1
        assert stars == reference_stars(g, AbsoluteSize(4))


    def test_star_graph_single_star(self):
        g = star_graph(6)
        stars = select_stars(g, HighestDegree())
        assert len(stars) == 1
        assert stars[0] == Star(0, (1, 2, 3, 4, 5, 6))

    def test_eagle_degree_bound(self):
        stars = select_stars(eagle_127(), HighestDegree())
        assert max(len(s.leaves) for s in stars) <= 3
        assert_partition(eagle_127(), stars)

    def test_partition_property_across_strategies(self):
        for seed in range(10):
            g = connected_erdos_renyi(24, 0.2, seed)
            for strategy in (
                HighestDegree(), ScalingFactor(0.7), ScalingFactor(1.3), AbsoluteSize(4),
            ):
                assert_partition(g, select_stars(g, strategy))

    def test_scaling_factor_caps_leaf_count(self):
        g = star_graph(8)  # average degree 16/9, f=1.0 -> target round(1.78)=2
        stars = select_stars(g, ScalingFactor(1.0))
        assert all(len(s.leaves) <= 2 for s in stars)

    @pytest.mark.parametrize("g, f, target", [
        # K4 minus one edge: average degree 10/4 = 2.5
        (LayoutGraph(4, ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3))), 1.0, 3),
        (path_graph(2), 0.5, 1),  # average degree 1
    ])
    def test_scaling_factor_rounds_halves_up(self, g, f, target):
        # not round(), which takes 2.5 to 2 and 0.5 to 0
        assert ScalingFactor(f).target(g) == target

    def test_absolute_size_targets_size(self):
        g = path_graph(9)
        stars = select_stars(g, AbsoluteSize(3))
        assert all(len(s.nodes()) <= 3 for s in stars)

    def test_isolated_residual_nodes_become_singletons(self):
        # path 0-1-2-3: the first star takes {0,1,2}, leaving 3 isolated
        stars = select_stars(path_graph(4), HighestDegree())
        assert stars == [Star(1, (0, 2)), Star(3, ())]

    @pytest.mark.parametrize("kind", sorted(_STRATEGIES))
    def test_strategy_json_round_trip(self, kind):
        strategy, doc, label = STRATEGY_EXAMPLES[kind]
        assert type(strategy) is _STRATEGIES[kind]
        assert strategy_to_json(strategy) == doc
        assert strategy_from_json(doc) == strategy
        assert strategy_label(strategy) == label
        assert strategy_from_label(label) == strategy

    @pytest.mark.parametrize("strategy, label", [
        (AbsoluteSize(10**7), "absolute_size=10000000"),  # an int, not 1e+07
        (ScalingFactor(0.70000001), "scaling_factor=0.7"),  # six significant digits
    ])
    def test_strategy_label_format(self, strategy, label):
        assert strategy_label(strategy) == label

    def test_non_strategy_is_a_type_error(self):
        for to_text in (strategy_label, strategy_to_json):
            with pytest.raises(TypeError, match="^unknown strategy 'highest_degree'$"):
                to_text("highest_degree")

    def test_invalid_strategy_params(self):
        with pytest.raises(ValueError):
            ScalingFactor(0.0)
        with pytest.raises(ValueError):
            AbsoluteSize(0)

    def test_bad_scaling_factor_is_an_input_error(self):
        with pytest.raises(InputError) as refused:
            ScalingFactor(-1)
        assert str(refused.value) == "f: must be positive and finite, got -1"


class TestBuildStarGhz:
    def test_single_node_star(self):
        assert build_star_ghz(Star(2, ())) == [H(2)]

    def test_two_leaves_order_and_depth(self):
        ops = build_star_ghz(Star(1, (0, 2)))
        assert ops == [H(1), CX(1, 0), CX(1, 2)]
        assert depth(Circuit(3, 0, tuple(ops))) == 3

    def test_degree_k_gives_k_cx(self):
        ops = build_star_ghz(Star(0, tuple(range(1, 8))))
        assert sum(1 for op in ops if isinstance(op, CX)) == 7


class TestPlanMerges:
    def test_one_star_empty_plan(self):
        g = star_graph(3)
        assert plan_merges(g, select_stars(g, HighestDegree())) == ()

    def test_two_adjacent_stars_one_round(self):
        g = path_graph(5)
        stars = select_stars(g, HighestDegree())
        assert len(stars) == 2
        # the first star {0, 1, 2} keeps; 3 is measured, 4 corrected
        assert plan_merges(g, stars) == (((0, 1, (2, 3)),),)

    @pytest.mark.parametrize("k", [2, 3, 4, 5, 7, 8, 16, 31])
    def test_path_of_k_stars_log_rounds(self, k):
        # k 2-node stars in a path; independent oracle: repeated halving
        g = path_graph(2 * k)
        stars = [Star(2 * i, (2 * i + 1,)) for i in range(k)]
        rounds = plan_merges(g, stars)
        remaining, halvings = k, 0
        while remaining > 1:
            remaining -= remaining // 2
            halvings += 1
        assert len(rounds) == halvings == math.ceil(math.log2(k))
        assert sum(map(len, rounds)) == k - 1

    def test_total_merges(self):
        for seed in range(5):
            g = connected_erdos_renyi(20, 0.2, seed)
            stars = select_stars(g, ScalingFactor(0.7))
            assert sum(map(len, plan_merges(g, stars))) == len(stars) - 1

    def test_round_components_disjoint(self):
        g = eagle_127()
        stars = select_stars(g, HighestDegree())
        for rnd in replay(stars, plan_merges(g, stars)):
            touched = set()
            for keeper, absorbed, _ in rnd:
                nodes = keeper | absorbed
                assert not (touched & nodes)
                touched |= nodes

    def test_bridge_endpoints_in_components(self):
        g = eagle_127()
        stars = select_stars(g, HighestDegree())
        for rnd in replay(stars, plan_merges(g, stars)):
            for keeper, absorbed, (u, v) in rnd:
                assert u in keeper and v in absorbed
                assert g.has_edge(u, v)

    def test_rejects_non_partition(self):
        g = path_graph(4)
        with pytest.raises(ValueError):
            plan_merges(g, [Star(0, (1,))])

    def test_rejects_disconnected(self):
        # refused when the layout is built, before any contraction could get stuck
        with pytest.raises(InputError, match=(
            r"^edges: layout graph must be connected; node 3 is not reached from node 0$"
        )):
            LayoutGraph(5, ((0, 1), (0, 2), (1, 2), (3, 4)))


class TestSynthesizeMerging:
    def test_single_star_layout_no_measurements(self):
        g = star_graph(4)
        c = synthesize_merging(g, HighestDegree())
        assert count_measurements(c) == 0
        certify(c, g)

    def test_two_star_merge_exact_ghz(self):
        g = path_graph(5)
        certify(synthesize_merging(g, HighestDegree()), g, seed=13)

    def test_gate_count_identity_eagle_subgraphs(self):
        for s in range(100):
            g, _ = random_connected_subgraph(eagle_127(), 50, derive_seed(6, s))
            certify(synthesize_merging(g, HighestDegree()), g)

    def test_measurement_count_is_stars_minus_one(self):
        for seed in range(10):
            g = connected_erdos_renyi(18, 0.3, seed)
            for strategy in (HighestDegree(), ScalingFactor(1.0)):
                c = synthesize_merging(g, strategy)
                stars = select_stars(g, strategy)
                assert count_measurements(c) == len(stars) - 1

    def test_exact_ghz_across_families_and_strategies(self):
        cases = []
        for s in range(3):
            cases.append(random_connected_subgraph(eagle_127(), 15, derive_seed(7, s))[0])
            cases.append(connected_erdos_renyi(12, 0.4, derive_seed(8, s)))
        cases.append(rect_grid(3, 4))
        for g in cases:
            for strategy in (
                HighestDegree(), ScalingFactor(0.7), ScalingFactor(1.3), AbsoluteSize(3),
            ):
                certify(synthesize_merging(g, strategy), g, seed=21)

    def test_deterministic(self):
        g = connected_erdos_renyi(20, 0.3, seed=5)
        assert synthesize_merging(g, ScalingFactor(1.0)) == synthesize_merging(
            g, ScalingFactor(1.0)
        )

    def test_rejects_disconnected(self):
        # refused when the layout is built, so merging never sees it
        with pytest.raises(InputError, match=r"^edges: layout graph must be connected"):
            LayoutGraph(4, ((0, 1), (2, 3)))

    def test_merge_op_sequence(self):
        g = path_graph(5)
        c = synthesize_merging(g, HighestDegree())
        kinds = [type(op).__name__ for op in c.ops]
        # two stars (H + 2 CX, H + 1 CX) then one merge
        i = kinds.index("MeasureZ")
        assert kinds[i - 1] == "CX"
        assert kinds[i + 1 :] == ["CondX", "Reset", "CX"]

    def test_scaling_factor_depth_trend(self):
        # smaller target stars give shallower circuits on dense random graphs
        from statistics import mean

        depths = {}
        for f in (0.7, 1.0, 1.3):
            ds = []
            for s in range(30):
                g = connected_erdos_renyi(60, 0.5, derive_seed(10, "trend", s))
                ds.append(depth(synthesize_merging(g, ScalingFactor(f))))
            depths[f] = mean(ds)
        assert depths[0.7] < depths[1.0] < depths[1.3]


@st.composite
def connected_graphs(draw, max_n=30, min_n=1, extra=True):
    """A random tree on min_n..max_n nodes, plus random extra edges when extra,
    randomly relabelled."""
    n = draw(st.integers(min_n, max_n))
    pairs = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    if extra and n > 1:
        node = st.integers(0, n - 1)
        pairs |= {(u, v) for u, v in draw(st.lists(st.tuples(node, node), max_size=2 * n))
                  if u != v}
    label = draw(st.permutations(range(n)))
    edges = {tuple(sorted((label[u], label[v]))) for u, v in pairs}
    return LayoutGraph(n, tuple(sorted(edges)))


class TestConnectedByConstruction:
    @settings(max_examples=200, deadline=None)
    @given(g=connected_graphs())
    def test_adjacency_and_round_trip(self, g):
        # connected_graphs builds g, so construction accepted it
        for u in range(g.node_count):
            scan = sorted({b for a, b in g.edges if a == u} | {a for a, b in g.edges if b == u})
            assert g.adjacency[u] == tuple(scan)
        back = LayoutGraph.from_json(g.to_json())
        assert back == g and back.adjacency == g.adjacency

    @settings(max_examples=100, deadline=None)
    @given(tree=connected_graphs(min_n=2, extra=False))
    def test_tree_minus_any_edge_refused(self, tree):
        assert tree.edge_count == tree.node_count - 1
        for i in range(tree.edge_count):
            rest = tree.edges[:i] + tree.edges[i + 1:]
            with pytest.raises(InputError, match=r"^edges: layout graph must be connected"):
                LayoutGraph(tree.node_count, rest)

    @settings(max_examples=100, deadline=None)
    @given(a=connected_graphs(max_n=12), b=connected_graphs(max_n=12), data=st.data())
    def test_two_parts_refused(self, a, b, data):
        # a and b side by side, randomly relabelled: the message names the
        # lowest node outside node 0's part when the edge count passes
        n = a.node_count + b.node_count
        label = data.draw(st.permutations(range(n)))
        pairs = a.edges + tuple((u + a.node_count, v + a.node_count) for u, v in b.edges)
        edges = tuple(tuple(sorted((label[u], label[v]))) for u, v in pairs)
        part = {label[u] for u in range(a.node_count)}
        if 0 not in part:
            part = set(range(n)) - part
        unreached = min(set(range(n)) - part)
        message = (
            f"node {unreached} is not reached from node 0" if len(edges) >= n - 1
            else f"{n} nodes need at least {n - 1} edges, got {len(edges)}"
        )
        with pytest.raises(InputError) as refused:
            LayoutGraph(n, edges)
        assert str(refused.value) == f"edges: layout graph must be connected; {message}"


class TestRandomConnectedGraphs:
    @settings(max_examples=200, deadline=None)
    @given(
        g=connected_graphs(),
        f=st.floats(0.1, 3.0),
        size=st.integers(1, 8),
        seed=st.integers(0, 2**64 - 1),
    )
    def test_count_identities_and_ghz(self, g, f, size, seed):
        # each merge adds one CX and one measurement, and its reset is a
        # deterministic event of run()
        c = synthesize_growing(g)
        certify(c, g, seed)
        assert count_measurements(c) == 0
        for strategy in (HighestDegree(), ScalingFactor(f), AbsoluteSize(size)):
            c = synthesize_merging(g, strategy)
            certify(c, g, seed)
            stars = select_stars(g, strategy)
            assert count_measurements(c) == len(stars) - 1
            # the plan is the circuit's: merge k measures its bridge's
            # absorbed end into cbit k, right after the CX across the bridge
            merges = [m for rnd in plan_merges(g, stars) for m in rnd]
            assert len(merges) == c.cbit_count
            for k, (_, _, (u, v)) in enumerate(merges):
                i = c.ops.index(MeasureZ(v, k))
                assert c.ops[i - 1] == CX(u, v)

    @settings(max_examples=100, deadline=None)
    @given(g=connected_graphs(), f=st.floats(0.1, 3.0), size=st.integers(1, 8))
    def test_bridge_is_free_earliest(self, g, f, size):
        for strategy in (HighestDegree(), ScalingFactor(f), AbsoluteSize(size)):
            assert_bridges_free_earliest(g, strategy)

    # dense layouts, where many crossing edges tie on the layer
    @pytest.mark.parametrize("n", [10, 30, 60])
    @pytest.mark.parametrize("p", [0.1, 0.5])
    @pytest.mark.parametrize("seed", range(3))
    def test_bridge_is_free_earliest_on_erdos_renyi(self, n, p, seed):
        g = connected_erdos_renyi(n, p, derive_seed(15, n, seed))
        for strategy in (HighestDegree(), ScalingFactor(0.7), ScalingFactor(1.3), AbsoluteSize(4)):
            assert_bridges_free_earliest(g, strategy)

    @settings(max_examples=100, deadline=None)
    @given(g=connected_graphs(), size=st.integers(1, 8))
    def test_plan_replays_the_circuits_merges(self, g, size):
        # merge k corrects the rest of its absorbed side under cbit k, its
        # bridge runs from keeper to absorbed, and both sides are components
        # of the contraction so far, which their union then replaces
        for strategy in (HighestDegree(), AbsoluteSize(size)):
            stars = select_stars(g, strategy)
            c = synthesize_merging(g, strategy)
            corrections = {op.cbit: op.targets for op in c.ops if isinstance(op, CondX)}
            components = {frozenset(star.nodes()) for star in stars}
            merges = [m for rnd in replay(stars, plan_merges(g, stars)) for m in rnd]
            assert len(merges) == c.cbit_count
            for k, (keeper, absorbed, (u, v)) in enumerate(merges):
                assert u in keeper and v in absorbed and g.has_edge(u, v)
                assert corrections.get(k, ()) == tuple(sorted(absorbed - {v}))
                components.remove(keeper)
                components.remove(absorbed)
                components.add(keeper | absorbed)
            assert components == {frozenset(range(g.node_count))}
