"""Tarjan SCC vs the networkx oracle and the mutual-reachability
definition, plus condensation properties."""

import networkx as nx
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import Digraph, condensation, strongly_connected_components
from repro.graphs.scc import cyclic_components, masked_cyclic_mask, tarjan

edge_lists = st.lists(
    st.tuples(st.integers(0, 9), st.integers(0, 9)),
    max_size=40,
)


def build(edges) -> tuple[Digraph, nx.DiGraph]:
    ours = Digraph(nodes=range(10))
    theirs = nx.DiGraph()
    theirs.add_nodes_from(range(10))
    for u, v in edges:
        ours.add_edge(u, v)
        theirs.add_edge(u, v)
    return ours, theirs


@given(edge_lists)
@settings(max_examples=200)
def test_scc_matches_networkx(edges):
    ours, theirs = build(edges)
    mine = {frozenset(c) for c in strongly_connected_components(ours)}
    ref = {frozenset(c) for c in nx.strongly_connected_components(theirs)}
    assert mine == ref


@given(edge_lists)
@settings(max_examples=100)
def test_components_partition_nodes(edges):
    ours, _ = build(edges)
    components = strongly_connected_components(ours)
    flat = [n for c in components for n in c]
    assert sorted(flat) == sorted(ours.nodes)


@given(edge_lists)
@settings(max_examples=100)
def test_tarjan_order_is_reverse_topological(edges):
    ours, _ = build(edges)
    components = strongly_connected_components(ours)
    position = {n: i for i, c in enumerate(components) for n in c}
    # Every inter-component edge must point to an earlier-emitted component.
    for u, v, _key in ours.edges():
        if position[u] != position[v]:
            assert position[v] < position[u]


@given(edge_lists)
@settings(max_examples=100)
def test_condensation_is_acyclic(edges):
    ours, _ = build(edges)
    dag, membership = condensation(ours)
    assert set(membership) == set(ours.nodes)
    # No cycles in the condensation: every SCC of it is a singleton
    # without self-loop.
    for component in strongly_connected_components(dag):
        assert len(component) == 1
        assert not dag.has_edge(component[0], component[0])


def test_cyclic_components_identifies_self_loops():
    g = Digraph(edges=[("a", "a"), ("b", "c"), ("c", "b"), ("d", "e")])
    cyclic = {frozenset(c) for c in cyclic_components(g)}
    assert cyclic == {frozenset({"a"}), frozenset({"b", "c"})}


def test_single_node_no_loop_not_cyclic():
    g = Digraph(nodes=["solo"])
    assert cyclic_components(g) == []


def test_long_chain_does_not_recurse():
    # 5000-node chain: the iterative Tarjan must not hit recursion limits.
    g = Digraph()
    for i in range(5000):
        g.add_edge(i, i + 1)
    components = strongly_connected_components(g)
    assert len(components) == 5001


# ----------------------------------------------------------------------
# The shared Tarjan generator and its callers.
# ----------------------------------------------------------------------
def reachable(succ: dict, start) -> set:
    seen = {start}
    frontier = [start]
    while frontier:
        node = frontier.pop()
        for nxt in succ[node]:
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return seen


def mutual_reachability_components(succ: dict) -> set[frozenset]:
    """SCCs straight from the definition: u ~ v iff each reaches the
    other."""
    reach = {node: reachable(succ, node) for node in succ}
    return {frozenset(v for v in succ if u in reach[v] and v in reach[u])
            for u in succ}


def adjacency(edges) -> dict:
    succ = {node: [] for node in range(10)}
    for u, v in edges:
        if v not in succ[u]:
            succ[u].append(v)
    return succ


@given(edge_lists)
@settings(max_examples=200)
def test_tarjan_generator_matches_networkx_and_definition(edges):
    succ = adjacency(edges)
    _, theirs = build(edges)
    mine = {frozenset(c) for c in tarjan(range(10), succ.__getitem__)}
    assert mine == {frozenset(c)
                    for c in nx.strongly_connected_components(theirs)}
    assert mine == mutual_reachability_components(succ)
    ours, _ = build(edges)
    assert {frozenset(c)
            for c in strongly_connected_components(ours)} == mine


@given(edge_lists, st.lists(st.integers(0, 9), min_size=1, max_size=4))
@settings(max_examples=200)
def test_tarjan_generator_covers_exactly_what_roots_reach(edges, roots):
    succ = adjacency(edges)
    components = list(tarjan(roots, succ.__getitem__))
    covered = set().union(*(reachable(succ, root) for root in roots))
    flat = [node for component in components for node in component]
    assert sorted(flat) == sorted(covered)
    # Emission order is reverse-topological: edges between components
    # point to an earlier-emitted component.
    position = {n: i for i, c in enumerate(components) for n in c}
    for u in covered:
        for v in succ[u]:
            assert position[v] <= position[u]


@given(edge_lists, st.integers(0, 2 ** 10 - 1))
@settings(max_examples=200)
def test_masked_cyclic_mask_matches_networkx(edges, alive):
    succ_masks = [0] * 10
    for u, v in edges:
        succ_masks[u] |= 1 << v
    induced = nx.DiGraph()
    induced.add_nodes_from(i for i in range(10) if (alive >> i) & 1)
    induced.add_edges_from((u, v) for u, v in edges
                           if (alive >> u) & 1 and (alive >> v) & 1)
    expected = 0
    for component in nx.strongly_connected_components(induced):
        node = next(iter(component))
        if len(component) > 1 or induced.has_edge(node, node):
            for member in component:
                expected |= 1 << member
    assert masked_cyclic_mask(succ_masks, alive) == expected


def test_tarjan_explores_no_further_than_the_caller_reads():
    visited = []

    def successors(node):
        visited.append(node)
        return []

    components = tarjan([0, 1, 2], successors)
    assert next(components) == [0]
    assert visited == [0]


def test_fifty_thousand_node_path_does_not_recurse():
    size = 50_000
    components = list(tarjan(
        [0], lambda node: [node + 1] if node + 1 < size else []))
    assert components == [[node] for node in reversed(range(size))]
