"""Livelock witnesses and rankings pinned to a Digraph-built reference.

The reference below rebuilds the global checker's livelock and ranking
analyses from :mod:`repro.graphs` primitives alone: a hashed
:class:`Digraph` over the states outside ``I(K)`` (nodes in ascending
index order, successors in the graph's order), its cyclic SCCs in
Tarjan emission order, and for each the shortest cycle through the
component's smallest state.  The checker must return the very same
witness cycles — same components, same order, same states — and the
same ranks, on every bundled protocol, both backends, with and without
the rotation quotient, and on the differential suite's random
protocols.
"""

from __future__ import annotations

import pytest

from repro.checker.livelock import has_livelock, livelock_cycles
from repro.checker.ranking import compute_ranking
from repro.checker.statespace import StateGraph
from repro.graphs import Digraph, find_cycle_through
from repro.graphs.scc import cyclic_components, strongly_connected_components
from repro.protocols.registry import REGISTRY
from repro.protocols.token_ring import DijkstraTokenRing
from tests.engine.test_kernel_differential import (
    MAX_STATES,
    RANDOM_MAX_K,
    _random_protocols,
)

MAX_CYCLES = (1, 3, 8, 10_000)

CONFIGS = (
    pytest.param("naive", False, id="naive"),
    pytest.param("kernel", False, id="kernel"),
    pytest.param("kernel", True, id="kernel-symmetry"),
)


def outside_digraph(graph: StateGraph) -> Digraph:
    """``Δ_p | ¬I`` as a hashed Digraph (the reference representation)."""
    outside = [i for i, inside in enumerate(graph.in_invariant)
               if not inside]
    keep = set(outside)
    sub = Digraph(nodes=outside)
    for source in outside:
        for target in graph.successors[source]:
            if target in keep:
                sub.add_edge(source, target)
    return sub


def reference_cycles(graph: StateGraph, max_cycles: int) -> list[list]:
    sub = outside_digraph(graph)
    cycles = []
    for component in cyclic_components(sub):
        cycle = find_cycle_through(sub.induced_subgraph(component),
                                   min(component))
        cycles.append([graph.states[i] for i in cycle])
        if len(cycles) >= max_cycles:
            break
    return cycles


def reference_ranks(graph: StateGraph) -> tuple[int, ...] | None:
    sub = outside_digraph(graph)
    if cyclic_components(sub):
        return None
    ranks = [0] * len(graph)
    for (node,) in strongly_connected_components(sub):
        targets = graph.successors[node]
        if not targets:
            return None
        ranks[node] = max(ranks[t] + 1 if t in sub else 1 for t in targets)
    return tuple(ranks)


def assert_pinned(graph: StateGraph) -> None:
    for max_cycles in MAX_CYCLES:
        assert (livelock_cycles(graph, max_cycles=max_cycles)
                == reference_cycles(graph, max_cycles))
    assert has_livelock(graph) == bool(reference_cycles(graph, 1))
    certificate = compute_ranking(graph)
    expected = reference_ranks(graph)
    assert (None if certificate is None else certificate.ranks) == expected


def _bundled_instances():
    for name, factory in REGISTRY.items():
        protocol = factory()
        size = protocol.process.window_width
        while len(protocol.space.cells) ** size <= MAX_STATES:
            yield pytest.param(protocol, size, id=f"{name}-K{size}")
            size += 1


@pytest.mark.parametrize("backend,symmetry", CONFIGS)
@pytest.mark.parametrize("protocol,size", _bundled_instances())
def test_bundled_witnesses_match_reference(protocol, size, backend,
                                           symmetry):
    graph = StateGraph(protocol.instantiate(size), backend=backend,
                       symmetry=symmetry)
    assert_pinned(graph)


@pytest.mark.parametrize("backend,symmetry", CONFIGS)
@pytest.mark.parametrize("protocol", _random_protocols())
def test_random_witnesses_match_reference(protocol, backend, symmetry):
    for size in range(2, RANDOM_MAX_K + 1):
        graph = StateGraph(protocol.instantiate(size), backend=backend,
                           symmetry=symmetry)
        assert_pinned(graph)


@pytest.mark.parametrize("size,values", [(3, 2), (3, 3), (4, 3), (4, 4)])
def test_token_ring_witnesses_match_reference(size, values):
    assert_pinned(StateGraph(DijkstraTokenRing(size, values)))
