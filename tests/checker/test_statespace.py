"""The explicit global state graph (both backends)."""

import pytest

from repro.checker import StateGraph
from repro.protocols import stabilizing_agreement, livelock_agreement

pytestmark = pytest.mark.parametrize("backend", ["kernel", "naive"])


def test_state_interning_and_counts(backend):
    instance = stabilizing_agreement().instantiate(3)
    graph = StateGraph(instance, backend=backend)
    assert graph.backend == backend
    assert len(graph) == 8
    assert len(graph.invariant_indices) == 2
    for state, index in graph.index.items():
        assert graph.states[index] == state


def test_successor_lists_match_instance(backend):
    instance = stabilizing_agreement().instantiate(3)
    graph = StateGraph(instance, backend=backend)
    for i, state in enumerate(graph.states):
        expected = {graph.index[t] for t in instance.successors(state)}
        assert set(graph.successors[i]) == expected


def test_deadlock_indices(backend):
    instance = stabilizing_agreement().instantiate(3)
    graph = StateGraph(instance, backend=backend)
    deadlocks = {graph.states[i] for i in graph.deadlock_indices()}
    assert deadlocks == {instance.uniform_state(0),
                         instance.uniform_state(1)}


def test_predecessors_map_inverts_successors(backend):
    instance = livelock_agreement().instantiate(3)
    graph = StateGraph(instance, backend=backend)
    reverse = graph.predecessors_map()
    for source, targets in enumerate(graph.successors):
        for target in targets:
            assert source in reverse[target]
    # The reverse adjacency is computed once and cached.
    assert graph.predecessors_map() is reverse


def test_outside_successors_drop_invariant_targets(backend):
    instance = livelock_agreement().instantiate(3)
    graph = StateGraph(instance, backend=backend)
    outside = [i for i, inside in enumerate(graph.in_invariant)
               if not inside]
    assert graph.outside_indices() == outside
    for i in range(len(graph)):
        assert graph.outside_successors(i) == [
            t for t in graph.successors[i] if t in outside]


def test_distances_to_invariant(backend):
    instance = stabilizing_agreement().instantiate(3)
    graph = StateGraph(instance, backend=backend)
    distances = graph.distances_to_invariant()
    for i, distance in enumerate(distances):
        if graph.in_invariant[i]:
            assert distance == 0
        else:
            assert distance is not None and distance >= 1
    # (1 1 0): one copy by process 2 reaches all-ones.
    assert distances[graph.index[instance.state_of(1, 1, 0)]] == 1
    # (1 0 0): two copies are needed.
    assert distances[graph.index[instance.state_of(1, 0, 0)]] == 2
