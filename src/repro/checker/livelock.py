"""Global livelock detection for a fixed ring size.

A livelock for ``I(K)`` is an infinite repetition of global states outside
``I(K)`` (Section 2.3) — equivalently, a cycle of ``Δ_p | ¬I``, found here
by one Tarjan pass over the state graph's CSR adjacency restricted to
``¬I``.
"""

from __future__ import annotations

from collections.abc import Iterator

from repro.checker.statespace import StateGraph
from repro.graphs.cycles import find_cycle_through
from repro.graphs.scc import tarjan


def _cyclic_outside_components(graph: StateGraph) -> Iterator[list[int]]:
    """The cyclic SCCs of ``Δ_p | ¬I``, as state-index lists.

    Tarjan is rooted at the states outside ``I(K)`` in ascending index
    order and follows successors in CSR order, so the components — and
    the witnesses built from them — come out in the same order on every
    run and on both backends.
    """
    successors = graph.outside_successors
    for component in tarjan(graph.outside_indices(), successors):
        node = component[0]
        if len(component) > 1 or node in successors(node):
            yield component


def livelock_cycles(graph: StateGraph,
                    max_cycles: int = 8) -> list[list]:
    """Up to *max_cycles* witness cycles of ``Δ_p | ¬I``, as state lists.

    A returned cycle ``[s0, ..., sn]`` denotes the repeating computation
    ``s0 -> s1 -> ... -> sn -> s0`` entirely outside the invariant: the
    shortest cycle through the component's smallest state index.  Empty
    result means the instance is livelock-free.
    """
    cycles = []
    for component in _cyclic_outside_components(graph):
        members = set(component)
        cycle = find_cycle_through(
            lambda node: [target for target in graph.outside_successors(node)
                          if target in members],
            min(component))
        cycles.append([graph.states[i] for i in cycle])
        if len(cycles) >= max_cycles:
            break
    return cycles


def has_livelock(graph: StateGraph) -> bool:
    """Whether any computation can cycle forever outside ``I(K)``."""
    return next(_cyclic_outside_components(graph), None) is not None
