"""Strongly connected components via Tarjan's algorithm (iterative).

The deadlock-freedom decision procedure (Theorem 4.2) reduces to: *does any
SCC of the deadlock-induced RCG both contain an illegitimate local state and
contain a cycle?*  An SCC contains a cycle iff it has more than one node or
its single node carries a self-loop.

:func:`tarjan` is the one implementation; every SCC pass in the library —
over a :class:`Digraph`, a bit-packed adjacency, the global checker's CSR
arrays or the local kernel's implicit product graph — is a loop over it.
"""

from __future__ import annotations

from collections.abc import Callable, Hashable, Iterable, Iterator

from repro.graphs.digraph import Digraph


def tarjan(roots: Iterable[Hashable],
           successors: Callable[[Hashable], Iterable[Hashable]],
           ) -> Iterator[list[Hashable]]:
    """Yield the SCCs reachable from *roots*, as lists of nodes.

    Roots are explored in the given order and each node's successors in
    the order ``successors(node)`` returns them.  Components are yielded
    as Tarjan's algorithm completes them — reverse topological order
    (every edge between components points from a later component to an
    earlier one) — so a caller may stop at the first component it wants.

    The implementation is iterative so that long chains do not overflow
    the Python recursion limit.
    """
    index_of: dict[Hashable, int] = {}
    lowlink: dict[Hashable, int] = {}
    on_stack: set[Hashable] = set()
    stack: list[Hashable] = []

    for root in roots:
        if root in index_of:
            continue
        index_of[root] = lowlink[root] = len(index_of)
        stack.append(root)
        on_stack.add(root)
        # Each frame is (node, iterator over its remaining successors).
        work = [(root, iter(successors(root)))]
        while work:
            node, pending = work[-1]
            for succ in pending:
                if succ not in index_of:
                    index_of[succ] = lowlink[succ] = len(index_of)
                    stack.append(succ)
                    on_stack.add(succ)
                    work.append((succ, iter(successors(succ))))
                    break
                if succ in on_stack and index_of[succ] < lowlink[node]:
                    lowlink[node] = index_of[succ]
            else:
                work.pop()
                low = lowlink[node]
                if work and low < lowlink[work[-1][0]]:
                    lowlink[work[-1][0]] = low
                if low == index_of[node]:
                    component = []
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        component.append(member)
                        if member == node:
                            break
                    yield component


def strongly_connected_components(graph: Digraph) -> list[list[Hashable]]:
    """Return the SCCs of *graph* as lists of nodes, in :func:`tarjan`'s
    reverse topological order (roots in node insertion order)."""
    return list(tarjan(graph.nodes, graph.successors))


def condensation(graph: Digraph) -> tuple[Digraph, dict[Hashable, int]]:
    """Condense *graph* by its SCCs.

    Returns ``(dag, membership)`` where ``dag`` is a :class:`Digraph` whose
    nodes are component indices and ``membership`` maps each original node
    to its component index.
    """
    components = strongly_connected_components(graph)
    membership = {node: idx
                  for idx, component in enumerate(components)
                  for node in component}
    dag = Digraph(nodes=range(len(components)))
    for source, target, _key in graph.edges():
        cs, ct = membership[source], membership[target]
        if cs != ct and not dag.has_edge(cs, ct):
            dag.add_edge(cs, ct)
    return dag, membership


def bit_indices(mask: int) -> list[int]:
    """The set bits of *mask*, ascending."""
    indices = []
    while mask:
        bit = mask & -mask
        mask ^= bit
        indices.append(bit.bit_length() - 1)
    return indices


def masked_cyclic_mask(succ_masks: list[int], alive: int) -> int:
    """Vertices on a directed cycle of a bit-packed induced subgraph.

    *succ_masks* gives each vertex's successor set as a bitmask over
    vertex indices; *alive* selects the induced subgraph.  Returns the
    union mask of all cyclic SCCs (more than one vertex, or a self-loop)
    — the primitive behind the Theorem 4.2 check and the
    branch-and-bound feedback-vertex-set search, replacing a
    ``Digraph.induced_subgraph`` rebuild with shift-and-mask arithmetic
    on Python ints.
    """
    cyclic = 0
    for component in tarjan(
            bit_indices(alive),
            lambda vertex: bit_indices(succ_masks[vertex] & alive)):
        vertex = component[0]
        if len(component) > 1 or (succ_masks[vertex] >> vertex) & 1:
            for member in component:
                cyclic |= 1 << member
    return cyclic


def cyclic_components(graph: Digraph) -> list[list[Hashable]]:
    """SCCs of *graph* that contain at least one cycle.

    An SCC is *cyclic* iff it has more than one node, or its single node has
    a self-loop.  These are exactly the components through which a directed
    cycle can pass.
    """
    return [component for component in strongly_connected_components(graph)
            if len(component) > 1
            or graph.has_edge(component[0], component[0])]
