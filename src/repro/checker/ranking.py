"""Ranking-function certificates for strong convergence.

The classical way to *design* convergence (layering / ranking methods
the paper's introduction surveys [9–12]) is a function that every step
outside the invariant strictly decreases.  Going the other way, for any
strongly convergent instance such a function always exists, and this
module extracts a canonical one:

    ρ(s) = length of the longest transition path from ``s`` that stays
           outside ``I`` (0 for states in ``I``)

``ρ`` is finite exactly when ``Δ_p | ¬I`` is acyclic (no livelocks), and
every move from a state outside ``I`` either enters ``I`` or strictly
decreases ρ — making ρ a *strict* ranking certificate whose maximum is
the worst-case recovery time under the worst possible daemon (compare
:meth:`GlobalReport.worst_case_recovery_steps`, which is the best-daemon
distance).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.checker.statespace import StateGraph
from repro.graphs.scc import tarjan


@dataclass(frozen=True)
class RankingCertificate:
    """A strict ranking over one instance's state space.

    ``ranks[i]`` is ρ of state index ``i`` in the underlying
    :class:`StateGraph`'s ordering.
    """

    graph: StateGraph
    ranks: tuple[int, ...]

    @property
    def max_rank(self) -> int:
        """Worst-case recovery steps under the worst daemon."""
        return max(self.ranks)

    def rank_of(self, state) -> int:
        return self.ranks[self.graph.index[state]]

    def layers(self) -> dict[int, int]:
        """Histogram: rank value -> number of states at that rank
        (the "convergence stairs")."""
        histogram: dict[int, int] = {}
        for rank in self.ranks:
            histogram[rank] = histogram.get(rank, 0) + 1
        return dict(sorted(histogram.items()))


def compute_ranking(graph: StateGraph) -> RankingCertificate | None:
    """Extract the longest-escape ranking, or ``None`` when the instance
    is not strongly convergent (a deadlock or cycle outside ``I``)."""
    successors = graph.outside_successors
    off = graph.succ_off
    ranks = [0] * len(graph)
    # Longest path over the ¬I DAG: Tarjan emits components in reverse
    # topological order, so every successor is ranked before its
    # predecessors; with no cycles every component is a singleton.
    for component in tarjan(graph.outside_indices(), successors):
        node = component[0]
        targets = successors(node)
        if len(component) > 1 or node in targets:
            return None  # livelock: no finite ranking exists
        if off[node] == off[node + 1]:
            return None  # deadlock outside I
        ranks[node] = 1 + max((ranks[target] for target in targets),
                              default=0)
    return RankingCertificate(graph=graph, ranks=tuple(ranks))


def verify_ranking(graph: StateGraph,
                   ranks: tuple[int, ...] | list[int]) -> bool:
    """Independently check that *ranks* is a valid strict ranking:

    * states in ``I`` have rank 0;
    * every state outside ``I`` has at least one move, and **every** of
      its moves either enters ``I`` or strictly decreases the rank.

    A valid ranking witnesses strong convergence (Proposition 2.1) —
    this is the 'certificate checking' half of ranking-based design.
    """
    if len(ranks) != len(graph):
        return False
    for index in range(len(graph)):
        if graph.in_invariant[index]:
            if ranks[index] != 0:
                return False
            continue
        if ranks[index] <= 0:
            return False
        successors = graph.successors[index]
        if not successors:
            return False
        for succ in successors:
            if not graph.in_invariant[succ] and \
                    ranks[succ] >= ranks[index]:
                return False
    return True
