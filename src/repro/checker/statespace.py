"""Explicit global state graph of a concrete protocol instance.

Works with any object exposing the :class:`~repro.protocol.instance.
RingInstance` interface (``states()``, ``successors(state)``,
``invariant_holds(state)``) — the Dijkstra token ring of
:mod:`repro.protocols.token_ring` plugs in the same way despite its
distinguished root process.

Every graph is one CSR adjacency over state indices (``succ_off`` /
``succ_flat``, flat integer buffers) plus one invariant byte per state
(``invariant``).  Two backends fill them:

* ``"kernel"`` — the compiled bit-packed engine of
  :mod:`repro.engine.kernel`: guards compile once into a flat local
  transition table and global states are base-``|C|`` packed integers,
  decoded to tuples only on demand.  Selected automatically for
  symmetric :class:`RingInstance` objects; supports the opt-in
  rotation-symmetry quotient (``symmetry=True``).
* ``"naive"`` — the original pure-Python interpreter over tuple
  states, packed into the same arrays.  The reference implementation
  (the differential suite in ``tests/engine/`` asserts the kernel
  reproduces it state for state) and the only backend for duck-typed
  instances such as the token ring.

Public surface: ``succ_off``, ``succ_flat``, ``invariant``, ``states``,
``index``, ``successors``, ``in_invariant``, ``invariant_indices``,
``deadlock_indices``, ``outside_indices``, ``outside_successors``,
``predecessors_map``, ``distances_to_invariant``.
"""

from __future__ import annotations

from array import array
from functools import cached_property
from typing import Hashable

BACKENDS = ("auto", "kernel", "naive")


class StateGraph:
    """The global transition graph of one protocol instance.

    States are interned to integer indices; the invariant membership of
    every state is precomputed.  Construction visits every global state
    once and its successors once.

    Parameters
    ----------
    instance:
        The protocol instance to explore.
    backend:
        ``"auto"`` (kernel when the instance supports it), ``"kernel"``
        (raise if unsupported) or ``"naive"``.
    symmetry:
        Quotient the space by ring rotations (kernel only).  Rotations
        are automorphisms of symmetric rings, so deadlock existence,
        livelock existence, closure, weak convergence and distances to
        the invariant — hence every convergence verdict — are
        preserved, at a ~K-fold state reduction.  State *counts* then
        refer to rotation orbits, and a cycle of representatives
        witnesses a livelock only up to rotation.
    """

    def __init__(self, instance, backend: str = "auto",
                 symmetry: bool = False) -> None:
        from repro.engine.kernel import build_space, supports_kernel

        if backend not in BACKENDS:
            raise ValueError(f"unknown backend {backend!r}; "
                             f"choose from {BACKENDS}")
        self.instance = instance
        compilable = supports_kernel(instance)
        if backend == "kernel" and not compilable:
            raise ValueError(
                f"backend='kernel' requires a symmetric RingInstance, "
                f"got {type(instance).__name__}")
        use_kernel = compilable and backend != "naive"
        if symmetry and not use_kernel:
            raise ValueError("the rotation-symmetry quotient requires "
                             "the kernel backend")
        self.symmetry = bool(symmetry)
        self.kernel_stats = None
        self._predecessors: list[list[int]] | None = None
        if use_kernel:
            self.backend = "kernel"
            space = build_space(instance, symmetry=symmetry)
            self.kernel_stats = space.stats
            self._decode = space.decode  # backs the lazy ``states``
            self.succ_off = space.succ_off
            self.succ_flat = space.succ_flat
            self.invariant = space.invariant
        else:
            self.backend = "naive"
            states = list(instance.states())
            index = {state: i for i, state in enumerate(states)}
            succ_off = array("q", [0])
            succ_flat = array("q")
            invariant = bytearray(len(states))
            for i, state in enumerate(states):
                succ_flat.extend(
                    [index[t] for t in instance.successors(state)])
                succ_off.append(len(succ_flat))
                invariant[i] = bool(instance.invariant_holds(state))
            self.states, self.index = states, index
            self.succ_off, self.succ_flat = succ_off, succ_flat
            self.invariant = invariant

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.invariant)

    @cached_property
    def states(self) -> list[Hashable]:
        """All states (quotient: orbit representatives), by index.

        Kernel-backed graphs decode lazily: verdict-only analyses never
        touch tuple states at all.
        """
        return [self._decode(i) for i in range(len(self))]

    @cached_property
    def index(self) -> dict[Hashable, int]:
        """State -> index (quotient: representatives only)."""
        return {state: i for i, state in enumerate(self.states)}

    @cached_property
    def successors(self) -> list[list[int]]:
        """Per-state successor index lists (the CSR rows, materialized)."""
        off, flat = self.succ_off, self.succ_flat
        return [list(flat[off[i]:off[i + 1]]) for i in range(len(self))]

    @cached_property
    def in_invariant(self) -> list[bool]:
        """Per-state ``I(K)`` membership flags."""
        return [bool(member) for member in self.invariant]

    @property
    def invariant_indices(self) -> list[int]:
        """Indices of states inside ``I(K)``."""
        return [i for i, member in enumerate(self.invariant) if member]

    def deadlock_indices(self) -> list[int]:
        """Indices of states with no outgoing transition."""
        off = self.succ_off
        return [i for i in range(len(self)) if off[i] == off[i + 1]]

    def outside_indices(self) -> list[int]:
        """Indices of states outside ``I(K)``, ascending."""
        return [i for i, member in enumerate(self.invariant) if not member]

    def outside_successors(self, node: int) -> list[int]:
        """Successors of *node* outside ``I(K)``, in CSR order — the
        adjacency of ``Δ_p | ¬I`` the livelock and ranking analyses
        walk."""
        invariant = self.invariant
        return [target for target in
                self.succ_flat[self.succ_off[node]:self.succ_off[node + 1]]
                if not invariant[target]]

    # ------------------------------------------------------------------
    def predecessors_map(self) -> list[list[int]]:
        """Reverse adjacency (computed once, then cached).

        :meth:`distances_to_invariant` walks it; callers must not
        mutate the returned lists.
        """
        if self._predecessors is None:
            off, flat = self.succ_off, self.succ_flat
            reverse: list[list[int]] = [[] for _ in range(len(self))]
            for source in range(len(self)):
                for position in range(off[source], off[source + 1]):
                    reverse[flat[position]].append(source)
            self._predecessors = reverse
        return self._predecessors

    def distances_to_invariant(self) -> list[int | None]:
        """BFS distance (in transitions) from each state to ``I(K)``.

        ``None`` marks states from which no path into the invariant
        exists; 0 marks invariant states themselves.  On the rotation
        quotient these equal the full-space distances (rotations are
        automorphisms preserving ``I``).
        """
        reverse = self.predecessors_map()
        distance: list[int | None] = [None] * len(self)
        frontier = []
        for i in self.invariant_indices:
            distance[i] = 0
            frontier.append(i)
        depth = 0
        while frontier:
            depth += 1
            next_frontier = []
            for node in frontier:
                for predecessor in reverse[node]:
                    if distance[predecessor] is None:
                        distance[predecessor] = depth
                        next_frontier.append(predecessor)
            frontier = next_frontier
        return distance
