"""Livelock-induced precedence relation (Definition 5.10, Lemma 5.11).

A livelock of a concrete ring instance is a cyclic sequence of global
states.  Its *schedule* is the sequence of (process, local transition)
pairs executed along the cycle.  Definition 5.10 orders two scheduled
transitions ``t_i ≺ t_j`` when

1. executing ``t_i`` *enables* ``t_j`` (``t_i``'s process is the
   predecessor of ``t_j``'s and the execution establishes ``t_j``'s source
   local state), or
2. executing ``t_j`` earlier would *collide* with ``t_i`` (``t_j``'s
   process is the predecessor of ``t_i``'s and ``t_j`` was already enabled
   when ``t_i`` fired), or
3. transitively through an intermediate transition;

and additionally two executions of the same process are ordered by their
schedule positions.  Lemma 5.11 states that every precedence-preserving
permutation of the schedule is again a livelock; this module computes the
relation, the independent pairs, and enumerates the precedence-preserving
schedules.

Our direct rendering of conditions 1–2 is a (sound) *under*-approximation
of the paper's ≺ — it may leave more pairs unordered than the paper
intends — so :func:`precedence_preserving_schedules` replay-validates each
linear extension by default and emits exactly the schedules that are
livelocks.  On Example 5.2 this yields precisely the paper's count of
8 = 2³ permutations (the ground truth: 8 of the 5040 rotations-fixed
permutations replay to a livelock).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from repro.errors import TopologyError, VerificationError
from repro.protocol.actions import LocalTransition
from repro.protocol.instance import GlobalState, RingInstance


@dataclass(frozen=True)
class ScheduledTransition:
    """One schedule entry: *process* executes *transition* at *position*."""

    position: int
    process: int
    transition: LocalTransition

    def __str__(self) -> str:
        own = self.transition.source.own, self.transition.target.own

        def fmt(cell):
            return cell[0] if len(cell) == 1 else cell

        return f"t[{fmt(own[0])}→{fmt(own[1])}]^{self.process}"


@dataclass
class PrecedenceRelation:
    """The ≺ relation over a livelock schedule, plus the replay context."""

    instance: RingInstance
    start: GlobalState
    schedule: tuple[ScheduledTransition, ...]
    order: frozenset[tuple[int, int]]
    """Pairs ``(i, j)`` with ``t_i ≺ t_j`` (transitively closed)."""

    @property
    def independent_pairs(self) -> list[tuple[int, int]]:
        """Unordered pairs ``i < j`` with neither ``t_i ≺ t_j`` nor
        ``t_j ≺ t_i``."""
        n = len(self.schedule)
        return [(i, j) for i in range(n) for j in range(i + 1, n)
                if (i, j) not in self.order and (j, i) not in self.order]

    def preserves(self, permutation: Sequence[int]) -> bool:
        """Whether *permutation* (of schedule positions) respects ≺."""
        rank = {pos: k for k, pos in enumerate(permutation)}
        return all(rank[i] < rank[j] for i, j in self.order)


def schedule_of_cycle(instance: RingInstance,
                      cycle: Sequence[GlobalState],
                      ) -> tuple[ScheduledTransition, ...]:
    """Recover the schedule of a state cycle (one process per step).

    ``cycle[k+1]`` (cyclically) must differ from ``cycle[k]`` in exactly
    one process's cell, and the change must be an enabled local transition.
    """
    schedule = []
    n = len(cycle)
    for k in range(n):
        state, nxt = cycle[k], cycle[(k + 1) % n]
        changed = [r for r in range(instance.size) if state[r] != nxt[r]]
        if len(changed) != 1:
            raise VerificationError(
                f"cycle step {k} changes {len(changed)} processes; "
                f"interleaving semantics requires exactly one")
        process = changed[0]
        source = instance.local_state(state, process)
        target = instance.local_state(nxt, process)
        # Everything in the source window except offset 0 must be stable.
        transition = LocalTransition(source, source.replace_own(target.own),
                                     label=f"step{k}")
        if not any(move.target == nxt
                   for move in instance.moves_of(state, process)):
            raise VerificationError(
                f"cycle step {k} is not an enabled move of process "
                f"{process}")
        schedule.append(ScheduledTransition(k, process, transition))
    return tuple(schedule)


def precedence_relation(instance: RingInstance,
                        cycle: Sequence[GlobalState]) -> PrecedenceRelation:
    """Compute ≺ for a livelock *cycle* of a unidirectional ring."""
    if not instance.protocol.unidirectional:
        raise TopologyError("the precedence relation of Definition 5.10 "
                            "is defined for unidirectional rings")
    schedule = schedule_of_cycle(instance, cycle)
    n = len(schedule)
    size = instance.size

    # states_before[k] = global state immediately before schedule step k.
    states_before = list(cycle)

    def holds(state: GlobalState, entry: ScheduledTransition) -> bool:
        return instance.local_state(state, entry.process) == \
            entry.transition.source

    direct: set[tuple[int, int]] = set()
    for i in range(n):
        for j in range(i + 1, n):
            pi, pj = schedule[i].process, schedule[j].process
            if pi == pj:
                direct.add((i, j))
            elif (pi + 1) % size == pj:
                # Does executing step i establish t_j's source state?
                before = holds(states_before[i], schedule[j])
                after = holds(states_before[(i + 1) % n], schedule[j])
                if after and not before:
                    direct.add((i, j))
            elif (pj + 1) % size == pi:
                # t_j at the predecessor of p_i: running it before step i
                # (when it was already enabled) would collide with t_i.
                if holds(states_before[i], schedule[j]):
                    direct.add((i, j))

    closed = _transitive_closure(direct, n)
    return PrecedenceRelation(instance, cycle[0], schedule,
                              frozenset(closed))


def _transitive_closure(pairs: set[tuple[int, int]],
                        n: int) -> set[tuple[int, int]]:
    reach = {i: {j for (a, j) in pairs if a == i} for i in range(n)}
    changed = True
    while changed:
        changed = False
        for i in range(n):
            extra = set()
            for j in reach[i]:
                extra |= reach[j] - reach[i]
            if extra:
                reach[i] |= extra
                changed = True
    return {(i, j) for i in range(n) for j in reach[i]}


def replay(instance: RingInstance, start: GlobalState,
           schedule: Sequence[ScheduledTransition],
           permutation: Sequence[int]) -> list[GlobalState] | None:
    """Replay the schedule in permuted order; ``None`` when invalid.

    Validity: every step's local transition is enabled when its turn
    comes, and the final state equals *start* (so the permuted schedule is
    again a livelock cycle).  Returns the visited states (length
    ``len(schedule)``, starting at *start*).
    """
    state = start
    visited = [start]
    for position in permutation:
        entry = schedule[position]
        if instance.local_state(state, entry.process) != \
                entry.transition.source:
            return None
        cells = list(state)
        cells[entry.process] = entry.transition.target.own
        state = tuple(cells)
        visited.append(state)
    if state != start:
        return None
    return visited[:-1]


def precedence_preserving_schedules(
        relation: PrecedenceRelation,
        fix_first: bool = True,
        validate: bool = True) -> Iterator[tuple[int, ...]]:
    """Enumerate precedence-preserving permutations of the schedule.

    The schedule of a livelock is defined up to cyclic rotation, so by
    default the first transition is pinned (the paper fixes the "starting"
    local transition to make class membership well-defined).  With
    ``validate=True`` each permutation is replayed and silently dropped if
    the replay fails — by Lemma 5.11 none should ever be dropped, and the
    test suite asserts exactly that.
    """
    n = len(relation.schedule)
    order = relation.order
    predecessors: dict[int, set[int]] = {j: set() for j in range(n)}
    for i, j in order:
        predecessors[j].add(i)

    first = [0] if fix_first else list(range(n))

    def extend(chosen: list[int], remaining: set[int],
               ) -> Iterator[tuple[int, ...]]:
        if not remaining:
            yield tuple(chosen)
            return
        placed = set(chosen)
        for candidate in sorted(remaining):
            if predecessors[candidate] <= placed:
                chosen.append(candidate)
                yield from extend(chosen, remaining - {candidate})
                chosen.pop()

    for start in first:
        if predecessors[start] and fix_first:
            # The pinned first element must be minimal; for livelock
            # schedules position 0 always is (nothing precedes it within
            # one period once rotation is fixed).
            if predecessors[start]:
                continue
        for permutation in extend([start], set(range(n)) - {start}):
            if validate:
                if replay(relation.instance, relation.start,
                          relation.schedule, permutation) is None:
                    continue
            yield permutation
