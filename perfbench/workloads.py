"""The benchmark's workloads and the hand-written verdict each job must give.

Every expected answer below comes from the paper or from arithmetic, not
from a run of the code under test.  Where the paper is silent on a size
(Gouda-Acharya at K=9, the 5- and 6-coloring synthesis pools, the
supports/rejection counts) the answer was confirmed once with the naive
reference backend (``--backend naive``, and ``backend="naive",
search="flat"`` through the API) and frozen here.

A job is a fresh process.  ``cli`` jobs run ``repro.cli.main(args)``;
``api`` jobs call ``getattr(repro, function)`` on the protocol built by
``getattr(repro.protocols, factory)(*factory_args)``.  A cli job passes
when its exit code matches and every expected line fragment appears in
its standard output; an api job passes when every expected result field
matches exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Job:
    id: str
    kind: str                 # "cli" or "api"
    args: tuple               # cli argv, or (function, factory, *factory_args)
    exit_code: int = 0
    stdout: tuple = ()        # cli: fragments that must appear in stdout
    result: dict = field(default_factory=dict)  # api: exact result fields


def _verify(name: str, verdict: str, deadlock_free: bool, *extra: str) -> Job:
    return Job(f"verify {name}", "cli", ("verify", name),
               exit_code=0 if verdict == "converges" else 1,
               stdout=(f"verdict: {verdict}\n",
                       f"deadlock-free for all K: {deadlock_free} ")
               + extra)


CONVERGES = "strong convergence: True, weak: True"

# The designer loop through the CLI.  Verdicts per protocol:
# * no-action invariants (2-/3-coloring, agreement, matching-base,
#   sum-not-two) deadlock outside I at every size -> diverges;
# * agreement-ss and sum-not-two-ss converge for every K (Section 6.2);
# * agreement-livelock (Example 5.2) livelocks for even K >= 4, so no
#   certificate -> unknown, while its deadlocks are all legitimate;
# * Example 4.2 is deadlock-free for all K (Thm 4.2, Fig. 2) but is
#   bidirectional, so Thm 5.14 excludes only contiguous livelocks ->
#   unknown;
# * Example 4.3 has illegitimate deadlock cycles of lengths 4 and 6
#   (Fig. 3) and is the STSyn solution for K=5: sizes 4, 6, 7 deadlock,
#   2, 3 and 5 do not;
# * Gouda-Acharya's fragment deadlocks outside I (and livelocks, Fig. 8).
CLI_VERIFY = (
    _verify("2-coloring", "diverges", False),
    _verify("3-coloring", "diverges", False),
    _verify("agreement", "diverges", False),
    _verify("agreement-livelock", "unknown", True),
    _verify("agreement-ss", "converges", True,
            "livelock verdict: certified-livelock-free"),
    _verify("matching-base", "diverges", False),
    _verify("matching-ex4.2", "unknown", True),
    _verify("matching-ex4.3", "diverges", False,
            "deadlocked ring sizes <= 20: [4, 6, 7, 8,"),
    _verify("matching-gouda-acharya", "diverges", False),
    _verify("sum-not-two", "diverges", False),
    _verify("sum-not-two-ss", "converges", True,
            "livelock verdict: certified-livelock-free"),
    # Section 6.2: agreement is repaired without pseudo-livelocks;
    # sum-not-two with Resolve = {20, 11, 02} and pseudo-livelocks that
    # form no trail; Fig. 9: all 8 combinations for 3-coloring form a
    # contiguous trail, so synthesis fails.
    Job("synthesize agreement", "cli", ("synthesize", "agreement"),
        stdout=("outcome: success-no-pseudo-livelock\n",)),
    Job("synthesize sum-not-two", "cli", ("synthesize", "sum-not-two"),
        stdout=("outcome: success-pseudo-livelocks-without-trails\n",
                "Resolve = {⟨0 2⟩, ⟨1 1⟩, ⟨2 0⟩}\n")),
    Job("synthesize 3-coloring", "cli", ("synthesize", "3-coloring"),
        exit_code=1,
        stdout=("outcome: failure\n", "rejected combinations: 8\n")),
    # Agreement-ss converges for every K; at K=8 there are 2**8 states,
    # two of them (all-0, all-1) legitimate.
    Job("check agreement-ss -K 8", "cli",
        ("check", "agreement-ss", "-K", "8"),
        stdout=("K=8: 256 states, 2 in I\n", CONVERGES)),
)

# The paper's own contribution through the public API, which the CLI
# cannot reach: verify stops at Gouda-Acharya's deadlock, and synthesize
# accepts only registry names.
# Fig. 8: Gouda-Acharya's LTG has a contiguous trail, so Thm 5.14
# cannot certify it (441 supports, one witness; confirmed naive).
# Coloring with 5 and 6 colours on a unidirectional ring fails like
# 3-coloring (Fig. 9): every candidate combination is rejected
# (confirmed with the naive backend and the flat search).
LOCAL_CERTIFY = (
    Job("certify_livelock_freedom(matching-gouda-acharya)", "api",
        ("certify_livelock_freedom", "gouda_acharya_matching"),
        result={"verdict": "unknown", "supports_checked": 441,
                "trail_witnesses": 1}),
    Job("synthesize_convergence(coloring(5))", "api",
        ("synthesize_convergence", "coloring", 5),
        result={"outcome": "failure", "chosen": 0, "rejected": 1024}),
    Job("synthesize_convergence(coloring(6))", "api",
        ("synthesize_convergence", "coloring", 6),
        result={"outcome": "failure", "chosen": 0, "rejected": 4097}),
)


LOCAL_REASONING = CLI_VERIFY + LOCAL_CERTIFY


def global_check(seed: int) -> tuple[Job, ...]:
    """Per-K model checking, serial and through the process pool, and
    the fuzz audit of the theorems against it.  Example 4.2 has 3 local
    values, so K=10 has 3**10 states and the sweep over K = 3..9 explores
    sum(3**K) = 29511; it converges at every K.  Gouda-Acharya at K=9
    deadlocks and livelocks (counts confirmed with --backend naive).
    The seed reaches only ``fuzz --seed``; a correct implementation
    audits clean for every seed, since Thm 4.2 is exact and Thm 5.14 is
    sound."""
    return (
        Job("check matching-ex4.2 -K 10", "cli",
            ("check", "matching-ex4.2", "-K", "10"),
            stdout=("K=10: 59049 states, 17 in I\n",
                    "deadlocks outside I: 0\n", "livelocks: 0\n",
                    CONVERGES)),
        Job("check matching-gouda-acharya -K 9", "cli",
            ("check", "matching-gouda-acharya", "-K", "9"), exit_code=1,
            stdout=("K=9: 19683 states, 12 in I\n",
                    "deadlocks outside I: 499\n", "livelocks: 4\n",
                    "strong convergence: False, weak: False")),
        Job("sweep matching-ex4.2 --up-to 9 --jobs 2", "cli",
            ("sweep", "matching-ex4.2", "--up-to", "9", "--jobs", "2"),
            stdout=("sweep over K = 3..9: self-stabilizing throughout\n",
                    "total states explored: 29511\n")),
        Job(f"fuzz --samples 300 --jobs 2 --seed {seed}", "cli",
            ("fuzz", "--samples", "300", "--jobs", "2", "--seed", str(seed)),
            stdout=("fuzzing audit: 300 random protocols, "
                    "1200 per-size deadlock comparisons, ", " — CLEAN\n")),
    )


def jobs_for(workload: str, seed: int) -> tuple[Job, ...]:
    return (LOCAL_REASONING if workload == "local-reasoning"
            else global_check(seed))


#: local-reasoning runs the paper's local analyses (Thm 4.2, Thm 5.14,
#: Section 6) and bypasses global checking and the process pool;
#: global-check runs the per-K model-checking baseline, the pool and the
#: fuzz audit, and bypasses local reasoning in the job processes.
WORKLOADS = ("local-reasoning", "global-check")

#: Spans every cli job produces around the command itself.
CLI_FRAMING = ("startup.parser", "engine.artifacts.open",
               "engine.artifacts.limit")

#: Traced spans each workload must produce at least once; a missing one
#: means an entry point was renamed or bypassed, and the traced run fails.
#: Together the workloads require every span ``child.py`` can record.
REQUIRED_SPANS = {
    "local-reasoning": ("protocol.build", "protocol.local_space",
                        "core.verify", "core.certify", "core.synthesize",
                        "core.deadlock", "core.pseudolivelock.supports",
                        "core.trail.search", "engine.localkernel.find_trail",
                        "checker.check", "checker.statespace.build",
                        "checker.deadlock", "checker.livelock",
                        "checker.recovery", "engine.cache.get",
                        "engine.cache.put", "obs.live.publish",
                        "obs.ledger.append") + CLI_FRAMING,
    "global-check": ("protocol.build", "checker.check", "checker.sweep",
                     "checker.statespace.build", "checker.deadlock",
                     "checker.livelock", "checker.recovery",
                     "randomgen.audit", "engine.dispatch",
                     "engine.cache.get", "engine.cache.put",
                     "obs.live.publish", "obs.ledger.append") + CLI_FRAMING,
}
