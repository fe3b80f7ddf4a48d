"""Systematic fault-schedule generation.

The checker's search space is described by a :class:`ScheduleSpace` — the
network shape plus the finite alphabet of fault actions worth scheduling on
it. Two generators walk it:

* :func:`enumerate_schedules` — **exhaustive breadth-first** enumeration of
  every combination of up to ``depth`` alphabet actions. Faults apply
  declaratively (each is anchored to its own time or frame index), so two
  orderings of the same action set execute identically; enumerating
  *combinations* instead of permutations keeps the frontier free of
  redundant schedules without losing coverage.
* :func:`sample_schedules` — **seeded guided-random** sampling beyond the
  exhaustive bound: deeper schedules drawn from the same alphabet, biased
  toward the adversarial structures the paper worries about (omissions on
  protocol frames of crashed nodes, inconsistent omissions with small
  accepting subsets, sender crashes timed before retransmission).

Both are fully deterministic functions of their arguments, which is what
lets a checkpointed sweep resume against the same population and lets
``repro check --replay`` find the same schedule years later.

The alphabet deliberately respects the fault model's degree bounds
(MCAN3/LCAN4): schedules with more omissions than the configured ``k``/``j``
would be outside the system model and their violations meaningless.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, List, Sequence, Tuple

from repro.errors import CheckError
from repro.sim.rng import derive_seed
from repro.workloads.scenario import (
    ACTION_CRASH,
    ACTION_JOIN,
    ACTION_LEAVE,
    ACTION_OMIT,
    OMISSION_CONSISTENT,
    OMISSION_INCONSISTENT,
    Action,
    Scenario,
)

#: Frame types worth attacking: the protocol control traffic. (DATA only
#: flows when a traffic source is scripted, so it is not in the default
#: alphabet.)
DEFAULT_FRAME_TYPES = ("FDA", "ELS", "RHA", "JOIN", "LEAVE")

#: Frame types whose identifier names the *sender* (crash_sender targets).
SENDER_NAMED_TYPES = ("ELS", "DATA")

#: The deepest schedule :func:`sample_schedules` draws by default, and the
#: one :func:`schedule_population` samples up to.
SAMPLE_MAX_DEPTH = 5


@dataclass(frozen=True)
class ScheduleSpace:
    """The bounded space the explorer walks.

    Attributes:
        nodes: network population.
        members: initial full members (< nodes leaves late joiners for the
            ``join`` alphabet entries).
        crash_offsets_ms: candidate crash/leave/join firing times.
        frame_types: message types omission faults may target.
        nth_frames: which matching-frame ordinals omissions may hit.
        max_inconsistent: LCAN4's ``j`` — at most this many inconsistent
            omissions per schedule.
        max_omissions: MCAN3's ``k`` — at most this many omissions total.
        run_ms / tm_ms / thb_ms / tjoin_wait_ms / capacity: forwarded to
            every generated :class:`~repro.workloads.scenario.Scenario`.
    """

    nodes: int = 5
    members: int = 4
    crash_offsets_ms: Tuple[float, ...] = (0.0, 25.0, 60.0)
    frame_types: Tuple[str, ...] = DEFAULT_FRAME_TYPES
    nth_frames: Tuple[int, ...] = (0, 1)
    max_inconsistent: int = 2
    max_omissions: int = 3
    run_ms: float = 400.0
    tm_ms: float = 50.0
    thb_ms: float = 10.0
    tjoin_wait_ms: float = 150.0
    capacity: int = 16

    def __post_init__(self) -> None:
        if not 2 <= self.members <= self.nodes <= self.capacity:
            raise CheckError(
                f"bad population: members={self.members} nodes={self.nodes} "
                f"capacity={self.capacity}"
            )
        if self.max_inconsistent < 0 or self.max_omissions < 0:
            raise CheckError("omission degree bounds must be non-negative")

    # -- the action alphabet ---------------------------------------------------

    @cached_property
    def alphabet(self) -> Tuple[Action, ...]:
        """Every atomic fault action the space admits, in a stable order;
        built once per space."""
        actions: List[Action] = []
        members = range(self.members)
        late = range(self.members, self.nodes)
        for offset in self.crash_offsets_ms:
            for node in members:
                actions.append(
                    Action(ACTION_CRASH, node=node, at_ms=offset)
                )
                actions.append(
                    Action(ACTION_LEAVE, node=node, at_ms=offset)
                )
            for node in late:
                actions.append(Action(ACTION_JOIN, node=node, at_ms=offset))
        for frame_type in self.frame_types:
            for nth in self.nth_frames:
                actions.append(
                    Action(
                        ACTION_OMIT,
                        frame_type=frame_type,
                        nth=nth,
                        omission=OMISSION_CONSISTENT,
                    )
                )
                # One-receiver accepting subsets: the smallest (and most
                # adversarial) inconsistency — exactly the paper's
                # last-two-bits scenario at a single node.
                for accepting in range(min(2, self.members)):
                    actions.append(
                        Action(
                            ACTION_OMIT,
                            frame_type=frame_type,
                            nth=nth,
                            omission=OMISSION_INCONSISTENT,
                            accepting=(accepting,),
                        )
                    )
        # Duplicate-generation timing: a sender's frame suffers an
        # inconsistent omission and the sender dies before retransmitting.
        for frame_type in self.frame_types:
            if frame_type not in SENDER_NAMED_TYPES:
                continue
            for node in range(min(2, self.members)):
                actions.append(
                    Action(
                        ACTION_OMIT,
                        node=node,
                        frame_type=frame_type,
                        nth=0,
                        omission=OMISSION_INCONSISTENT,
                        accepting=((node + 1) % self.members,),
                        crash_sender=True,
                    )
                )
        return tuple(actions)

    # -- model-bound admissibility ------------------------------------------------

    def admits(self, faults: Sequence[Action]) -> bool:
        """True when ``faults`` respects the space's fault-model bounds."""
        omissions = inconsistent = 0
        gone = set()  # members crashed or left
        timed = set()  # nodes with a crash, leave or join
        for fault in faults:
            if fault.action == ACTION_OMIT:
                omissions += 1
                inconsistent += fault.omission == OMISSION_INCONSISTENT
                if fault.crash_sender:
                    gone.add(fault.node)
            elif fault.action in (ACTION_CRASH, ACTION_LEAVE, ACTION_JOIN):
                # At most one timed action per node: a second crash of a
                # crashed node (or leave-after-crash) is a no-op
                # permutation of a shallower schedule.
                if fault.node in timed:
                    return False
                timed.add(fault.node)
                if fault.action != ACTION_JOIN:
                    gone.add(fault.node)
        # Keep at least two correct members alive: an emptied network has
        # no view to check agreement on.
        return (
            omissions <= self.max_omissions
            and inconsistent <= self.max_inconsistent
            and self.members - len(gone) >= 2
        )

    def schedule(self, faults: Sequence[Action], seed: int) -> Scenario:
        """Wrap ``faults`` into an executable schedule."""
        return Scenario(
            nodes=self.nodes,
            members=self.members,
            actions=tuple(faults),
            run_ms=self.run_ms,
            tm_ms=self.tm_ms,
            thb_ms=self.thb_ms,
            tjoin_wait_ms=self.tjoin_wait_ms,
            capacity=self.capacity,
            seed=seed,
        )


def enumerate_schedules(
    space: ScheduleSpace, depth: int
) -> Iterator[Scenario]:
    """Exhaustive BFS: every admissible schedule of up to ``depth`` actions.

    Breadth-first order (all depth-0 schedules, then depth-1, ...) so a
    budget-truncated sweep still covers the shallow space completely — and
    the first counterexample found is already depth-minimal.
    """
    if depth < 0:
        raise CheckError(f"depth must be >= 0: {depth}")
    alphabet = space.alphabet
    index = 0
    for size in range(depth + 1):
        for combo in itertools.combinations(alphabet, size):
            if not space.admits(combo):
                continue
            yield space.schedule(combo, seed=index)
            index += 1


def sample_schedules(
    space: ScheduleSpace,
    count: int,
    seed: int = 0,
    min_depth: int = 2,
    max_depth: int = SAMPLE_MAX_DEPTH,
) -> Iterator[Scenario]:
    """Seeded guided-random sampling beyond the exhaustive bound.

    Draws ``count`` admissible schedules of ``min_depth..max_depth``
    actions. The guidance: half of all draws are *focused* — they pick one
    victim node and stack its crash with omissions on the protocol frames
    that disseminate that very failure (FDA/RHA), the timing interactions
    where agreement bugs hide. The other half are uniform over the
    alphabet. Deterministic in (space, count, seed).
    """
    if count < 0:
        raise CheckError(f"count must be >= 0: {count}")
    if not 0 <= min_depth <= max_depth:
        raise CheckError(f"bad depth range {min_depth}..{max_depth}")
    alphabet = space.alphabet
    omissions = [f for f in alphabet if f.action == ACTION_OMIT]
    crashes = [f for f in alphabet if f.action == ACTION_CRASH]
    produced = 0
    draw = 0
    while produced < count:
        rng = random.Random(derive_seed(seed, f"check/sample/{draw}"))
        draw += 1
        size = rng.randint(min_depth, max_depth)
        faults: List[Action]
        if crashes and omissions and rng.random() < 0.5:
            # Focused draw: one crash plus omissions clustered on the
            # failure-dissemination traffic.
            crash = rng.choice(crashes)
            cluster = [
                f
                for f in omissions
                if f.frame_type in ("FDA", "RHA", "ELS")
            ] or omissions
            faults = [crash] + rng.sample(
                cluster, min(size - 1, len(cluster))
            )
        else:
            faults = rng.sample(alphabet, min(size, len(alphabet)))
        if not space.admits(faults):
            continue
        yield space.schedule(faults, seed=derive_seed(seed, f"sample/{draw}"))
        produced += 1


def schedule_population(
    space: ScheduleSpace,
    depth: int,
    samples: int = 0,
    seed: int = 0,
) -> List[Scenario]:
    """The checker's standard population: the exhaustive sweep up to
    ``depth`` followed by ``samples`` guided-random schedules of
    ``depth + 1`` to :data:`SAMPLE_MAX_DEPTH` actions.

    Deterministic in its arguments: schedule ``i`` of the returned list is
    the same for the same ``(space, depth, samples, seed)``.
    """
    population = list(enumerate_schedules(space, depth))
    if samples:
        population.extend(
            sample_schedules(
                space,
                samples,
                seed=seed,
                min_depth=min(depth + 1, SAMPLE_MAX_DEPTH),
            )
        )
    return population
