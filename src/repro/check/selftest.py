"""Mutation-style self-test: prove the checker can actually find bugs.

A checker that reports "zero violations" is only as credible as its
ability to catch a real bug. This module keeps a registry of *planted
mutations* — small, seeded protocol bugs applied as reversible monkey
patches — and :func:`run_selftest` asserts the full pipeline works end to
end against one of them:

1. plant the mutation;
2. explore a small bounded schedule space (in-process, so the patch stays
   applied) until a violation surfaces;
3. delta-debug the violating schedule to a 1-minimal counterexample;
4. write the replayable artifact and replay it, asserting bit-for-bit
   reproduction (same verdict, same monitor, same trace fingerprint);
5. un-plant the mutation and re-run the minimal schedule, asserting the
   checker goes quiet — the violation was the mutation's, not noise.

Each mutation names the monitor expected to catch it, so the selftest
also pins the *diagnosis*, not just the detection. A mutated method keeps
the name of the one it replaces (``functools.wraps``): a network pickles
its bound methods by name, and a sweep restores its shared bootstrap
from such a snapshot (:func:`repro.workloads.scenario.shared_bootstraps`).
"""

from __future__ import annotations

import contextlib
import functools
import io
from dataclasses import dataclass, field
from typing import Callable, ContextManager, Dict, Iterator, List, Optional

from repro.check.artifact import replay_artifact, write_artifact
from repro.check.explorer import ScheduleSpace
from repro.check.sweep import CheckSweep, explore
from repro.core.fda import FdaProtocol
from repro.core.failure_detector import FailureDetector
from repro.errors import CheckError
from repro.workloads.scenario import Result, Scenario, run

#: The minimal counterexample a passing selftest may report — planted
#: mutations are triggerable by a lone crash, so anything bigger means the
#: minimizer regressed.
MAX_MINIMAL_FAULTS = 3


@dataclass(frozen=True)
class Mutation:
    """A registered planted bug.

    ``plant`` returns a context manager that applies the patch on entry
    and restores the original code on exit; ``expected_monitor`` names the
    invariant monitor that must catch it.
    """

    name: str
    description: str
    expected_monitor: str
    plant: Callable[[], ContextManager[None]]


@contextlib.contextmanager
def _plant_fda_duplicate_delivery() -> Iterator[None]:
    """Drop Fig. 6's r02 duplicate check: every physical failure-sign copy
    is delivered upward, not just the first."""
    original = FdaProtocol._on_rtr_ind

    @functools.wraps(original)
    def mutated(self, mid):
        self._last_touch[mid] = self._cycle
        self._fs_ndup[mid] = self._fs_ndup.get(mid, 0) + 1  # r01
        # r02 gone: fall through to delivery on every copy.
        sim = self._sim
        if sim is not None:
            self._inc_delivered()
            sim.trace.record(
                sim.now,
                "fda.nty",
                node=self._layer.node_id,
                failed=mid.node,
            )
        for listener in list(self._listeners):
            listener(mid.node)
        self._fs_nreq[mid] = self._fs_nreq.get(mid, 0) + 1  # r04
        if self._fs_nreq[mid] == 1:  # r05
            self._inc_retransmissions()
            self._layer.rtr_req(mid)  # r06

    FdaProtocol._on_rtr_ind = mutated
    try:
        yield
    finally:
        FdaProtocol._on_rtr_ind = original


@contextlib.contextmanager
def _plant_fd_missed_detection() -> Iterator[None]:
    """Gut Fig. 8's f10 clause: a remote surveillance timeout is silently
    dropped, so crashed members are never signalled or removed."""
    original = FailureDetector._on_expire

    @functools.wraps(original)
    def mutated(self, node_id):
        if not self.monitoring(node_id):
            return
        if node_id == self._layer.node_id:
            original(self, node_id)  # f07-f08 local heartbeat untouched
        # f10 gone: remote silence is ignored.

    FailureDetector._on_expire = mutated
    try:
        yield
    finally:
        FailureDetector._on_expire = original


#: The registry the CLI and tests draw from, keyed by mutation name.
MUTATIONS: Dict[str, Mutation] = {
    mutation.name: mutation
    for mutation in (
        Mutation(
            name="fda-duplicate-delivery",
            description=(
                "FDA reception loses the duplicate counter check (Fig. 6 "
                "r02): every physical failure-sign copy delivers upward"
            ),
            expected_monitor="no-duplicate-failure-sign",
            plant=_plant_fda_duplicate_delivery,
        ),
        Mutation(
            name="fd-missed-detection",
            description=(
                "the failure detector drops remote surveillance timeouts "
                "(Fig. 8 f10): crashed members are never detected"
            ),
            expected_monitor="final-state",
            plant=_plant_fd_missed_detection,
        ),
    )
}

DEFAULT_MUTATION = "fda-duplicate-delivery"


@dataclass
class SelftestReport:
    """Everything :func:`run_selftest` verified, step by step."""

    mutation: str
    expected_monitor: str
    schedules_run: int = 0
    violations_found: int = 0
    violation_index: Optional[int] = None
    caught_by: str = ""
    minimized_faults: int = -1
    minimize_runs: int = 0
    replay_ok: bool = False
    clean_after_unplant: bool = False
    artifact_path: Optional[str] = None
    failures: List[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        """True when every pipeline stage behaved."""
        return not self.failures

    def summary(self) -> str:
        """Multi-line, human-readable verdict."""
        lines = [
            f"selftest [{self.mutation}]: "
            + ("PASS" if self.passed else "FAIL"),
            f"  explored {self.schedules_run} schedules, "
            f"{self.violations_found} violation(s) found",
        ]
        if self.violation_index is not None:
            lines.append(
                f"  first violation: schedule #{self.violation_index}, "
                f"caught by [{self.caught_by}], minimized to "
                f"{self.minimized_faults} fault(s) "
                f"in {self.minimize_runs} runs"
            )
            lines.append(
                f"  replay bit-for-bit: "
                f"{'ok' if self.replay_ok else 'MISMATCH'}; "
                f"clean after un-planting: "
                f"{'ok' if self.clean_after_unplant else 'STILL VIOLATING'}"
            )
        for failure in self.failures:
            lines.append(f"  ! {failure}")
        return "\n".join(lines)


def selftest_sweep(seed: int = 0) -> CheckSweep:
    """The small bounded sweep the selftest explores.

    Depth-1 over a 4-node space: both planted mutations trip on a lone
    crash, and a ~60-schedule population keeps the selftest in CI-smoke
    territory.
    """
    return CheckSweep(space=ScheduleSpace(), depth=1, samples=0, seed=seed)


def run_selftest(
    mutation: str = DEFAULT_MUTATION,
    seed: int = 0,
    artifact_path: Optional[str] = None,
) -> SelftestReport:
    """Plant ``mutation``, prove the checker finds/minimizes/replays it.

    Never raises for a failed check — every broken stage lands in
    ``report.failures`` so CI prints the complete diagnosis; only an
    unknown mutation name raises :class:`~repro.errors.CheckError`.
    """
    registered = MUTATIONS.get(mutation)
    if registered is None:
        raise CheckError(
            f"unknown mutation {mutation!r}; "
            f"registered: {sorted(MUTATIONS)}"
        )
    report = SelftestReport(
        mutation=registered.name,
        expected_monitor=registered.expected_monitor,
    )
    sweep = selftest_sweep(seed=seed)
    minimal: Optional[Scenario] = None

    with registered.plant():
        # 1-2. explore in-process (workers=0: the patch must stay applied).
        exploration = explore(sweep, workers=0)
        report.schedules_run = len(exploration.results)
        report.violations_found = sum(
            1 for r in exploration.results if r.verdict == "violation"
        )
        if not exploration.counterexamples:
            report.failures.append(
                "the checker did not find the planted bug"
            )
            return report

        # 3. the minimal counterexample.
        counterexample = exploration.counterexamples[0]
        minimal = counterexample.minimized
        report.violation_index = counterexample.index
        report.caught_by = counterexample.result.monitor
        report.minimized_faults = minimal.depth
        report.minimize_runs = counterexample.minimize_runs
        if report.caught_by != registered.expected_monitor:
            report.failures.append(
                f"caught by [{report.caught_by}], expected "
                f"[{registered.expected_monitor}]"
            )
        if minimal.depth > MAX_MINIMAL_FAULTS:
            report.failures.append(
                f"minimal counterexample has {minimal.depth} faults "
                f"(> {MAX_MINIMAL_FAULTS})"
            )

        # 4. artifact round-trip, still under the mutation. The header
        # records the mutation so a later `repro check --replay` can
        # re-plant it and reproduce the run bit-for-bit.
        report.replay_ok = _replay_roundtrip(
            counterexample.result,
            artifact_path,
            report,
            extra={"mutation": registered.name},
        )

    # 5. un-planted, the minimal schedule must pass clean.
    clean = run(minimal)
    report.clean_after_unplant = clean.ok
    if not clean.ok:
        report.failures.append(
            "minimal counterexample still fails without the mutation "
            f"(verdict {clean.verdict!r}) — pre-existing bug or flaky "
            "checker"
        )
    return report


def _replay_roundtrip(
    result: Result,
    artifact_path: Optional[str],
    report: SelftestReport,
    extra: Optional[Dict[str, str]] = None,
) -> bool:
    """Write the artifact (file or in-memory) and replay it bit-for-bit."""
    try:
        if artifact_path is not None:
            write_artifact(artifact_path, result, extra=extra)
            report.artifact_path = artifact_path
            replay_artifact(artifact_path)
        else:
            buffer = io.StringIO()
            write_artifact(buffer, result, extra=extra)
            buffer.seek(0)
            replay_artifact(buffer)
        return True
    except CheckError as error:
        report.failures.append(f"replay mismatch: {error}")
        return False
