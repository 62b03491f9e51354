"""The fleet migration service: planner + pre-flight + executor + journal.

:class:`FleetService` is the control plane over a running data center.  It
keeps a registry of fleet members (apps with tenant and anti-affinity
metadata), turns operator intents into :class:`MigrationPlan`\\ s, and
executes plans wave by wave:

* every wave passes :func:`~repro.fleet.preflight.run_preflight` before
  anything freezes;
* dispatch goes through the unified request path — one
  :meth:`MigrationRequest.wave <repro.core.api.MigrationRequest.wave>` per
  (wave, destination) group, executed by ``MigratableApp._execute`` — so the
  fleet rides the exact batched stage/flush/complete protocol the chaos
  sweeps harden; with ``dispatch="concurrent"`` the groups of one wave
  overlap on the discrete-event scheduler (record-then-replay, see
  :mod:`repro.sim.scheduler`) so the wave costs its contended makespan in
  virtual time instead of the serial sum — same bytes, same results, only
  the timing model changes; with ``dispatch="pipelined"`` the wave barrier
  disappears entirely: all groups of all waves (and, via
  :meth:`FleetService.apply_many`, of multiple tenants' independent plans)
  replay on one scheduler, each admitted as soon as the machines it claims
  are free of earlier unfinished groups;
* members that park (``PENDING_RETRY``) get one in-line ``resume`` pass
  (the PR-2 retry/resume semantics), and stay typed-pending in the
  :class:`PlanResult` if the fault persists;
* progress is journaled durably at every boundary
  (:class:`~repro.fleet.journal.FleetPlanJournal`), so a planner crash at
  *any* instant leaves the fleet resumable via :meth:`resume_plan`.

The ``boundary_hook`` parameter is the chaos harness's crash seam: it is
called at every journal boundary (``planned``, ``started:k``,
``dispatched:k``, ``done:k``, ``complete``) and may raise to simulate the
planner process dying right there.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Callable

from repro.cloud.datacenter import DataCenter
from repro.cloud.storage import MigrationJournal
from repro.core.api import MigrationRequest
from repro.core.policy import PolicySet
from repro.core.protocol import MigratableApp, MigrationEnclaveHost
from repro.core.result import MigrationOutcome, MigrationResult
from repro.core.retry import RetryPolicy
from repro.errors import InvalidParameterError, MigrationError, TransientError
from repro.fleet import planner
from repro.fleet.journal import (
    FleetPlanIndex,
    FleetPlanJournal,
    FleetPlanRecord,
    group_key,
)
from repro.fleet.model import (
    FleetConstraints,
    FleetMember,
    MigrationPlan,
    PlannedMove,
    PlanResult,
    Wave,
    WaveOutcome,
    already_complete_result,
)
from repro.fleet.preflight import run_preflight
from repro.sim.scheduler import Scheduler, TraceRecorder

#: Boundary callback: ``hook(stage, wave_index)``; ``wave_index`` is -1 for
#: the plan-level ``planned`` / ``complete`` boundaries.  Stages: ``planned``,
#: ``started``, ``group`` (after each (wave, destination) group finishes and
#: its completion is journaled), ``dispatched``, ``done``, ``complete``.
BoundaryHook = Callable[[str, int], None]

_NOOP_HOOK: BoundaryHook = lambda stage, index: None


def _materialize(source) -> MigrationPlan:
    """Resolve an ``apply_many`` entry: a plan, or a factory making one."""
    return source() if callable(source) else source


@dataclass
class FleetService:
    """One provider's migration control plane."""

    dc: DataCenter
    hosts: dict[str, MigrationEnclaveHost]
    constraints: FleetConstraints = field(default_factory=FleetConstraints)
    policies: PolicySet = field(default_factory=PolicySet)
    retry_policy: RetryPolicy | None = None
    #: Machine whose disk holds the fleet plan journal; defaults to the
    #: alphabetically first machine of the data center.
    control_machine: str | None = None
    #: Advisory request metadata: whether the fleet's MEs were installed
    #: with the attested-session cache (recorded into every request).
    session_resumption: bool = False
    #: ``"serial"`` executes a wave's per-destination groups one after the
    #: other on the virtual clock (the original behavior); ``"concurrent"``
    #: records each group's synchronous run as a segment trace and replays
    #: all groups together on the discrete-event scheduler, so the wave's
    #: virtual duration is the contended makespan instead of the sum;
    #: ``"pipelined"`` goes further and drops the wave barrier itself —
    #: every group of every wave (and of every plan in :meth:`apply_many`)
    #: replays on one scheduler, admitted the moment no earlier group with
    #: an intersecting machine claim is still running.  The protocol bytes
    #: are identical in all three modes — the groups execute in the same
    #: order with the same RNG draws; only the virtual timing differs.
    dispatch: str = "serial"
    #: Optional :class:`~repro.fleet.registry.SingleInstanceRegistry`.
    #: When set, pre-flight refuses to dispatch while the registry is
    #: unreachable (deny-by-default — a wave must not open a cloning
    #: window the arbiter cannot adjudicate) and ``status()`` reports
    #: clone incidents.
    registry: object = None
    members: dict[str, FleetMember] = field(default_factory=dict)
    #: The scheduler of the most recent replay — a concurrent wave or a
    #: pipelined dispatch (observability: event log, per-machine CPU busy
    #: totals, makespan).
    last_schedule: "Scheduler | None" = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.dispatch not in ("serial", "concurrent", "pipelined"):
            raise InvalidParameterError(
                f"unknown dispatch mode {self.dispatch!r}"
            )

    # ------------------------------------------------------------ registry
    def register(
        self,
        app: MigratableApp,
        *,
        tenant: str = "default",
        anti_affinity_group: str | None = None,
    ) -> FleetMember:
        member = FleetMember(
            app=app, tenant=tenant, anti_affinity_group=anti_affinity_group
        )
        self.members[member.name] = member
        return member

    def placements(self) -> dict[str, list[str]]:
        """``machine -> sorted member names`` (the ``fleet status`` view)."""
        table: dict[str, list[str]] = {name: [] for name in self.machine_names()}
        for member in self.members.values():
            table.setdefault(member.machine, []).append(member.name)
        return {name: sorted(names) for name, names in table.items()}

    def machine_names(self) -> list[str]:
        return sorted(self.dc.machines)

    def journal(self) -> FleetPlanJournal:
        name = self.control_machine or self.machine_names()[0]
        return FleetPlanJournal(self.dc.machine(name).storage)

    # ------------------------------------------------------------- planner
    def plan_drain(
        self, machine: str, *, exclude: frozenset[str] | set[str] = frozenset()
    ) -> MigrationPlan:
        return planner.plan_drain(
            list(self.members.values()), self.machine_names(), machine,
            self.constraints, exclude=exclude,
        )

    def plan_rebalance(self) -> MigrationPlan:
        return planner.plan_rebalance(
            list(self.members.values()), self.machine_names(), self.constraints
        )

    def plan_evacuate(self, tenant: str) -> MigrationPlan:
        return planner.plan_evacuate(
            list(self.members.values()), self.machine_names(), tenant,
            self.constraints,
        )

    # ------------------------------------------------------------ executor
    def apply(
        self, plan: MigrationPlan, *, boundary_hook: BoundaryHook | None = None
    ) -> PlanResult:
        """Execute ``plan`` end to end, journaling at every boundary."""
        hook = boundary_hook or _NOOP_HOOK
        if self.dispatch == "pipelined":
            return self._apply_pipelined([(plan, self.journal())], hook)[0]
        return self._apply_plan(plan, self.journal(), hook)

    def apply_many(
        self,
        plans: list,
        *,
        boundary_hook: BoundaryHook | None = None,
    ) -> list[PlanResult]:
        """Execute several independent plans under one control plane.

        Each entry is a :class:`MigrationPlan` or a zero-argument *factory*
        returning one — factories are evaluated right before their plan
        executes, so a later plan may depend on the placements the earlier
        plans produced (multi-round drains).  Every plan gets its own
        journal (``plan-0``, ``plan-1``, ... on the control machine) and a
        :class:`FleetPlanIndex` entry, so a planner crash leaves each plan
        independently resumable via :meth:`resume_many`.

        With ``dispatch="pipelined"`` all plans' groups share one conflict
        graph and one scheduler — tenants' independent work overlaps in
        virtual time.  Other modes execute the plans back to back.
        """
        hook = boundary_hook or _NOOP_HOOK
        storage = self._control_storage()
        labels = [f"plan-{i}" for i in range(len(plans))]
        journals = [FleetPlanJournal(storage, owner=label) for label in labels]
        index = FleetPlanIndex(storage)
        index.write(labels)
        items = list(zip(plans, journals))
        if self.dispatch == "pipelined":
            outcomes = self._apply_pipelined(items, hook, labeled=True)
        else:
            outcomes = [
                self._apply_plan(_materialize(source), journal, hook)
                for source, journal in items
            ]
        index.clear()
        return outcomes

    def _apply_plan(
        self, plan: MigrationPlan, journal: FleetPlanJournal, hook: BoundaryHook
    ) -> PlanResult:
        """Serial/concurrent execution: waves run one after the other."""
        journal.write_plan(plan)
        hook("planned", -1)
        outcome = PlanResult(intent=plan.intent)
        for wave in plan.waves:
            outcome.waves.append(self._run_wave(wave, journal, hook))
        hook("complete", -1)
        journal.clear()
        return outcome

    def _run_wave(
        self, wave: Wave, journal: FleetPlanJournal, hook: BoundaryHook
    ) -> WaveOutcome:
        """One wave through the full boundary discipline (non-pipelined)."""
        run_preflight(self, wave)
        journal.mark_wave_started(wave.index)
        hook("started", wave.index)
        results, schedule = self._dispatch_wave(wave, journal=journal, hook=hook)
        hook("dispatched", wave.index)
        journal.mark_wave_done(wave.index)
        hook("done", wave.index)
        return WaveOutcome(
            index=wave.index, moves=wave.moves, results=results,
            schedule=schedule,
        )

    def _wave_groups(self, wave: Wave) -> list[tuple[str, list[PlannedMove]]]:
        """The wave's moves grouped by destination, in the (sorted) order
        every dispatch mode executes them."""
        groups: dict[str, list[PlannedMove]] = {}
        for move in wave.moves:
            groups.setdefault(move.destination, []).append(move)
        return [(destination, groups[destination]) for destination in sorted(groups)]

    def _dispatch_wave(
        self,
        wave: Wave,
        *,
        journal: FleetPlanJournal | None = None,
        hook: BoundaryHook | None = None,
    ) -> tuple[dict[str, MigrationResult], dict | None]:
        """One batched request per (wave, destination) group.

        Each group runs to completion — dispatch plus an in-line ``resume``
        pass for members that parked — before its per-group journal boundary
        (``mark_group_done`` when every member completed, then the ``group``
        hook).  With concurrent (or pipelined, on the reconcile path)
        dispatch and more than one group, the groups are recorded and then
        replayed together on the discrete-event scheduler; returns the
        per-member results and, for a replayed wave, the scheduler's
        utilization summary.
        """
        groups = self._wave_groups(wave)
        overlap = self.dispatch != "serial" and len(groups) > 1
        meter = self.dc.meter
        results: dict[str, MigrationResult] = {}
        recorded: list[tuple[str, TraceRecorder]] = []
        for destination, moves in groups:
            if overlap:
                # Record-then-replay: the protocol runs synchronously with
                # the clock frozen (same calls, same RNG draws, same wire
                # bytes as serial); only the virtual timing changes later.
                recorder = TraceRecorder(home=moves[0].source)
                with meter.recording(recorder):
                    group_results = self._run_group(destination, moves)
                recorded.append((destination, recorder))
            else:
                group_results = self._run_group(destination, moves)
            results.update(group_results)
            self._mark_group(journal, hook, wave.index, destination, group_results)
        schedule = None
        if overlap:
            scheduler = Scheduler(self.dc.clock)
            for destination, recorder in recorded:
                scheduler.spawn(
                    f"wave-{wave.index}->{destination}",
                    recorder.replay(),
                    home=recorder.home,
                )
            scheduler.run()
            self.last_schedule = scheduler
            schedule = scheduler.utilization_report()["summary"]
        return results, schedule

    def _run_group(
        self, destination: str, moves: list[PlannedMove]
    ) -> dict[str, MigrationResult]:
        """Dispatch one (wave, destination) group and drive its parked
        members' ``resume`` in-line, so the group's journal boundary means
        *finished*, not merely attempted."""
        batch, request = self._group_request(destination, moves)
        batch_results = MigratableApp._execute(request)
        results = {
            app.app_name: result for app, result in zip(batch, batch_results)
        }
        for move in moves:
            result = results[move.app_name]
            if result.outcome is MigrationOutcome.PENDING_RETRY:
                results[move.app_name] = self._try_resume(
                    self.members[move.app_name].app, fallback=result
                )
        return results

    def _mark_group(
        self,
        journal: FleetPlanJournal | None,
        hook: BoundaryHook | None,
        wave_index: int,
        destination: str,
        group_results: dict[str, MigrationResult],
    ) -> None:
        if journal is not None and all(
            result.outcome is MigrationOutcome.COMPLETED
            for result in group_results.values()
        ):
            journal.mark_group_done(wave_index, destination)
        if hook is not None:
            hook("group", wave_index)

    def _group_request(
        self, destination: str, moves: list[PlannedMove]
    ) -> tuple[list[MigratableApp], MigrationRequest]:
        batch = [self.members[move.app_name].app for move in moves]
        return batch, MigrationRequest.wave(
            batch,
            destination,
            retry_policy=self.retry_policy,
            session_resumption=self.session_resumption,
        )

    def _try_resume(
        self, app: MigratableApp, *, fallback: MigrationResult
    ) -> MigrationResult:
        """Drive one parked member's journal forward; if the fault window is
        still open the member simply stays pending (``fallback``)."""
        try:
            return app._execute(MigrationRequest.resume(
                app, retry_policy=self.retry_policy
            ))
        except TransientError:
            return fallback

    def _control_storage(self):
        name = self.control_machine or self.machine_names()[0]
        return self.dc.machine(name).storage

    # ---------------------------------------------------------- pipelined
    def _apply_pipelined(
        self,
        items: list,
        hook: BoundaryHook,
        *,
        labeled: bool = False,
    ) -> list[PlanResult]:
        """Record every plan's groups in serial order, then replay them all
        on one scheduler gated by the resource-conflict graph.

        The record phase is *exactly* the serial executor — same group
        order, same journal boundaries, same in-line resume — with the
        clock frozen and every charge captured per group.  State therefore
        evolves identically to serial dispatch and the wire bytes are
        byte-for-byte the same.  Replay then advances the clock once, to
        the makespan of the admission-gated schedule: a group starts the
        instant no earlier group holding an intersecting machine claim is
        still running (see :func:`repro.fleet.planner.
        build_conflict_graph`), so independent waves — and independent
        tenants' plans — overlap across the old wave barrier.
        """
        meter = self.dc.meter
        outcomes: list[PlanResult] = []
        descriptors: list[dict] = []
        for plan_id, (source, journal) in enumerate(items):
            plan = _materialize(source)
            journal.write_plan(plan)
            hook("planned", -1)
            outcome = PlanResult(intent=plan.intent)
            prefix = f"{journal.owner}:" if labeled else ""
            for wave in plan.waves:
                run_preflight(self, wave)
                journal.mark_wave_started(wave.index)
                hook("started", wave.index)
                results: dict[str, MigrationResult] = {}
                for destination, moves in self._wave_groups(wave):
                    recorder = TraceRecorder(home=moves[0].source)
                    with meter.recording(recorder):
                        group_results = self._run_group(destination, moves)
                    results.update(group_results)
                    self._mark_group(
                        journal, hook, wave.index, destination, group_results
                    )
                    descriptors.append(
                        {
                            "claims": planner.group_claims(moves),
                            "plan": plan_id,
                            "wave": wave.index,
                            "name": f"{prefix}wave-{wave.index}->{destination}",
                            "recorder": recorder,
                        }
                    )
                hook("dispatched", wave.index)
                journal.mark_wave_done(wave.index)
                hook("done", wave.index)
                outcome.waves.append(
                    WaveOutcome(
                        index=wave.index, moves=wave.moves, results=results
                    )
                )
            hook("complete", -1)
            journal.clear()
            outcomes.append(outcome)
        scheduler = Scheduler(self.dc.clock)
        dependencies = planner.build_conflict_graph(descriptors)
        processes: list = []
        for index, descriptor in enumerate(descriptors):
            processes.append(
                scheduler.spawn(
                    descriptor["name"],
                    descriptor["recorder"].replay(),
                    home=descriptor["recorder"].home,
                    after=[processes[j] for j in dependencies[index]],
                )
            )
        scheduler.run()
        self.last_schedule = scheduler
        report = scheduler.utilization_report()
        for outcome in outcomes:
            # Each plan gets its own copy: the report is a nested dict, and
            # one tenant mutating its view must not leak into the others'.
            outcome.utilization = copy.deepcopy(report)
        return outcomes

    # -------------------------------------------------------------- resume
    def resume_plan(
        self, *, boundary_hook: BoundaryHook | None = None
    ) -> PlanResult:
        """Pick up a journaled plan after a planner crash.

        Waves before the cursor are already done (skipped).  A wave marked
        *started* is reconciled group by group: groups the journal recorded
        as done are skipped outright; in the rest, members that completed
        before the crash are recognized (cleared journal, enclave serving at
        the destination), parked members are driven by their own ``resume``,
        and members the dispatch never reached are re-dispatched.  Every
        later wave then runs wave-at-a-time as in the non-pipelined
        :meth:`apply` (pipelined dispatch still overlaps a wave's groups on
        the scheduler; cross-wave overlap is not re-established on the
        crash path).

        Raises :class:`MigrationError` when no plan is journaled.
        """
        hook = boundary_hook or _NOOP_HOOK
        return self._resume_from(self.journal(), hook)

    def resume_many(
        self, *, boundary_hook: BoundaryHook | None = None
    ) -> list[PlanResult]:
        """Resume a multi-plan dispatch: every plan the index lists whose
        journal still exists is resumed independently; plans that finished
        before the crash are skipped silently.

        Raises :class:`MigrationError` when no multi-plan dispatch is in
        progress.
        """
        hook = boundary_hook or _NOOP_HOOK
        storage = self._control_storage()
        index = FleetPlanIndex(storage)
        labels = index.read()
        if not labels:
            raise MigrationError("no multi-plan dispatch in progress")
        outcomes: list[PlanResult] = []
        for label in labels:
            journal = FleetPlanJournal(storage, owner=label)
            if journal.read() is None:
                continue  # completed (and cleared) before the crash
            outcomes.append(self._resume_from(journal, hook))
        index.clear()
        return outcomes

    def _resume_from(
        self, journal: FleetPlanJournal, hook: BoundaryHook
    ) -> PlanResult:
        record = journal.read()
        if record is None:
            raise MigrationError("no fleet plan in progress")
        waves = record.plan_waves()
        outcome = PlanResult(
            intent=record.intent, resumed=True, skipped_waves=record.next_wave
        )
        cursor = record.next_wave
        if record.wave_started and cursor < len(waves):
            wave = waves[cursor]
            results, skipped = self._reconcile_wave(
                wave, done_groups=record.done_groups, journal=journal
            )
            outcome.skipped_groups = skipped
            journal.mark_wave_done(wave.index)
            hook("done", wave.index)
            outcome.waves.append(
                WaveOutcome(index=wave.index, moves=wave.moves, results=results)
            )
            cursor += 1
        for wave in waves[cursor:]:
            outcome.waves.append(self._run_wave(wave, journal, hook))
        hook("complete", -1)
        journal.clear()
        return outcome

    def _reconcile_wave(
        self,
        wave: Wave,
        *,
        done_groups: tuple[str, ...] = (),
        journal: FleetPlanJournal | None = None,
    ) -> tuple[dict[str, MigrationResult], int]:
        """Sort the members of an interrupted wave into done / parked /
        never-started, and finish each class its own way (R3-safe: nothing
        is ever dispatched twice).  Groups the journal already recorded as
        done are skipped wholesale — no member journal reads, no liveness
        probes; returns the results plus the skipped-group count.

        Group completions are journaled here, not by the partial
        re-dispatch: a re-dispatched subset completing says nothing about
        the group's *other* members (a parked member resumed above may
        still be ``PENDING_RETRY``), so ``mark_group_done`` fires only when
        the aggregate over the group's original membership is all
        ``COMPLETED`` — otherwise a second crash would skip the group and
        falsely report the stuck member done."""
        results: dict[str, MigrationResult] = {}
        fresh: list = []
        skipped_groups = 0
        done = set(done_groups)
        for destination, moves in self._wave_groups(wave):
            if group_key(wave.index, destination) in done:
                for move in moves:
                    results[move.app_name] = already_complete_result(
                        self.members[move.app_name].app
                    )
                skipped_groups += 1
                continue
            for move in moves:
                app = self.members[move.app_name].app
                here = MigrationJournal(app.app.machine.storage, app.app_name)
                if here.read() is not None:
                    # Mid-transaction (parked at the source ME, or arrived
                    # but unconfirmed): the member's own journal knows what
                    # to do.
                    results[move.app_name] = app._execute(
                        MigrationRequest.resume(
                            app, retry_policy=self.retry_policy
                        )
                    )
                elif (
                    app.app.machine.address == move.destination
                    and app.enclave is not None
                    and app.enclave.alive
                ):
                    # Completed before the crash; only the fleet cursor is
                    # stale.
                    results[move.app_name] = already_complete_result(app)
                else:
                    fresh.append(move)
        if fresh:
            partial = Wave(index=wave.index, moves=tuple(fresh))
            run_preflight(self, partial)
            partial_results, _ = self._dispatch_wave(partial)
            results.update(partial_results)
        if journal is not None:
            for destination, moves in self._wave_groups(wave):
                if group_key(wave.index, destination) in done:
                    continue
                self._mark_group(
                    journal,
                    None,
                    wave.index,
                    destination,
                    {move.app_name: results[move.app_name] for move in moves},
                )
        return results, skipped_groups

    # -------------------------------------------------------------- status
    def status(self) -> str:
        """Human-readable placement table + plan journal state.

        Surfaces the journal-v2 group cursor per plan: which (wave,
        destination) groups are already recorded done — exactly the groups
        a :meth:`resume_plan` would skip outright — against the current
        wave's group total.  A multi-plan dispatch (:meth:`apply_many`)
        lists every plan the index names."""
        lines = ["fleet placements:"]
        for machine, names in self.placements().items():
            lines.append(f"  {machine}: {', '.join(names) or '(empty)'}")
        storage = self._control_storage()
        labels = FleetPlanIndex(storage).read()
        if labels:
            lines.append(f"multi-plan dispatch: {len(labels)} plans indexed")
            for label in labels:
                journal = FleetPlanJournal(storage, owner=label)
                lines.extend(
                    self._plan_status_lines(journal.read(), label=label)
                )
        else:
            lines.extend(self._plan_status_lines(self.journal().read()))
        if self.registry is not None:
            state = (
                "offline (deny-by-default)" if self.registry.offline
                else "online"
            )
            lines.append(
                f"instance registry: {state}, "
                f"{self.registry.incident_count()} clone incidents"
            )
        return "\n".join(lines)

    def _plan_status_lines(self, record, *, label: str = "") -> list[str]:
        """Status lines for one journaled plan (or its absence)."""
        prefix = f"plan journal [{label}]" if label else "plan journal"
        if record is None:
            return [f"{prefix}: no plan in progress"]
        total = len(record.waves)
        state = "started" if record.wave_started else "pending"
        lines = [
            f"{prefix}: {record.intent} — wave "
            f"{record.next_wave}/{total} {state} "
            f"(generation {record.generation})"
        ]
        if record.wave_started and record.next_wave < total:
            wave = record.plan_waves()[record.next_wave]
            group_total = len(self._wave_groups(wave))
            done = sorted(record.done_groups)
            lines.append(
                f"  groups done (skipped on resume): "
                f"{len(done)}/{group_total}"
                + (f" — {', '.join(done)}" if done else "")
            )
        elif record.done_groups:
            # A crash between a group boundary and the wave-done boundary
            # can leave stale group entries with the wave cursor advanced;
            # show them rather than hide progress.
            lines.append(
                "  groups done (skipped on resume): "
                + ", ".join(sorted(record.done_groups))
            )
        return lines


def resume_plan(service: FleetService) -> PlanResult:
    """Module-level convenience: resume ``service``'s journaled plan."""
    return service.resume_plan()


def record_of(service: FleetService) -> FleetPlanRecord | None:
    """The currently journaled plan record, if any (observability helper)."""
    return service.journal().read()
