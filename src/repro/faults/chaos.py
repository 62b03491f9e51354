"""Chaos harness: sweep faults over every message of a migration.

The paper's correctness argument (Section VI-C) is that the migration
protocol preserves two invariants *no matter where it is interrupted*:

* **R3** — at no point are there two operational instances of the migrated
  enclave (no forking via migration).
* **R4** — the enclave's monotonic counters never regress (no rollback via
  migration).

This module turns that argument into an executable experiment.  A fault-free
probe run records the complete message sequence of one enclave migration
(local attestation, ME-to-ME transfer, destination fetch, confirmation).
The sweep then replays the scenario once per (message, fault) pair — drop
the message, duplicate the request, or crash the source/destination machine
at that exact instant — lets the retry/resume machinery recover, and checks
R3 and R4 through ECALLs alone.

Run it as a module::

    PYTHONPATH=src python -m repro.faults.chaos
    PYTHONPATH=src python -m repro.faults.chaos --batched
    PYTHONPATH=src python -m repro.faults.chaos --disk
    PYTHONPATH=src python -m repro.faults.chaos --fleet
    PYTHONPATH=src python -m repro.faults.chaos --clone

``--disk`` sweeps the *storage* fault model instead of the network one:
every persisted artifact (source/destination migration journals, the ME's
A/B checkpoint, the sealed counter bundle, the application's sealed state)
crossed with every disk fault kind (torn write, lost write, bit rot, stale
read) at every protocol phase a matching disk op was observed in.  Each
scenario must end with R3/R4 intact AND a recoverable world: resume/restart
— with bounded heal-from-archive retries — reaches a serving instance that
reads back the newest sealed app state.  ``--smoke`` keeps one scenario per
(artifact, kind) cell, the slice ``make ci`` runs.

``--batched`` sweeps the migration-wave path instead: two enclaves move as
one ``migrate_group`` wave (stage, one ``flush_staged``/``transfer_batch``
exchange, per-enclave completion), and every leg — including the batch
transfer itself and mid-batch machine crashes — takes every fault kind.
R3/R4 are then checked *per enclave*: each counter must be served by exactly
one instance at exactly its pre-migration value.

``--fleet`` attacks the *control plane*: a four-machine fleet of eight
enclaves runs a multi-wave drain plan through
:class:`~repro.fleet.service.FleetService`, and the planner process is
killed at every journal boundary (plan persisted, wave started, wave
dispatched, wave marked done, plan complete) — plus ``parked`` variants
where the network blackholes the wave first, so the planner dies on top of
members stuck mid-transaction.  A fresh planner must then
``resume_plan()`` from the durable fleet journal alone and finish the
drain with R3/R4 intact per enclave, every member at its planned
destination, and the fleet journal cleared.

``--clone`` runs the *adversary*: the scripted cloning campaigns of
:mod:`repro.attacks.cloning` (second instance in the RESTORE window, a
stale-ME-epoch session replay, a double-joined ``transfer_batch`` wave, a
relaunch from a healed disk image) at every request leg of the guarded
protocol, optionally composed with a dropped message.  Every scenario must
end with R3/R4 intact, the clone detected AND fenced by the
single-instance registry, and the per-scenario detection latency (virtual
seconds) is reported in the summary.

Every grid runs on the one engine in :mod:`repro.faults.scenario` (world
builder, fault arming, recovery step, R3/R4 oracle); this module holds the
grid enumerators and the CLI.  Exit status 1 means at least one swept
scenario violated an invariant; 2 means a usage error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field
from fnmatch import fnmatch
from typing import Callable, NamedTuple

from repro.core.result import MigrationOutcome
from repro.errors import ReproError
from repro.faults.injector import ObservedMessage
from repro.faults.plan import DISK_FAULT_KINDS, FaultPlan
from repro.faults.scenario import (
    DESTINATION,
    POLICY,
    SOURCE,
    AppSpec,
    World,
    WorldSpec,
    arm,
    build_world,
    check_invariants,
    disarm,
    first_per_cell,
    members,
    migrate,
    probe,
    recover,
    reinstall,
    serving,
)
from repro.fleet import FleetConstraints, FleetService

#: The fault kinds the sweep applies at every message position.  Duplicates
#: only make sense on request legs (the network layer re-delivers requests).
DEFAULT_KINDS = ("drop", "duplicate", "crash-source", "crash-dest")


@dataclass
class ScenarioReport:
    """Outcome of one (message, fault) scenario."""

    kind: str
    seq: int
    msg_type: str | None
    direction: str
    migrate_outcome: str
    recovery_outcome: str
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def network_spec(
    seed: int = 2018, session_resumption: bool = False, batched: bool = False
) -> WorldSpec:
    """The base grid's one counter enclave on the source, or with
    ``batched`` the two wave members at distinct counter targets."""
    return WorldSpec(
        apps=members(2 if batched else 1),
        named=batched,
        seed=seed,
        session_resumption=session_resumption,
    )


def enumerate_scenarios(
    seed: int = 2018,
    kinds: tuple[str, ...] = DEFAULT_KINDS,
    session_resumption: bool = False,
    batched: bool = False,
) -> list[tuple[str, ObservedMessage, int]]:
    """Every message of the probed migration (or wave) under every fault
    kind, as ``(kind, leg, request ordinal)``."""
    trace = probe(build_world(network_spec(seed, session_resumption, batched))).trace
    scenarios = []
    request_ordinal = 0
    for leg in trace:
        for kind in kinds:
            if kind != "duplicate" or leg.direction == "request":
                scenarios.append((kind, leg, request_ordinal))
        if leg.direction == "request":
            request_ordinal += 1
    return scenarios


def _plan_for(
    kind: str, leg: ObservedMessage, request_ordinal: int
) -> tuple[FaultPlan, list[str]]:
    """Build the one-fault plan for this scenario; returns the plan plus the
    machines it will crash (so recovery knows which MEs to reinstall).

    Drop/crash rules match every leg and fire on the ``seq``-th occurrence,
    which with a wildcard predicate is exactly the probe's global sequence
    number; duplicate rules match request legs only, so they count by the
    request's ordinal among requests.
    """
    plan = FaultPlan()
    if kind == "drop":
        return plan.drop(nth=leg.seq), []
    if kind == "duplicate":
        return plan.duplicate(direction="request", nth=request_ordinal), []
    if kind == "crash-source":
        return plan.crash_machine(SOURCE, nth=leg.seq), [SOURCE]
    if kind == "crash-dest":
        return plan.crash_machine(DESTINATION, nth=leg.seq), [DESTINATION]
    raise ValueError(f"unknown fault kind {kind!r}")


def _migrate(world: World) -> tuple[str, bool]:
    """Migrate every tracked app inside the armed fault window; returns the
    outcome label and whether every member completed."""
    try:
        outcomes = [result.outcome for result in migrate(world)]
    except ReproError as exc:
        return f"raised:{type(exc).__name__}", False
    completed = all(o is MigrationOutcome.COMPLETED for o in outcomes)
    return "+".join(o.value for o in outcomes), completed


def run_scenario(
    kind: str,
    leg: ObservedMessage,
    request_ordinal: int,
    seed: int = 2018,
    session_resumption: bool = False,
    batched: bool = False,
) -> ScenarioReport:
    """Fresh world, one fault at ``leg``, recovery, invariant check."""
    world = build_world(network_spec(seed, session_resumption, batched))
    plan, crashed = _plan_for(kind, leg, request_ordinal)
    arm(world, plan)
    migrate_outcome, completed = _migrate(world)
    # Recovery: the fault window is over, the operator reinstalls the ME on
    # any crashed machine (its durable checkpoint survives on disk), and each
    # member resumes its own journalled migration — a crash mid-wave must
    # leave every transaction independently resumable.
    disarm(world)
    recovery_outcome, failed = (
        recover(world, crashed) if not completed else ("not-needed", False)
    )
    report = ScenarioReport(
        kind=kind,
        seq=leg.seq,
        msg_type=leg.msg_type,
        direction=leg.direction,
        migrate_outcome=migrate_outcome,
        recovery_outcome=recovery_outcome,
    )
    if failed:
        report.violations.append(f"recovery failed: {recovery_outcome}")
    report.violations.extend(check_invariants(world))
    return report


def sweep(
    seed: int = 2018,
    kinds: tuple[str, ...] = DEFAULT_KINDS,
    session_resumption: bool = False,
    batched: bool = False,
) -> list[ScenarioReport]:
    """Every message of the migration (or wave) under every fault kind."""
    return [
        run_scenario(kind, leg, ordinal, seed, session_resumption, batched)
        for kind, leg, ordinal in enumerate_scenarios(
            seed, kinds, session_resumption, batched
        )
    ]


# --------------------------------------------------------------------- disk
#: Every persisted artifact of one migration, as ``(name, machine, glob)``.
#: The glob covers the blob itself plus its rename temps, A/B slots, and
#: pointer record, so a fault can land on any piece of the write protocol.
DISK_ARTIFACTS = (
    ("journal-source", SOURCE, "app/migration_txn*"),
    ("journal-dest", DESTINATION, "app/migration_txn*"),
    ("me-checkpoint-source", SOURCE, "migration-service/me_checkpoint*"),
    ("me-checkpoint-dest", DESTINATION, "migration-service/me_checkpoint*"),
    ("counter-bundle-source", SOURCE, "app/miglib_state*"),
    ("counter-bundle-dest", DESTINATION, "app/miglib_state*"),
    ("app-state", SOURCE, "app/app_state*"),
)

#: Sealed application-state blob (the "persistent state" the paper migrates):
#: v1 lands before the fault window opens, v2 inside it, and the sweep's
#: final check demands that the surviving instance read back **v2** — a torn
#: or rotted blob must be healable, and a stale read must not stick.
APP_STATE_PATH = "app_state"
APP_STATE_V1 = b"app-state-v1"
APP_STATE_V2 = b"app-state-v2-durable"

#: Bounded self-healing: how many restore-newest-archive-and-retry rounds
#: recovery may take before the scenario counts as unrecoverable.
HEAL_ATTEMPTS = 3


@dataclass(frozen=True)
class DiskScenario:
    """One planned disk-fault experiment: arm ``kind`` on the ``nth``
    matching storage op of ``pattern`` on ``machine``; for write-side kinds
    (whose damage only materializes at power loss) also crash that machine
    at message leg ``crash_at`` — or right after the protocol
    (``post_crash``) when no leg follows the marked write."""

    artifact: str
    machine: str
    pattern: str
    kind: str
    phase: str
    nth: int
    crash_at: int | None
    post_crash: bool


@dataclass
class DiskScenarioReport:
    """Outcome of one (artifact, fault kind, protocol phase) scenario."""

    artifact: str
    kind: str
    phase: str
    nth: int
    fired: int
    migrate_outcome: str
    recovery_outcome: str
    corrupt_reads: int = 0
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def _store_app_state(world: World, plaintext: bytes) -> None:
    blob = world.app.enclave.ecall("seal", plaintext)
    world.app.app.store(APP_STATE_PATH, blob)


def _disk_probe_script(world: World) -> list:
    """Seal v2 inside the window, migrate, and read the app blob back — the
    read is part of the probed script, so read-kind scenarios can target it
    (phase ``post-protocol``)."""
    _store_app_state(world, APP_STATE_V2)
    results = migrate(world)
    world.dc.machine(SOURCE).storage.read(f"app/{APP_STATE_PATH}")
    return results


def _phase_of(msg_seq: int, trace: list[ObservedMessage]) -> str:
    """Label a disk op by the protocol step it happened inside.

    An op whose next leg is a bare reply ran *inside the handler* of the
    preceding request (e.g. an ME checkpoint write), so it is labelled by
    that request's message type rather than the anonymous reply."""
    if msg_seq <= 0:
        return "pre-protocol"
    if msg_seq >= len(trace):
        return "post-protocol"
    leg = trace[msg_seq]
    if leg.msg_type is None and leg.direction == "response" and msg_seq > 0:
        prev = trace[msg_seq - 1]
        return f"{prev.msg_type or 'reply'}/handling"
    return f"{leg.msg_type or 'reply'}/{leg.direction}"


def enumerate_disk_scenarios(seed: int = 2018) -> list[DiskScenario]:
    """Cross every persisted artifact with every disk fault kind, one
    scenario per distinct protocol phase the probe saw a matching op in.

    Artifacts that are never *read* inside the protocol (the ME checkpoint,
    the sealed counter bundle — both only read while recovering) get
    recovery-forced read scenarios instead: arm the fault on the first
    matching read and crash the artifact's machine at each distinct
    protocol step, so recovery itself must read through the damage.
    """
    world = build_world(WorldSpec(seed=seed))
    _store_app_state(world, APP_STATE_V1)
    injector = probe(world, _disk_probe_script, disk=True)
    trace, disk_ops = injector.trace, injector.disk_trace
    anchors: list[ObservedMessage] = []
    seen_types: set[str] = set()
    for leg in trace:
        if leg.direction != "request" or leg.msg_type is None:
            continue
        if leg.msg_type in seen_types:
            continue
        seen_types.add(leg.msg_type)
        anchors.append(leg)
    scenarios: list[DiskScenario] = []
    for artifact, machine, pattern in DISK_ARTIFACTS:
        for kind, op_name in DISK_FAULT_KINDS.items():
            ops = [
                op
                for op in disk_ops
                if op.op == op_name
                and op.machine == machine
                and fnmatch(op.path, pattern)
            ]
            seen_phases: set[str] = set()
            for ordinal, op in enumerate(ops):
                phase = _phase_of(op.msg_seq, trace)
                if phase in seen_phases:
                    continue
                seen_phases.add(phase)
                needs_crash = kind in ("torn_write", "lost_write")
                crash_at = (
                    op.msg_seq if needs_crash and op.msg_seq < len(trace) else None
                )
                scenarios.append(
                    DiskScenario(
                        artifact=artifact,
                        machine=machine,
                        pattern=pattern,
                        kind=kind,
                        phase=phase,
                        nth=ordinal,
                        crash_at=crash_at,
                        post_crash=needs_crash and crash_at is None,
                    )
                )
            if not seen_phases and op_name == "read":
                for leg in anchors:
                    scenarios.append(
                        DiskScenario(
                            artifact=artifact,
                            machine=machine,
                            pattern=pattern,
                            kind=kind,
                            phase=f"recovery@{leg.msg_type}",
                            nth=0,
                            crash_at=leg.seq,
                            post_crash=False,
                        )
                    )
    covered = {(s.artifact, s.kind) for s in scenarios}
    missing = [
        (artifact, kind)
        for artifact, _, _ in DISK_ARTIFACTS
        for kind in DISK_FAULT_KINDS
        if (artifact, kind) not in covered
    ]
    if missing:
        raise AssertionError(f"disk sweep lost (artifact, kind) coverage: {missing}")
    return scenarios


def _build_disk_plan(scenario: DiskScenario) -> FaultPlan:
    plan = FaultPlan()
    getattr(plan, scenario.kind)(
        scenario.pattern, machine=scenario.machine, nth=scenario.nth
    )
    if scenario.crash_at is not None:
        plan.crash_machine(scenario.machine, nth=scenario.crash_at)
    return plan


def _check_app_state(world: World) -> list[str]:
    """The sealed app blob must decrypt, on the one surviving instance, to
    the *newest* write — healing the disk when the fault ate it.  Skipped
    when R3/liveness already failed (those violations say it all)."""
    instances = serving(world)[0]
    if len(instances) != 1:
        return []
    enclave = instances[0][0]
    storage = world.dc.machine(SOURCE).storage
    path = f"app/{APP_STATE_PATH}"
    failure = "app state: never checked"
    for _ in range(HEAL_ATTEMPTS):
        try:
            plaintext, _ = enclave.ecall("unseal", storage.read(path))
            if plaintext == APP_STATE_V2:
                return []
            failure = "app state reads back an old version, not the newest write"
        except ReproError as exc:
            failure = f"app state unreadable: {type(exc).__name__}"
        storage.heal(f"{path}*")
    return [failure]


def run_disk_scenario(scenario: DiskScenario, seed: int = 2018) -> DiskScenarioReport:
    """Fresh world, one armed disk fault (plus its crash, for write-side
    kinds), recovery with bounded healing, R3/R4 + recoverability checks."""
    world = build_world(WorldSpec(seed=seed))
    machine = world.dc.machine(scenario.machine)
    _store_app_state(world, APP_STATE_V1)
    injector = arm(world, _build_disk_plan(scenario), disk=True)
    _store_app_state(world, APP_STATE_V2)
    crashed = [scenario.machine] if scenario.crash_at is not None else []
    migrate_outcome, completed = _migrate(world)
    disarm(world)
    if scenario.post_crash:
        # The marked write had no later protocol step to crash at: pull the
        # plug the instant the protocol finishes.
        machine.crash()
        crashed = [scenario.machine]
        completed = False
    if DISK_FAULT_KINDS[scenario.kind] != "read":
        # Write-side damage is already recorded in the storage state; the
        # disk hook stays attached only for read kinds, whose whole point is
        # that *recovery* reads through the armed fault.
        disarm(world, injector)

    def heal() -> list:
        """Restore the faulted artifact's newest archived version (the
        backup/scrub an operator would reach for)."""
        healed = machine.storage.heal(scenario.pattern)
        if healed and "me_checkpoint" in scenario.pattern:
            # A healed checkpoint only helps a *freshly booted* ME.
            reinstall(world, scenario.machine)
        return healed

    # Intermediate raises are fine — that is what the heal-and-retry loop is
    # for; only a *final* raise means the world stayed unrecovered.
    recovery_outcome, failed = (
        recover(world, crashed, attempts=HEAL_ATTEMPTS, heal=heal)
        if not completed
        else ("not-needed", False)
    )
    report = DiskScenarioReport(
        artifact=scenario.artifact,
        kind=scenario.kind,
        phase=scenario.phase,
        nth=scenario.nth,
        fired=len(injector.disk_fired),
        migrate_outcome=migrate_outcome,
        recovery_outcome=recovery_outcome,
        corrupt_reads=sum(
            m.storage.journal_corruption_count for m in world.dc.machines.values()
        ),
    )
    if failed:
        report.violations.append(f"recovery failed: {recovery_outcome}")
    report.violations.extend(check_invariants(world))
    report.violations.extend(_check_app_state(world))
    disarm(world, injector)
    return report


# -------------------------------------------------------------------- fleet
FLEET_MACHINES = 4
FLEET_APPS = 8
FLEET_DRAIN_TARGET = "fleet-0"


class _PlannerKilled(Exception):
    """The simulated planner-process death (not a ReproError: the planner
    dying is an infrastructure event, not a protocol outcome)."""


def fleet_spec(seed: int = 2018, dispatch: str = "serial") -> WorldSpec:
    """Four machines, eight counter enclaves placed round-robin (app ``i``
    at counter target ``2 + i``) and registered with a
    :class:`FleetService` whose per-wave cap of one move forces the drain
    into multiple waves (so there are genuinely distinct wave boundaries to
    die at).

    ``dispatch="concurrent"`` (or ``"pipelined"``) builds the
    overlapping-group variant instead: the per-wave caps are relaxed so the
    whole drain is ONE wave with several destination groups, and the service
    records/replays them on the discrete-event scheduler — the planner then
    dies *between group dispatches* (the record phase's journal boundaries).
    """
    constraints = (
        FleetConstraints(machine_capacity=FLEET_APPS, max_moves_per_machine=1)
        if dispatch == "serial"
        else FleetConstraints(
            machine_capacity=FLEET_APPS,
            max_moves_per_machine=FLEET_APPS,
            tenant_wave_quota=FLEET_APPS,
        )
    )
    return WorldSpec(
        name="chaos-fleet",
        machines=tuple(f"fleet-{index}" for index in range(FLEET_MACHINES)),
        apps=tuple(
            AppSpec(
                host=f"fleet-{index % FLEET_MACHINES}",
                target=2 + index,
                tenant=f"tenant-{index % 2}",
                group="chaos-pair" if index < 2 else None,
            )
            for index in range(FLEET_APPS)
        ),
        named=True,
        seed=seed,
        fleet=constraints,
        dispatch=dispatch,
    )


@dataclass(frozen=True)
class FleetScenario:
    """Kill the planner at one boundary: ``stage`` names it (``planned``,
    ``started``, ``group``, ``dispatched``, ``done``, ``complete``),
    ``wave`` the wave index (-1 for the plan-level boundaries), ``skip``
    how many matching boundaries to let pass first (so a multi-group wave
    can die between its second and third group, not only its first).
    ``parked`` additionally blackholes the network from the wave's start,
    so the planner dies on top of members whose transactions are stuck
    mid-flight.  ``dispatch`` picks the world variant to kill."""

    stage: str
    wave: int
    parked: bool = False
    dispatch: str = "serial"
    skip: int = 0

    @property
    def label(self) -> str:
        suffix = f"#{self.skip + 1}" if self.skip else ""
        if self.parked:
            suffix += "+parked"
        if self.dispatch != "serial":
            suffix += f"+{self.dispatch}"
        return f"{self.stage}:{self.wave}{suffix}"


@dataclass
class FleetScenarioReport:
    scenario: FleetScenario
    apply_outcome: str
    recovery_outcome: str
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def enumerate_fleet_scenarios(seed: int = 2018) -> list[FleetScenario]:
    """One scenario per journal boundary of the drain plan, plus a parked
    variant per wave, plus concurrent- and pipelined-dispatch variants where
    the planner dies mid-overlapping-wave (the relaxed-cap world drains in
    one wave with several destination groups) — for pipelined, between the
    per-group journal boundaries the record phase writes."""
    world = build_world(fleet_spec(seed))
    n_waves = len(world.service.plan_drain(FLEET_DRAIN_TARGET).waves)
    scenarios = [FleetScenario("planned", -1)]
    for wave in range(n_waves):
        scenarios.append(FleetScenario("started", wave))
        scenarios.append(FleetScenario("dispatched", wave, parked=True))
        scenarios.append(FleetScenario("dispatched", wave))
        scenarios.append(FleetScenario("done", wave))
    scenarios.append(FleetScenario("complete", -1))
    scenarios.append(FleetScenario("started", 0, dispatch="concurrent"))
    scenarios.append(FleetScenario("dispatched", 0, dispatch="concurrent"))
    scenarios.append(
        FleetScenario("dispatched", 0, parked=True, dispatch="concurrent")
    )
    scenarios.append(FleetScenario("started", 0, dispatch="pipelined"))
    scenarios.append(FleetScenario("group", 0, dispatch="pipelined"))
    scenarios.append(FleetScenario("group", 0, skip=1, dispatch="pipelined"))
    scenarios.append(
        FleetScenario("dispatched", 0, parked=True, dispatch="pipelined")
    )
    scenarios.append(FleetScenario("done", 0, dispatch="pipelined"))
    return scenarios


def run_fleet_scenario(
    scenario: FleetScenario, seed: int = 2018
) -> FleetScenarioReport:
    """Fresh fleet, drain plan, planner killed at the scenario's boundary,
    fresh planner resumes from the durable fleet journal; then R3/R4 per
    member, planned placement reached, and journal cleared."""
    world = build_world(fleet_spec(seed, scenario.dispatch))
    service = world.service
    plan = service.plan_drain(FLEET_DRAIN_TARGET)
    matched = 0

    def boundary_hook(stage: str, wave: int) -> None:
        nonlocal matched
        if scenario.parked and stage == "started" and wave == scenario.wave:
            arm(world, FaultPlan().drop(max_triggers=1_000_000))
        if stage == scenario.stage and wave == scenario.wave:
            matched += 1
            if matched > scenario.skip:
                raise _PlannerKilled(scenario.label)

    try:
        service.apply(plan, boundary_hook=boundary_hook)
        apply_outcome = "completed-unexpectedly"
    except _PlannerKilled:
        apply_outcome = f"killed@{scenario.label}"
    except ReproError as exc:
        apply_outcome = f"raised:{type(exc).__name__}"
    finally:
        # The planner is dead; the network partition (if any) heals before
        # the operator restarts it.
        disarm(world)

    # Planner restart: a brand-new service over the same data center (same
    # durable disks, same member registry) — nothing survives from the dead
    # process but what the fleet journal persisted.
    restarted = FleetService(
        dc=world.dc,
        hosts=service.hosts,
        constraints=service.constraints,
        retry_policy=POLICY,
        members=dict(service.members),
        dispatch=service.dispatch,
    )
    try:
        result = restarted.resume_plan()
        recovery_outcome = (
            f"resumed:{len(result.waves)}-waves"
            f"+{result.skipped_waves}-skipped"
        )
        if not result.completed:
            recovery_outcome += ":INCOMPLETE"
    except ReproError as exc:
        recovery_outcome = f"raised:{type(exc).__name__}"

    report = FleetScenarioReport(
        scenario=scenario,
        apply_outcome=apply_outcome,
        recovery_outcome=recovery_outcome,
    )
    if apply_outcome == "completed-unexpectedly":
        report.violations.append("planner kill hook never fired")
    if recovery_outcome.startswith("raised:") or recovery_outcome.endswith(
        ":INCOMPLETE"
    ):
        report.violations.append(f"recovery failed: {recovery_outcome}")
    report.violations.extend(check_invariants(world))
    for move in plan.moves:
        actual = service.members[move.app_name].machine
        if actual != move.destination:
            report.violations.append(
                f"placement: {move.app_name} at {actual}, "
                f"plan said {move.destination}"
            )
    if restarted.journal().read() is not None:
        report.violations.append("fleet journal not cleared after resume")
    return report


# -------------------------------------------------------------------- clone
@dataclass(frozen=True)
class CloneScenario:
    """One scripted cloning-campaign experiment: launch the clone at
    message ``window_seq`` of the victim protocol (``window`` is its
    human-readable label), optionally composing a network ``fault`` at
    ``fault_seq``.  Healed-disk campaigns have no message window
    (``window_seq`` is -1); their ``window`` names the healed artifact."""

    campaign: str
    window: str
    window_seq: int
    fault: str
    fault_seq: int


def enumerate_clone_scenarios(seed: int = 2018) -> list[CloneScenario]:
    """The full clone-campaign grid for one seed.

    Every *request* leg of the guarded probe traces is a cloning window
    (replies deliver into a blocked sender, so the request positions are
    where a host-controlled adversary can act).  Drop variants re-race the
    same window while an earlier protocol leg is lost and the retry/resume
    machinery is mid-recovery (the stale-session campaign has none); the
    healed-disk campaign crosses its three artifacts with a clean and a
    lossy network.
    """
    from repro.attacks import cloning

    scenarios: list[CloneScenario] = []
    for campaign in cloning.WINDOW_CAMPAIGNS:
        world, _, action = cloning.victim(campaign, seed)
        requests = [
            leg for leg in probe(world, action).trace if leg.direction == "request"
        ]
        for index, leg in enumerate(requests):
            label = f"{leg.seq}:{leg.msg_type or 'msg'}"
            scenarios.append(CloneScenario(campaign, label, leg.seq, "none", -1))
            if index > 0 and campaign != "stale-session-replay":
                scenarios.append(
                    CloneScenario(
                        campaign, label, leg.seq, "drop", requests[index - 1].seq
                    )
                )
    for window in ("tombstone-heal", "replay-prefreeze", "me-checkpoint"):
        for fault in ("none", "drop"):
            scenarios.append(CloneScenario("healed-disk", window, -1, fault, -1))
    return scenarios


def run_clone_scenario(scenario: CloneScenario, seed: int = 2018):
    """Fresh world, one scripted campaign, detection + invariant verdict.
    Returns a :class:`repro.attacks.cloning.CloneCampaignReport`."""
    from repro.attacks import cloning

    if scenario.campaign == "healed-disk":
        return cloning.run_healed_disk_campaign(
            scenario.window, fault=scenario.fault, seed=seed
        )
    return cloning.run_window_campaign(
        scenario.campaign,
        scenario.window_seq,
        fault=scenario.fault,
        fault_seq=scenario.fault_seq,
        seed=seed,
        window_label=scenario.window,
    )


# ---------------------------------------------------------------------- CLI
class _Grid(NamedTuple):
    """What :func:`main` needs to sweep one grid and print it."""

    header: str
    scenarios: list
    run: Callable
    row: Callable
    summary: Callable
    cell: Callable | None = None


def _network_grid(seed: int, session_resumption: bool, batched: bool) -> _Grid:
    scenarios = enumerate_scenarios(
        seed, session_resumption=session_resumption, batched=batched
    )
    legs = len({leg.seq for _, leg, _ in scenarios})
    shape = "wave (batched)" if batched else "migration"
    mode = "on" if session_resumption else "off"

    def row(r: ScenarioReport) -> str:
        step = f"{r.msg_type or 'reply'}/{r.direction}"
        return (
            f"seq {r.seq:>2} {step:<22} {r.kind:<13} "
            f"migrate={r.migrate_outcome:<28} recovery={r.recovery_outcome}"
        )

    return _Grid(
        header=f"{shape} message sequence: {legs} legs "
        f"(seed {seed}, session resumption {mode})",
        scenarios=scenarios,
        run=lambda s: run_scenario(*s, seed, session_resumption, batched),
        row=row,
        summary=lambda reports, failures: [
            f"{len(reports)} scenarios, {failures} invariant violations "
            f"(R3: never two live instances; R4: counters never regress)"
        ],
    )


def _disk_grid(seed: int) -> _Grid:
    def row(r: DiskScenarioReport) -> str:
        extras = f" corrupt-reads={r.corrupt_reads}" if r.corrupt_reads else ""
        return (
            f"{r.artifact:<20} {r.kind:<11} @ {r.phase:<24} fired={r.fired} "
            f"migrate={r.migrate_outcome:<28} "
            f"recovery={r.recovery_outcome}{extras}"
        )

    def summary(reports: list, failures: int) -> list[str]:
        line = f"{len(reports)} scenarios, {failures} invariant violations"
        if failures:
            return [line]
        unfired = sum(1 for r in reports if not r.fired)
        return [
            f"{line}, {unfired} armed faults never reached "
            f"(R3/R4 intact and world recoverable in every scenario)"
        ]

    scenarios = enumerate_disk_scenarios(seed)
    return _Grid(
        header=f"disk fault sweep: {len(scenarios)} scenarios over "
        f"{len(DISK_ARTIFACTS)} artifacts x {len(DISK_FAULT_KINDS)} fault kinds "
        f"(seed {seed})",
        scenarios=scenarios,
        run=lambda s: run_disk_scenario(s, seed),
        row=row,
        summary=summary,
        cell=lambda s: (s.artifact, s.kind),
    )


def _fleet_grid(seed: int) -> _Grid:
    scenarios = enumerate_fleet_scenarios(seed)
    return _Grid(
        header=f"fleet planner-kill sweep: {len(scenarios)} boundaries over a "
        f"{FLEET_MACHINES}-machine / {FLEET_APPS}-enclave drain (seed {seed})",
        scenarios=scenarios,
        run=lambda s: run_fleet_scenario(s, seed),
        row=lambda r: (
            f"kill@{r.scenario.label:<20} apply={r.apply_outcome:<28} "
            f"recovery={r.recovery_outcome}"
        ),
        summary=lambda reports, failures: [
            f"{len(reports)} scenarios, {failures} invariant violations "
            f"(R3/R4 per member, planned placement reached, journal cleared)"
        ],
        cell=lambda s: (s.stage, s.parked, s.dispatch),
    )


def _clone_grid(seed: int) -> _Grid:
    def measured(r) -> bool:
        return r.detected and r.detection_latency >= 0

    def row(r) -> str:
        fate = "fenced" if r.fenced else ("detected" if r.detected else "UNDETECTED")
        latency = (
            f"latency={r.detection_latency:.6f}s" if measured(r) else "latency=n/a"
        )
        return (
            f"{r.campaign:<20} window={r.window:<16} fault={r.fault:<5} "
            f"clone={r.clone_outcome:<28} {fate:<10} {latency}"
        )

    def summary(reports: list, failures: int) -> list[str]:
        latencies = [r.detection_latency for r in reports if measured(r)]
        lines = []
        if latencies:
            lines.append(
                f"detection latency (virtual): "
                f"mean {sum(latencies) / len(latencies):.6f}s, "
                f"max {max(latencies):.6f}s over {len(latencies)} detections"
            )
        detected = sum(1 for r in reports if r.detected)
        fenced = sum(1 for r in reports if r.fenced)
        lines.append(
            f"{len(reports)} scenarios, {detected} clones detected, "
            f"{fenced} fenced, {failures} invariant violations "
            f"(R3: never two live instances; R4: counters never regress)"
        )
        return lines

    scenarios = enumerate_clone_scenarios(seed)
    return _Grid(
        header=f"cloning-campaign sweep: {len(scenarios)} scenarios "
        f"(campaign x protocol window x fault, seed {seed})",
        scenarios=scenarios,
        run=lambda s: run_clone_scenario(s, seed),
        row=row,
        summary=summary,
        cell=lambda s: (s.campaign, s.fault),
    )


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.faults.chaos",
        description="Sweep faults over the migration protocol and check "
        "R3/R4 after recovery (default grid: one sequential migration).",
        allow_abbrev=False,
    )
    grid = parser.add_mutually_exclusive_group()
    for flag, text in (
        ("--batched", "two-member migration waves"),
        ("--disk", "storage faults on every persisted artifact"),
        ("--fleet", "planner kills at every fleet journal boundary"),
        ("--clone", "cloning-window attack campaigns"),
    ):
        grid.add_argument(flag, action="store_true", help=text)
    parser.add_argument(
        "--session-resumption",
        action="store_true",
        help="cache attested ME sessions (default and --batched grids only)",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="first scenario per cell (--disk, --fleet and --clone only)",
    )
    parser.add_argument("seed", nargs="?", type=int, default=2018)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    cell_grid = args.disk or args.fleet or args.clone
    if args.smoke and not cell_grid:
        parser.error("--smoke applies only to --disk, --fleet and --clone")
    if args.session_resumption and cell_grid:
        parser.error(
            "--session-resumption applies only to the default and --batched grids"
        )
    if args.disk:
        grid = _disk_grid(args.seed)
    elif args.fleet:
        grid = _fleet_grid(args.seed)
    elif args.clone:
        grid = _clone_grid(args.seed)
    else:
        grid = _network_grid(args.seed, args.session_resumption, args.batched)
    scenarios = grid.scenarios
    header = grid.header
    if args.smoke:
        scenarios = first_per_cell(scenarios, grid.cell)
        header += " (smoke slice: first scenario per cell)"
    print(header)
    reports = []
    for scenario in scenarios:
        report = grid.run(scenario)
        reports.append(report)
        print(f"  [{'FAIL' if report.violations else 'ok':>4}] {grid.row(report)}")
        for violation in report.violations:
            print(f"         !! {violation}")
    failures = sum(1 for r in reports if not r.ok)
    for line in grid.summary(reports, failures):
        print(line)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
