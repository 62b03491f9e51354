"""The scenario engine under every adversarial grid.

Each chaos grid — base, batched, disk and fleet in :mod:`repro.faults.chaos`,
the cloning campaigns of :mod:`repro.attacks.cloning` — runs one experiment
shape: build a fresh seeded world from a :class:`WorldSpec`, arm one fault
plan, drive the migration, close the fault window, recover every
interrupted member, and ask one oracle whether R3 (never two operational
instances) and R4 (counters never regress) survived.  This module is that
shape; a grid only enumerates its scenarios and appends its own checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable

from repro.apps.counter_app import MigratableBenchEnclave
from repro.cloud.datacenter import DataCenter
from repro.core.protocol import (
    MigratableApp,
    install_all_migration_enclaves,
    reinstall_migration_enclave,
)
from repro.core.result import MigrationOutcome, MigrationResult
from repro.core.retry import RetryPolicy
from repro.errors import MigrationError, ReproError
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.fleet import FleetConstraints, FleetService
from repro.fleet.registry import SingleInstanceRegistry
from repro.sgx.identity import SigningKey

SOURCE = "machine-a"
DESTINATION = "machine-b"
CONTROL = "machine-ctl"

#: Counter values the tracked apps reach before a scenario starts; distinct
#: so a cross-enclave state mix-up shows up as an R4 violation.
COUNTER_TARGETS = (3, 5)

#: Small retry budget so scenarios where retries cannot help fail fast into
#: the resume path instead of burning sweep wall-clock.
POLICY = RetryPolicy(max_attempts=2, base_delay=0.05)


@dataclass(frozen=True)
class AppSpec:
    """One tracked app: its host, the counter value it reaches before the
    scenario, and its tenant / anti-affinity group in fleet worlds."""

    host: str = SOURCE
    target: int = COUNTER_TARGETS[0]
    tenant: str = "default"
    group: str | None = None


def members(count: int) -> tuple[AppSpec, ...]:
    """``count`` apps on the source, at the first ``count`` targets."""
    return tuple(AppSpec(SOURCE, target) for target in COUNTER_TARGETS[:count])


@dataclass(frozen=True)
class WorldSpec:
    """Everything :func:`build_world` needs; the defaults are the base grid.

    ``name`` is the data-center name (it keys every derived secret) and,
    when ``named``, the prefix of each app's VM and app name; unnamed apps
    keep :meth:`MigratableApp.deploy`'s ``guest``/``app``.  ``rng`` prefixes
    the RNG child labels (``-me-signer``, ``-dev``, ``-faults``).
    ``guarded`` puts a :class:`SingleInstanceRegistry` on ``CONTROL`` and
    clone-guards every app; ``fleet`` registers every app with a
    :class:`FleetService` under those constraints.
    """

    name: str = "chaos"
    rng: str = "chaos"
    machines: tuple[str, ...] = (SOURCE, DESTINATION)
    apps: tuple[AppSpec, ...] = members(1)
    named: bool = False
    seed: int = 2018
    session_resumption: bool = False
    guarded: bool = False
    fleet: FleetConstraints | None = None
    dispatch: str = "serial"


@dataclass
class World:
    """One freshly built data center with its tracked apps."""

    spec: WorldSpec
    dc: DataCenter
    me_signer: SigningKey
    dev_key: SigningKey
    registry: SingleInstanceRegistry | None = None
    service: FleetService | None = None
    apps: list[MigratableApp] = field(default_factory=list)
    counter_ids: list[int] = field(default_factory=list)

    @property
    def app(self) -> MigratableApp:
        return self.apps[0]

    @property
    def counter_id(self) -> int:
        return self.counter_ids[0]


def build_world(spec: WorldSpec) -> World:
    """Machines, durable MEs on each, and one counter enclave per app.

    Counter ids are sequential *per enclave*, so every app would get id 0;
    padding app ``i`` with ``i`` extra counters makes its tracked id unique,
    letting :func:`check_invariants` attribute a surviving instance to its
    app by the id set it serves.
    """
    dc = DataCenter(name=spec.name, seed=spec.seed)
    for name in spec.machines:
        dc.add_machine(name)
    registry = (
        SingleInstanceRegistry(dc.machine(CONTROL).storage, dc.clock)
        if spec.guarded
        else None
    )
    me_signer = SigningKey.generate(dc.rng.child(f"{spec.rng}-me-signer"))
    hosts = install_all_migration_enclaves(
        dc,
        me_signer,
        durable=True,
        session_resumption=spec.session_resumption,
        registry=registry,
    )
    world = World(
        spec=spec,
        dc=dc,
        me_signer=me_signer,
        dev_key=SigningKey.generate(dc.rng.child(f"{spec.rng}-dev")),
        registry=registry,
    )
    if spec.fleet is not None:
        world.service = FleetService(
            dc=dc,
            hosts=hosts,
            constraints=spec.fleet,
            retry_policy=POLICY,
            dispatch=spec.dispatch,
        )
    for index, member in enumerate(spec.apps):
        names = (
            {
                "vm_name": f"{spec.name}-vm-{index}",
                "app_name": f"{spec.name}-app-{index}",
            }
            if spec.named
            else {}
        )
        app = MigratableApp.deploy(
            dc, dc.machine(member.host), MigratableBenchEnclave, world.dev_key, **names
        )
        app.retry_policy = POLICY
        if registry is not None:
            app.registry = registry
            app.clone_guard = True
        enclave = app.start_new()
        for _ in range(index):
            enclave.ecall("create_counter")
        counter_id, _ = enclave.ecall("create_counter")
        for _ in range(member.target):
            enclave.ecall("increment_counter", counter_id)
        if world.service is not None:
            world.service.register(
                app, tenant=member.tenant, anti_affinity_group=member.group
            )
        world.apps.append(app)
        world.counter_ids.append(counter_id)
    return world


def reinstall(world: World, machine: str):
    """Bring ``machine``'s ME back from its durable checkpoint."""
    return reinstall_migration_enclave(
        world.dc,
        world.dc.machine(machine),
        world.me_signer,
        durable=True,
        session_resumption=world.spec.session_resumption,
        registry=world.registry,
    )


# ------------------------------------------------------------------ faults
def _storages(world: World) -> list:
    return [machine.storage for machine in world.dc.machines.values()]


def arm(world: World, plan: FaultPlan, *, disk: bool = False) -> FaultInjector:
    """Open the fault window: install ``plan`` on the network and, with
    ``disk``, on every machine's storage."""
    injector = FaultInjector(
        plan=plan,
        rng=world.dc.rng.child(f"{world.spec.rng}-faults"),
        machines=dict(world.dc.machines),
        meter=world.dc.meter,
    )
    world.dc.network.fault_injector = injector
    if disk:
        injector.attach_disk(_storages(world))
    return injector


def disarm(world: World, injector: FaultInjector | None = None) -> None:
    """Close the fault window on the network; given ``injector``, also
    unhook it from every storage."""
    world.dc.network.fault_injector = None
    if injector is not None:
        injector.detach_disk(_storages(world))


def migrate(
    world: World, apps: list[MigratableApp] | None = None
) -> list[MigrationResult]:
    """Move ``apps`` (default: every tracked app) to ``DESTINATION``: one
    app migrates alone, several as one ``migrate_group`` wave."""
    apps = world.apps if apps is None else apps
    destination = world.dc.machine(DESTINATION)
    if len(apps) == 1:
        return [apps[0].migrate(destination, migrate_vm=False)]
    return MigratableApp.migrate_group(apps, destination, migrate_vm=False)


def probe(
    world: World,
    action: Callable[[World], list[MigrationResult]] = migrate,
    *,
    disk: bool = False,
) -> FaultInjector:
    """Fault-free run of ``action`` under an empty plan.  Returns the
    injector, whose ``trace`` (and, with ``disk``, ``disk_trace``) the grids
    enumerate their fault positions from."""
    injector = arm(world, FaultPlan(), disk=disk)
    results = action(world)
    disarm(world, injector)
    incomplete = [
        r.outcome for r in results if r.outcome is not MigrationOutcome.COMPLETED
    ]
    if incomplete:
        raise AssertionError(f"probe migration did not complete: {incomplete}")
    return injector


# ---------------------------------------------------------------- recovery
def recover_member(
    app: MigratableApp,
    attempts: int = 1,
    heal: Callable[[], list] | None = None,
) -> list[str]:
    """Drive one member's interrupted migration to an end; returns its step
    labels.

    Each attempt resumes the journalled transaction; whatever outcome the
    resume returns ends recovery.  A member with no migration in progress
    already finished it (the fault hit a sibling's leg): that is success
    if its enclave is alive, and otherwise an ordinary enclave death
    *after* the protocol, recovered by a restart from sealed state.  When a
    step raises, ``heal`` (the disk grid's restore-from-archive) runs
    before the next attempt; without it, or once healing finds nothing
    after a retry, the member stays failed.
    """
    steps: list[str] = []
    for attempt in range(attempts):
        try:
            steps.append(app.resume(migrate_vm=False).outcome.value)
            return steps
        except MigrationError as exc:
            failure: ReproError = exc
            if "no migration in progress" in str(exc):
                if app.enclave is not None and app.enclave.alive:
                    steps.append("already-complete")
                    return steps
                try:
                    app.restart()
                    steps.append("restarted")
                    return steps
                except ReproError as restart_exc:
                    failure = restart_exc
        except ReproError as exc:
            failure = exc
        healed = heal() if heal is not None else []
        label = f"raised:{type(failure).__name__}"
        if healed:
            label += f"->healed[{len(healed)}]"
        steps.append(label)
        if not healed and (heal is None or attempt > 0):
            break  # nothing left to heal and retrying alone did not help
    return steps


def recover(
    world: World,
    crashed: Iterable[str] = (),
    *,
    attempts: int = 1,
    heal: Callable[[], list] | None = None,
) -> tuple[str, bool]:
    """Reinstall the ME on every crashed machine (its durable checkpoint
    survives on disk), then :func:`recover_member` every tracked app.
    Returns the ``+``-joined step labels and whether any member's final
    step still raised."""
    for name in crashed:
        reinstall(world, name)
    per_member = [recover_member(app, attempts, heal) for app in world.apps]
    label = "+".join(step for steps in per_member for step in steps)
    return label, any(steps[-1].startswith("raised:") for steps in per_member)


# ------------------------------------------------------------------ oracle
def serving(world: World) -> list[list[tuple]]:
    """Per tracked app, every ``(enclave, counter value)`` serving it.

    An *operational instance* is a loaded, alive bench enclave anywhere in
    the data center (clones included) that serves a counter read; frozen,
    uninitialized or crashed instances refuse the read and do not count.
    An instance belongs to app ``i`` when it serves app ``i``'s tracked id
    but no higher one (ids are padded to increase across apps).
    """
    readings: list[tuple] = []
    for machine in world.dc.machines.values():
        for enclave in machine.enclaves:
            if enclave.enclave_class is not MigratableBenchEnclave:
                continue
            if not enclave.alive:
                continue
            served: dict[int, int] = {}
            for counter_id in world.counter_ids:
                try:
                    served[counter_id] = enclave.ecall("read_counter", counter_id)
                except ReproError:
                    continue
            if served:
                readings.append((enclave, served))
    per_app: list[list[tuple]] = []
    for index, counter_id in enumerate(world.counter_ids):
        higher = set(world.counter_ids[index + 1 :])
        per_app.append(
            [
                (enclave, served[counter_id])
                for enclave, served in readings
                if counter_id in served and not (higher & served.keys())
            ]
        )
    return per_app


def check_invariants(world: World) -> list[str]:
    """R3/R4 via ECALLs only: every tracked app is served by exactly one
    operational instance, at exactly its pre-scenario counter value."""
    violations: list[str] = []
    for index, (member, instances) in enumerate(zip(world.spec.apps, serving(world))):
        label = f"enclave {index}"
        if len(instances) > 1:
            violations.append(
                f"R3: {len(instances)} operational instances serve {label}"
            )
        if not instances:
            violations.append(f"liveness: no operational instance serves {label}")
            continue
        value = instances[0][1]
        if value < member.target:
            violations.append(
                f"R4: {label} counter regressed to {value} "
                f"(expected {member.target})"
            )
        elif value > member.target:
            violations.append(
                f"{label} counter advanced to {value} without increments "
                f"(expected {member.target})"
            )
    return violations


def first_per_cell(scenarios: list, key: Callable) -> list:
    """The smoke slice: the first scenario of each ``key`` cell, in order."""
    first: dict = {}
    for scenario in scenarios:
        first.setdefault(key(scenario), scenario)
    return list(first.values())
