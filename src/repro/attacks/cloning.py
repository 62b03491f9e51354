"""Cloning-window attack campaigns at fleet scale, and their detection.

Briongos et al. observe that any migration scheme with persistent state has
*cloning windows*: instants where an adversary who controls the untrusted
host can launch a second instance from a snapshot of the sealed library
state — during the RESTORE window (before the legitimate instance's claim
lands), against a stale ME epoch (replaying a cached attested session after
the destination ME was reinstalled), into a batched ``transfer_batch`` wave
(double-joining a staged member), or from a *healed* disk image after
tombstone recovery (the backup restores a pre-freeze blob the freeze flag
never marked).

This module scripts those campaigns as deterministic adversary schedules
over the :mod:`repro.faults` hooks, so they compose with network faults at
exact message positions: a :meth:`~repro.faults.plan.FaultPlan.hook` rule
launches the clone at the ``seq``-th observed message of the victim
migration, optionally while another rule drops an earlier protocol leg and
the retry/resume machinery is mid-recovery.

The defense under test is the epoch/heartbeat clone detection of
:mod:`repro.fleet.registry`:

* guarded libraries (``MigratableApp.clone_guard``) claim a per-instance
  epoch with the fleet's :class:`SingleInstanceRegistry` before operating;
* MEs report freeze hand-offs (``advance``) and monotonic heartbeats, so a
  clone accepted inside the freeze window is fenced *retroactively* when
  the legitimate shipment lands, and an ME restored from an older sealed
  checkpoint fences itself on its first beat;
* a fenced clone is terminated (graceful degradation) while the legitimate
  instance keeps serving; an unreachable registry denies by default.

Every campaign returns a :class:`CloneCampaignReport` carrying the clone's
fate, whether the registry *detected* (recorded an incident) and *fenced*
it, the detection latency in virtual seconds, and the R3/R4 verdict.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro import wire
from repro.apps.counter_app import MigratableBenchEnclave
from repro.cloud.network import Endpoint
from repro.core.protocol import LIBRARY_STATE_PATH, MigratableApp
from repro.core.result import MigrationOutcome
from repro.errors import (
    CloneDetectedError,
    FencedInstanceError,
    InvalidStateError,
    ReproError,
    TransientError,
)
from repro.faults.plan import FaultPlan
from repro.faults.scenario import (
    CONTROL,
    DESTINATION,
    SOURCE,
    World,
    WorldSpec,
    arm,
    build_world,
    check_invariants,
    disarm,
    members,
    migrate,
    recover,
    reinstall,
)

#: How many times the adversary re-presses a claim that was denied only
#: transiently (deny-by-default while the registry/network was unreachable).
ADVERSARY_RETRIES = 3

#: The campaigns that launch their clone at a message of the victim
#: migration, each with the label prefix of its clone's VM and app.
WINDOW_CAMPAIGNS = {
    "restore-window": "restore-clone",
    "wave-double-join": "wave-clone",
    "stale-session-replay": "replay-clone",
}


@dataclass
class CloneCampaignReport:
    """Outcome of one scripted cloning campaign."""

    campaign: str
    window: str
    fault: str
    clone_outcome: str = "not-attempted"
    detected: bool = False
    fenced: bool = False
    #: Virtual seconds from the clone's first claim attempt to the first
    #: registry incident it caused; negative when never detected.
    detection_latency: float = -1.0
    migrate_outcome: str = ""
    recovery_outcome: str = "not-needed"
    violations: list[str] = field(default_factory=list)
    timeline: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


# ------------------------------------------------------------------ worlds
def clone_spec(
    seed: int = 2018, apps: int = 1, session_resumption: bool = False
) -> WorldSpec:
    """Source + destination machines with durable, registry-attached MEs, a
    control machine owning the single-instance registry, and ``apps``
    clone-guarded counter enclaves on the source."""
    return WorldSpec(
        name="clone",
        rng="clone",
        machines=(SOURCE, DESTINATION, CONTROL),
        apps=members(apps),
        named=True,
        seed=seed,
        session_resumption=session_resumption,
        guarded=True,
    )


def victim(
    campaign: str, seed: int = 2018
) -> tuple[World, bytes, Callable[[World], list]]:
    """A window campaign's victim: its world, the adversary's snapshot of
    app 0's sealed library state, and the victim migration — the action
    both the campaign's probe and its run drive.

    The stale-session world migrates app 0 first (after the snapshot),
    warming the source ME's cached attested session, and reinstalls the
    destination ME (fresh epoch); its victim migration is app 1's.
    """
    stale = campaign == "stale-session-replay"
    world = build_world(
        clone_spec(
            seed,
            apps=1 if campaign == "restore-window" else 2,
            session_resumption=stale,
        )
    )
    snapshot = world.apps[0].stored_library_buffer()
    if not stale:
        return world, snapshot, migrate
    warm = migrate(world, world.apps[:1])[0]
    if warm.outcome is not MigrationOutcome.COMPLETED:
        raise AssertionError(f"warm-up migration failed: {warm.outcome}")
    reinstall(world, DESTINATION)
    return world, snapshot, lambda w: migrate(w, w.apps[1:])


# ------------------------------------------------------------- clone moves
def _terminate(app, enclave) -> None:
    """Tear the clone down: remove it from its host app and destroy it."""
    if enclave in app.enclaves:
        app.enclaves.remove(enclave)
    app.machine.on_enclave_destroyed(enclave)
    enclave.destroy()


def launch_clone(
    world: World, machine, stale_buffer: bytes, label: str
) -> tuple[str, object, object]:
    """One clone-launch attempt from a sealed library snapshot.

    Returns ``(outcome, enclave, host_app)``; the enclave is non-None only
    when the claim was *accepted* (the registry let a second instance in).
    Denials tear the clone down immediately — "fenced and terminated".
    """
    vm = machine.create_vm(f"{label}-vm")
    attack_app = vm.launch_application(label)
    clone = attack_app.launch_enclave(MigratableBenchEnclave, world.dev_key)
    clone.register_ocall(
        "send_to_me",
        lambda addr, p: attack_app.send(str(Endpoint.me(addr)), p),
    )
    clone.register_ocall("save_library_state", lambda blob: None)
    try:
        clone.ecall("migration_init", stale_buffer, "RESTORE", machine.address)
    except (CloneDetectedError, FencedInstanceError) as exc:
        _terminate(attack_app, clone)
        return f"denied:{type(exc).__name__}", None, attack_app
    except InvalidStateError as exc:
        # The freeze flag refused the snapshot before any claim was made.
        _terminate(attack_app, clone)
        return f"refused:{type(exc).__name__}", None, attack_app
    except TransientError as exc:
        # Deny-by-default: the registry/network was unreachable mid-window.
        _terminate(attack_app, clone)
        return f"denied-transient:{type(exc).__name__}", None, attack_app
    except ReproError as exc:
        _terminate(attack_app, clone)
        return f"failed:{type(exc).__name__}", None, attack_app
    return "accepted", clone, attack_app


def _adjudicated(outcome: str) -> bool:
    """True once the registry gave a final answer (accept or hard deny)."""
    return outcome == "accepted" or outcome.startswith("denied:")


class _CloneCampaignState:
    """Shared mutable state between the hook, the press-home retries, and
    the report: the attacker's first-attempt timestamp and latest result."""

    def __init__(self, world: World, machine, stale_buffer: bytes, label: str):
        self.world = world
        self.machine = machine
        self.stale_buffer = stale_buffer
        self.label = label
        self.attempts = 0
        self.first_attempt_at: float | None = None
        self.outcome: str | None = None
        self.clone = None
        self.clone_app = None
        self.log: list[str] = []

    def attempt(self) -> None:
        if self.first_attempt_at is None:
            self.first_attempt_at = self.world.dc.clock.now
        outcome, clone, app = launch_clone(
            self.world,
            self.machine,
            self.stale_buffer,
            f"{self.label}-{self.attempts}",
        )
        self.attempts += 1
        self.outcome, self.clone, self.clone_app = outcome, clone, app
        self.log.append(
            f"t={self.world.dc.clock.now:.6f} clone attempt "
            f"{self.attempts}: {outcome}"
        )

    def hook(self, src: str, dst: str, payload: bytes, direction: str):
        """FaultPlan hook body: launch the clone at the matched message,
        then deliver the message unchanged."""
        if self.attempts == 0:
            self.attempt()
        return payload

    def press_home(self) -> None:
        """After the fault window closes, the adversary keeps pressing a
        claim that never reached the registry until it is adjudicated."""
        if self.outcome is None:
            self.attempt()  # the window never opened; attack post-protocol
        retries = 0
        while not _adjudicated(self.outcome) and retries < ADVERSARY_RETRIES:
            if self.outcome.startswith("refused:"):
                break  # freeze flag said no before any claim: terminal
            self.world.dc.clock.advance(0.05)
            self.attempt()
            retries += 1

    def resolve(self, report: CloneCampaignReport, incidents_before: int) -> None:
        """Fence-and-terminate resolution, then detection scoring: a clone
        the registry accepted but later fenced is destroyed; an accepted,
        *unfenced* clone is left alive so the R3 check convicts the
        defense."""
        if self.clone is not None:
            try:
                identity = self.clone.ecall("guard_identity")
            except ReproError:
                identity = b""
            record = self.world.registry.record_of(identity) if identity else None
            if record is not None and record.fenced:
                _terminate(self.clone_app, self.clone)
                self.clone = None
                report.timeline.append(
                    "fenced clone terminated; legitimate instance keeps serving"
                )
            else:
                report.timeline.append(
                    "accepted clone was never fenced — leaving it alive for the "
                    "invariant check"
                )
        _score_detection(
            self.world,
            report,
            incidents_before,
            since=self.first_attempt_at,
            fenced=self.clone is None,
        )
        report.clone_outcome = self.outcome or "not-attempted"
        report.timeline.extend(self.log)


def _score_detection(
    world: World,
    report: CloneCampaignReport,
    incidents_before: int,
    since: float | None,
    fenced: bool,
    subject: str = "clone",
) -> None:
    """Detected means the campaign left a registry incident; fenced means
    the ``subject`` (the clone, or a rolled-back ME) also lost; latency
    runs from ``since`` to the first incident."""
    new_incidents = world.registry.incidents()[incidents_before:]
    report.detected = bool(new_incidents)
    report.fenced = report.detected and fenced
    if new_incidents and since is not None:
        report.detection_latency = round(new_incidents[0].time - since, 6)
    if not report.detected:
        report.violations.append(f"defense: {subject} left no registry incident")
    elif not report.fenced:
        report.violations.append(f"defense: detected {subject} was never fenced")


# ---------------------------------------------------------------- campaigns
def _window_plan(
    state: _CloneCampaignState, window_seq: int, fault: str, fault_seq: int
) -> FaultPlan:
    """The campaign's fault plan: optionally drop an earlier protocol leg
    (rules are listed first so the drop is adjudicated before the hook on
    a shared message), then launch the clone at ``window_seq``."""
    plan = FaultPlan()
    if fault == "drop" and fault_seq >= 0:
        plan = plan.drop(nth=fault_seq)
    return plan.hook(state.hook, nth=window_seq)


def run_window_campaign(
    campaign: str,
    window_seq: int,
    fault: str = "none",
    fault_seq: int = -1,
    seed: int = 2018,
    window_label: str = "",
) -> CloneCampaignReport:
    """At message ``window_seq`` of the victim migration, a clone restores
    the adversary's pre-migration snapshot of app 0 on the source:

    * ``restore-window`` — second instance during a guarded migration's
      RESTORE window;
    * ``wave-double-join`` — while two members move through one staged
      ``transfer_batch`` exchange, a clone of member 0 claims RESTORE;
    * ``stale-session-replay`` — the source ME holds a cached attested
      session to a since-reinstalled destination ME (fresh epoch), so app
      1's migration must fall back to full remote attestation while a clone
      of the already-migrated app 0 claims its old identity.
    """
    report = CloneCampaignReport(
        campaign=campaign, window=window_label or str(window_seq), fault=fault
    )
    world, snapshot, action = victim(campaign, seed)
    if campaign == "stale-session-replay":
        report.timeline.append(
            "app 0 migrated; destination ME reinstalled (cached session is "
            "now bound to a stale ME epoch)"
        )
    state = _CloneCampaignState(
        world, world.dc.machine(SOURCE), snapshot, WINDOW_CAMPAIGNS[campaign]
    )
    incidents_before = world.registry.incident_count()
    injector = arm(world, _window_plan(state, window_seq, fault, fault_seq))
    try:
        results = action(world)
        report.migrate_outcome = ",".join(r.outcome.name for r in results)
        completed = all(r.outcome is MigrationOutcome.COMPLETED for r in results)
    except ReproError as exc:
        report.migrate_outcome = f"error:{type(exc).__name__}"
        completed = False
    # Keep the injector installed while recovering: occurrence counting
    # continues, so a window later than the fault position opens during the
    # resume pass — the clone races the *recovery*, not just the protocol.
    if not completed:
        report.recovery_outcome, _ = recover(world)
    disarm(world)
    state.press_home()
    state.resolve(report, incidents_before)
    if campaign == "stale-session-replay":
        # The stale cached session must NOT have been accepted: the second
        # migration re-runs the full remote-attestation handshake.
        if not any(leg.msg_type == "ra_msg1" for leg in injector.trace):
            report.violations.append(
                "stale cached session accepted by a reinstalled ME (no full-RA "
                "fallback observed)"
            )
        else:
            report.timeline.append(
                "full remote attestation re-ran against the reinstalled ME"
            )
    report.violations.extend(check_invariants(world))
    return report


def run_healed_disk_campaign(
    window: str,
    fault: str = "none",
    seed: int = 2018,
) -> CloneCampaignReport:
    """Relaunch from a healed disk image after tombstone recovery.

    ``window`` selects the artifact the backup restores:

    * ``"tombstone-heal"`` — after a completed migration the source's
      sealed library blob is healed from the archive; the newest copy is
      frozen (freeze-flag refusal), so the adversary replays successively
      older versions until a pre-freeze snapshot initializes — and its
      stale epoch is fenced by the registry.
    * ``"replay-prefreeze"`` — the adversary skips straight to replaying
      the newest *unfrozen* version (same endgame, shorter timeline).
    * ``"me-checkpoint"`` — the *destination ME's* sealed checkpoint is
      rolled back below already-reported heartbeats; the reinstalled ME
      regresses on its first beat and fences itself.
    """
    report = CloneCampaignReport(
        campaign="healed-disk", window=window, fault=fault
    )
    world = build_world(clone_spec(seed))
    result = world.app.migrate(world.dc.machine(DESTINATION), migrate_vm=False)
    report.migrate_outcome = result.outcome.name
    if result.outcome is not MigrationOutcome.COMPLETED:
        report.violations.append("setup migration did not complete")
        return report
    incidents_before = world.registry.incident_count()
    arm(world, FaultPlan().drop(nth=1) if fault == "drop" else FaultPlan())
    if window == "me-checkpoint":
        beat_at = _healed_me_checkpoint(world, report)
        _score_detection(
            world,
            report,
            incidents_before,
            since=beat_at,
            fenced=report.clone_outcome.startswith("denied:"),
            subject="rolled-back ME",
        )
    else:
        _healed_library_blob(world, window, report).resolve(report, incidents_before)
    disarm(world)
    report.violations.extend(check_invariants(world))
    return report


def _library_blob_path(app: MigratableApp) -> str:
    return f"{app.app_name}/{LIBRARY_STATE_PATH}"


def _healed_library_blob(
    world: World, window: str, report: CloneCampaignReport
) -> _CloneCampaignState:
    """Heal/replay the migrated-away library blob and press clones from
    progressively older versions until the registry adjudicates."""
    source = world.dc.machine(SOURCE)
    path = _library_blob_path(world.app)
    if window == "tombstone-heal":
        source.storage.heal(path + "*")
        report.timeline.append(f"healed {path!r} from the storage archive")
    versions = source.storage.versions(path)
    state = _CloneCampaignState(world, source, b"", "healed-clone")
    for index in range(len(versions) - 1, -1, -1):
        blob = versions[index]
        if blob is None:
            report.timeline.append(f"version {index}: tombstone, skipped")
            continue
        source.storage.replay(path, index)
        state.stale_buffer = source.storage.read(path)
        state.attempt()
        if window == "replay-prefreeze" and state.outcome.startswith("refused:"):
            # This variant goes straight for an unfrozen snapshot.
            continue
        if _adjudicated(state.outcome):
            break
        if state.outcome.startswith("denied-transient"):
            state.press_home()
            if _adjudicated(state.outcome):
                break
    return state


def _beat_destination(world: World) -> dict:
    """One heartbeat against the destination ME over the network (the
    durable path: the ME checkpoints after every handled message)."""
    reply = world.app.app.send(
        str(Endpoint.me(world.dc.machine(DESTINATION).address)),
        wire.encode({"t": "heartbeat"}),
    )
    return wire.decode(reply)


def _healed_me_checkpoint(world: World, report: CloneCampaignReport) -> float:
    """Roll the destination ME's sealed checkpoint back below heartbeats
    the registry has already seen, then power-cycle and reinstall."""
    dc = world.dc
    destination = dc.machine(DESTINATION)
    ckpt_paths = [
        p for p in destination.storage.paths() if "me_checkpoint" in p
    ]
    baseline = {p: len(destination.storage.versions(p)) for p in ckpt_paths}
    for _ in range(3):
        for _attempt in range(3):
            try:
                reply = _beat_destination(world)
            except ReproError as exc:
                # A lost beat (or reply) is retried — heartbeats are
                # idempotent from the operator's side, and a re-delivered
                # beat only advances the monotonic counter further.
                report.timeline.append(
                    f"heartbeat lost in transit ({type(exc).__name__}); retrying"
                )
                world.dc.clock.advance(0.05)
                continue
            if reply.get("status") != "ok":
                report.timeline.append(f"heartbeat rejected: {reply}")
            break
    report.timeline.append(
        "3 heartbeats reported and persisted in the v4 checkpoint"
    )
    destination.crash()
    for path, count in baseline.items():
        if count and len(destination.storage.versions(path)) > count:
            destination.storage.replay(path, count - 1)
    report.timeline.append(
        "machine crashed; ME checkpoint blobs replayed to the pre-beat image"
    )
    host = reinstall(world, DESTINATION)
    # The app enclave died with the machine; its guarded relaunch is the
    # legitimate takeover (dead holder, fresh epoch claim).
    try:
        world.app.restart()
        report.recovery_outcome = "restarted"
    except ReproError as exc:
        report.recovery_outcome = f"error:{type(exc).__name__}"
    # First beat from the rolled-back ME: direct ECALL, so the regression
    # surfaces as a typed CloneDetectedError to the operator.
    beat_at = dc.clock.now
    try:
        beat = host.enclave.ecall("heartbeat")
        report.timeline.append(
            f"rolled-back ME heartbeat ACCEPTED at {beat['heartbeat']} "
            "(should have regressed)"
        )
        report.clone_outcome = "accepted"
    except CloneDetectedError as exc:
        report.clone_outcome = "denied:CloneDetectedError"
        report.timeline.append(f"rolled-back ME fenced on first beat: {exc}")
    except FencedInstanceError as exc:
        report.clone_outcome = "denied:FencedInstanceError"
        report.timeline.append(f"rolled-back ME already fenced: {exc}")
    except TransientError:
        report.clone_outcome = "denied-transient:TransientError"
    return beat_at
