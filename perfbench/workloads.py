"""One benchmark workload in a fresh interpreter (launched by ``run.py``).

Usage::

    python3 -B perfbench/workloads.py --workload migrate_serial --seed 0 \
        --seconds 20 --mode measure

Modes:

* ``measure`` — set up ``SETUP_REPS`` times, then run the deterministic
  block of ops and keep going until the timed ops have taken ``--seconds``
  of wall time (``drain_dense`` builds a fresh world per further cycle).
* ``block`` — one set-up and the deterministic block only (the untraced
  reference of a traced run).
* ``traced`` — like ``block``, with every layer boundary of
  :mod:`tracing` wrapped; also writes the spans to ``--spans``.

Load is one client in a closed loop: the next op starts when the previous
one returned.  The world is generated from ``--seed``; virtual-clock figures
come from the first block only, so the same seed gives the same virtual
numbers whatever the wall speed.  Every op's output is checked; a wrong one
ends the run with ``correct: false`` and exit code 1.

The last stdout line is one JSON object with the raw samples.
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import resource
import sys
from dataclasses import dataclass, field
from collections import Counter
from itertools import count
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import repro  # noqa: E402
from repro.apps.counter_app import (  # noqa: E402
    BaselineBenchEnclave,
    MigratableBenchEnclave,
)
from repro.cloud.datacenter import DataCenter  # noqa: E402
from repro.core.protocol import (  # noqa: E402
    MigratableApp,
    install_all_migration_enclaves,
)
from repro.core.result import MigrationOutcome  # noqa: E402
from repro.crypto.aes import key_schedule_cache_stats  # noqa: E402
from repro.crypto.gcm import ghash_table_cache_stats  # noqa: E402
from repro.crypto.modexp import public_key_cache_stats  # noqa: E402
from repro.fleet import FleetConstraints, FleetService  # noqa: E402
from repro.fleet.journal import FleetPlanIndex, FleetPlanJournal  # noqa: E402
from repro.sgx.identity import SigningKey  # noqa: E402

from tracing import LAYERS, VIRTUAL_GROUPS, Tracer, label_group  # noqa: E402

SETUP_REPS = 3
#: Ops in the deterministic block (``drain_dense``: drain cycles).
BLOCK_OPS = {"migrate_serial": 100, "enclave_ops": 100, "drain_dense": 1}
SMALL, LARGE = 100, 100_000
DRAIN_MACHINES, DRAIN_ENCLAVES = 8, 256
DRAIN_WINDOW = tuple(f"fleet-{i}" for i in range(4))

CACHES = {
    "aes_schedule": key_schedule_cache_stats,
    "ghash_table": ghash_table_cache_stats,
    "pk_table": public_key_cache_stats,
}


class OracleError(Exception):
    """A checked output was wrong: the run fails, it is not a data point."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise OracleError(message)


def world_seed(seed: int, rep: int) -> int:
    """Set-up repetition ``rep`` of run seed ``seed``; rep 0 is the seed."""
    return seed * 1000 + rep


@dataclass
class Ops:
    """Timed ops of one run: wall and virtual seconds per op, plus the
    network odometer over the timed calls only."""

    tracer: Tracer | None = None
    walls: list[float] = field(default_factory=list)
    virtuals: list[float] = field(default_factory=list)
    net_messages: int = 0
    net_bytes: int = 0
    retries: int = 0

    def time(self, dc: DataCenter, op: int, fn, *args, **kwargs):
        network, tracer = dc.network, self.tracer
        messages, sent = network.messages_sent, network.bytes_sent
        if tracer is not None:
            tracer.op = op
            tracer.active = True
        virtual = dc.clock.now
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            wall = perf_counter() - start
            if tracer is not None:
                tracer.active = False
        self.walls.append(wall)
        self.virtuals.append(dc.clock.now - virtual)
        self.net_messages += network.messages_sent - messages
        self.net_bytes += network.bytes_sent - sent
        return result


def bench_world(seed: int):
    """Two machines with MEs, the migratable bench enclave on the first.

    The same world as ``repro.bench.harness.build_bench_world``, built here
    because importing ``repro.bench`` loads SciPy, which would count in
    ``peak_rss_mb`` and set-up.  Returns ``(dc, machines, signing key, app)``.
    """
    dc = DataCenter(name="bench", seed=seed)
    machines = (dc.add_machine("machine-a"), dc.add_machine("machine-b"))
    install_all_migration_enclaves(dc)
    key = SigningKey.generate(dc.rng.child("bench-dev"))
    app = MigratableApp.deploy(dc, machines[0], MigratableBenchEnclave, key, vm_name="bench-vm")
    app.start_new()
    return dc, machines, key, app


# ------------------------------------------------------------ migrate_serial
@dataclass
class SerialWorld:
    dc: DataCenter
    machines: tuple
    app: MigratableApp
    counter: int
    value: int
    blob: bytes
    plaintext: bytes


def build_serial(seed: int) -> SerialWorld:
    dc, machines, _, app = bench_world(seed)
    plaintext = random.Random(seed).randbytes(SMALL)
    counter, value = app.enclave.ecall("create_counter")
    world = SerialWorld(dc, machines, app, counter, value, app.enclave.ecall("seal", plaintext), plaintext)
    warm_up = Ops()
    for index in range(2):  # one round trip
        migrate_step(world, index, warm_up)
    return world


def migrate_step(world: SerialWorld, index: int, ops: Ops) -> None:
    """Increment the counter, move the enclave to the other machine, then
    check the move: completed, on the target, counter never lower, and the
    blob sealed before the first move still unseals."""
    app = world.app
    world.value = app.enclave.ecall("increment_counter", world.counter)
    target = world.machines[(index + 1) % 2]
    result = ops.time(world.dc, index, app.migrate, target, migrate_vm=False)
    ops.retries += result.retries_used
    require(
        result.outcome is MigrationOutcome.COMPLETED,
        f"migration {result.txn_id} ended {result.outcome.name}",
    )
    where = app.app.machine.address
    require(where == target.address, f"{app.app_name} is on {where}, not {target.address}")
    value = app.enclave.ecall("read_counter", world.counter)
    require(value == world.value, f"counter reads {value} after migration, expected {world.value}")
    plain, _ = app.enclave.ecall("unseal", world.blob)
    require(plain == world.plaintext, "pre-migration sealed blob no longer unseals to its plaintext")


# --------------------------------------------------------------- enclave_ops
@dataclass
class OpsWorld:
    dc: DataCenter
    enclaves: tuple
    payloads: tuple[bytes, bytes]


def build_enclave_ops(seed: int) -> OpsWorld:
    dc, machines, key, app = bench_world(seed)
    baseline_app = machines[0].create_vm("baseline-vm").launch_application("baseline")
    baseline = baseline_app.launch_enclave(BaselineBenchEnclave, key)
    rng = random.Random(seed)
    world = OpsWorld(dc, (app.enclave, baseline), (rng.randbytes(SMALL), rng.randbytes(LARGE)))
    round_step(world, 0, Ops())  # warm-up
    return world


def _round(enclaves: tuple, payloads: tuple[bytes, bytes]) -> list:
    """One Fig. 3/4 round: counter lifecycle plus seal/unseal at both sizes,
    on the migratable enclave and then on the baseline enclave."""
    outputs = []
    for enclave in enclaves:
        counter, created = enclave.ecall("create_counter")
        incremented = enclave.ecall("increment_counter", counter)
        read = enclave.ecall("read_counter", counter)
        enclave.ecall("destroy_counter", counter)
        unsealed = [enclave.ecall("unseal", enclave.ecall("seal", p))[0] for p in payloads]
        outputs.append((created, incremented, read, unsealed))
    return outputs


def round_step(world: OpsWorld, index: int, ops: Ops) -> None:
    outputs = ops.time(world.dc, index, _round, world.enclaves, world.payloads)
    for kind, (created, incremented, read, unsealed) in zip(("migratable", "baseline"), outputs):
        require(incremented == created + 1, f"{kind} increment went {created} -> {incremented}")
        require(read == incremented, f"{kind} counter read {read}, expected {incremented}")
        require(unsealed == list(world.payloads), f"{kind} unseal(seal(x)) != x")


# --------------------------------------------------------------- drain_dense
@dataclass
class DrainWorld:
    dc: DataCenter
    service: FleetService
    plaintext: bytes
    #: app name -> (counter id, expected value, sealed blob) for the
    #: enclaves the window drain moves.
    state: dict


def build_drain(seed: int) -> DrainWorld:
    dc = DataCenter(name="fleet", seed=seed)
    machines = [dc.add_machine(f"fleet-{i}") for i in range(DRAIN_MACHINES)]
    hosts = install_all_migration_enclaves(dc)
    key = SigningKey.generate(dc.rng.child("fleet-dev"))
    service = FleetService(
        dc=dc,
        hosts=hosts,
        constraints=FleetConstraints(
            machine_capacity=DRAIN_ENCLAVES,
            max_moves_per_machine=DRAIN_ENCLAVES,
            tenant_wave_quota=DRAIN_ENCLAVES,
        ),
        dispatch="pipelined",
    )
    plaintext = random.Random(seed).randbytes(SMALL)
    state = {}
    for i in range(DRAIN_ENCLAVES):
        machine = machines[i % DRAIN_MACHINES]
        app = MigratableApp.deploy(
            dc, machine, MigratableBenchEnclave, key,
            vm_name=f"fleet-vm-{i}", app_name=f"fleet-app-{i}",
        )
        enclave = app.start_new()
        if machine.address in DRAIN_WINDOW:
            counter, _ = enclave.ecall("create_counter")
            value = enclave.ecall("increment_counter", counter)
            state[app.app_name] = (counter, value, enclave.ecall("seal", plaintext))
        service.register(app)
    return DrainWorld(dc, service, plaintext, state)


def drain_step(world: DrainWorld, index: int, ops: Ops, group_walls: list[float]) -> list:
    """Drain the maintenance window in one pipelined ``apply_many`` call;
    returns the outcomes after checking them."""
    service, window = world.service, frozenset(DRAIN_WINDOW)
    factories = [
        (lambda machine=machine: service.plan_drain(machine, exclude=window))
        for machine in DRAIN_WINDOW
    ]
    last = [0.0]

    def boundary(stage: str, wave_index: int) -> None:
        # Per-group wall latency: from the wave's start, or from the previous
        # group of the wave, to the group's journal boundary.
        if stage not in ("started", "group"):
            return
        now = perf_counter()
        if stage == "group":
            group_walls.append(now - last[0])
            if ops.tracer is not None:
                ops.tracer.op += 1
        last[0] = now

    outcomes = ops.time(world.dc, index * 1000, service.apply_many, factories, boundary_hook=boundary)
    check_drain(world, outcomes)
    return outcomes


def check_drain(world: DrainWorld, outcomes: list) -> None:
    service = world.service
    moves = [move for outcome in outcomes for wave in outcome.waves for move in wave.moves]
    require(
        sorted(move.app_name for move in moves) == sorted(world.state),
        f"{len(moves)} moves planned for the {len(world.state)} window enclaves",
    )
    for outcome in outcomes:
        for wave in outcome.waves:
            for name, result in wave.results.items():
                require(result.outcome is MigrationOutcome.COMPLETED, f"{name} ended {result.outcome.name}")
    for move in moves:
        member = service.members[move.app_name]
        require(member.machine == move.destination, f"{move.app_name} on {member.machine}, planned {move.destination}")
    placements = service.placements()
    for machine in DRAIN_WINDOW:
        require(not placements[machine], f"window machine {machine} still hosts {placements[machine]}")
    storage = world.dc.machine(service.machine_names()[0]).storage
    for index in range(len(outcomes)):
        require(
            FleetPlanJournal(storage, owner=f"plan-{index}").read() is None,
            f"fleet journal plan-{index} not cleared",
        )
    require(FleetPlanIndex(storage).read() == [], "fleet plan index not cleared")
    for name, (counter, value, blob) in world.state.items():
        enclave = service.members[name].app.enclave
        read = enclave.ecall("read_counter", counter)
        require(read == value, f"{name} counter reads {read}, expected {value}")
        plain, _ = enclave.ecall("unseal", blob)
        require(plain == world.plaintext, f"{name} sealed blob no longer unseals")


# -------------------------------------------------------------------- runner
def peak_rss_mb() -> float:
    """Peak RSS so far.  Read at the end of the first block, so it covers
    the set-ups done before it and the deterministic work, but not the extra
    ops a faster machine fits into ``--seconds`` (the program's disk history
    grows per op)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _cache_snapshot() -> dict:
    return {name: stats() for name, stats in CACHES.items()}


def _schedule_stats(schedule) -> dict:
    """Contention figures of the pipelined replay (``None``: no scheduler)."""
    if schedule is None:
        return {"queue_wait": 0.0, "busy": 0.0, "depth": 0}
    report = schedule.utilization_report()
    return {
        "queue_wait": sum(cpu["queued_wait_seconds"] for cpu in report["cpu"].values()),
        "busy": report["summary"]["mean_cpu_busy_fraction"],
        "depth": report["summary"]["max_cpu_queue_depth"],
    }


def run_serial(workload: str, seed: int, seconds: float, reps: int, extend: bool, tracer):
    """Set up ``reps`` times, timing each, then drive the first world: the
    deterministic block and, with ``extend``, more ops until the timed ops
    add up to ``seconds``."""
    build, step = {
        "migrate_serial": (build_serial, migrate_step),
        "enclave_ops": (build_enclave_ops, round_step),
    }[workload]
    setups = []
    for rep in range(reps):
        start = perf_counter()
        world = build(world_seed(seed, rep))
        setups.append(perf_counter() - start)
        if rep == 0:
            measured = world
        del world
        gc.collect()
    ops = Ops(tracer)
    caches = _cache_snapshot()
    block = BLOCK_OPS[workload]
    for index in count():
        if index >= block and (not extend or sum(ops.walls) >= seconds):
            break
        step(measured, index, ops)
        if index == block - 1:
            block_state = (
                list(ops.virtuals), ops.net_messages, ops.net_bytes,
                _cache_snapshot(), peak_rss_mb(),
            )
    virtuals, messages, sent, caches_after, rss = block_state
    return {
        "setup_s": setups,
        "attempted": len(ops.walls),
        "ops": len(ops.walls),
        "op_walls": ops.walls,
        "latency_walls": ops.walls,
        "block_wall_s": sum(ops.walls[:block]),
        "virtual_makespan_s": sum(virtuals),
        "peak_rss_mb": rss,
        "virtual_op_s": virtuals,
        "net": (messages, sent),
        "caches": (caches, caches_after),
        "retries": ops.retries,
        "schedule": _schedule_stats(None),
        "group_sizes": [],
    }


def run_drain(seed: int, seconds: float, reps: int, extend: bool, tracer):
    """Build one fresh world per cycle and drain it; the first cycle is the
    block.  With ``extend``, cycles go on until the drains add up to
    ``seconds``; at least ``reps`` worlds are built, so ``setup_s`` is a
    median."""
    setups, group_walls, moves = [], [], 0
    ops = Ops(tracer)
    block = None
    for rep in count():
        measured = sum(ops.walls)
        more = rep == 0 or (extend and measured < seconds)
        if rep >= reps and not more:
            break
        start = perf_counter()
        world = build_drain(world_seed(seed, rep))
        setups.append(perf_counter() - start)
        if more:
            caches = _cache_snapshot()
            outcomes = drain_step(world, rep, ops, group_walls)
            moves += len(world.state)
            if block is None:
                schedule = world.service.last_schedule
                block = {
                    "block_wall_s": ops.walls[0],
                    "virtual_makespan_s": ops.virtuals[0],
                    "peak_rss_mb": peak_rss_mb(),
                    "virtual_op_s": [p.finished_at - p.admitted_at for p in schedule.processes],
                    "net": (ops.net_messages, ops.net_bytes),
                    "caches": (caches, _cache_snapshot()),
                    "retries": sum(
                        result.retries_used
                        for outcome in outcomes for wave in outcome.waves
                        for result in wave.results.values()
                    ),
                    "schedule": _schedule_stats(schedule),
                    "group_sizes": list(Counter(
                        (plan, wave.index, move.destination)
                        for plan, outcome in enumerate(outcomes)
                        for wave in outcome.waves
                        for move in wave.moves
                    ).values()),
                }
            del outcomes
        del world  # the next world must not share the heap with this one
        gc.collect()
    return {
        "setup_s": setups,
        "attempted": moves,
        "ops": moves,
        "op_walls": ops.walls,
        "latency_walls": group_walls,
        **block,
    }


def _ratio(before: dict, after: dict) -> float:
    hits = after["hits"] - before["hits"]
    lookups = hits + after["misses"] - before["misses"]
    return hits / lookups if lookups else 0.0


def layer_metrics(tracer: Tracer, result: dict) -> dict:
    """The per-layer ledger of one traced block."""
    stats, by_name = tracer.group_stats()

    traced_wall = result["block_wall_s"]
    attributed = sum(entry["self_s"] for entry in stats.values())
    virtual = {name: 0.0 for name in VIRTUAL_GROUPS}
    for label, seconds in tracer.virtual.items():
        virtual[label_group(label)] += seconds
    before, after = result["caches"]
    schedule = result["schedule"]
    groups = result["group_sizes"]
    metrics = {
        "crypto.pk.calls": stats["crypto.pk"]["calls"],
        "crypto.pk.self_s": stats["crypto.pk"]["self_s"],
        "crypto.aead.calls": stats["crypto.aead"]["calls"],
        "crypto.aead.bytes": stats["crypto.aead"]["bytes"],
        "crypto.aead.self_s": stats["crypto.aead"]["self_s"],
        "crypto.cmac.calls": stats["crypto.cmac"]["calls"],
        "crypto.cmac.self_s": stats["crypto.cmac"]["self_s"],
        **{
            f"crypto.{name}.hit_ratio": _ratio(before[name], after[name])
            for name in CACHES
        },
        "sgx.ecall.calls": stats["sgx.ecall"]["calls"],
        "sgx.ecall.self_s": stats["sgx.ecall"]["self_s"],
        "sgx.seal.calls": stats["sgx.seal"]["calls"],
        "sgx.seal.self_s": stats["sgx.seal"]["self_s"],
        "attestation.ra.handshakes": by_name["repro.attestation.remote.RemoteAttestationInitiator.finish"],
        "attestation.ra.self_s": stats["attestation.ra"]["self_s"],
        "attestation.la.self_s": stats["attestation.la"]["self_s"],
        "attestation.channel.self_s": stats["attestation.channel"]["self_s"],
        "core.migrate.self_s": stats["core.migrate"]["self_s"],
        "core.retries": result["retries"],
        "wire.codec.calls": stats["wire.codec"]["calls"],
        "wire.codec.self_s": stats["wire.codec"]["self_s"],
        "cloud.net.messages": result["net"][0],
        "cloud.net.bytes": result["net"][1],
        "cloud.net.self_s": stats["cloud.net"]["self_s"],
        "cloud.storage.writes": by_name["repro.cloud.storage.UntrustedStorage.write"],
        "cloud.storage.bytes": stats["cloud.storage"]["bytes"],
        "cloud.storage.syncs": by_name["repro.cloud.storage.UntrustedStorage.sync"],
        "cloud.storage.self_s": stats["cloud.storage"]["self_s"],
        "sim.charges": stats["sim.charge"]["calls"],
        "sim.scheduler.self_s": stats["sim.scheduler"]["self_s"],
        "sim.cpu_queue_wait_virtual_s": schedule["queue_wait"],
        "sim.mean_cpu_busy_fraction": schedule["busy"],
        "sim.max_cpu_queue_depth": schedule["depth"],
        **{f"virtual.{name}_s": seconds for name, seconds in virtual.items()},
        "fleet.plan.self_s": stats["fleet.plan"]["self_s"],
        "fleet.conflict_graph.self_s": stats["fleet.conflict_graph"]["self_s"],
        "fleet.preflight.self_s": stats["fleet.preflight"]["self_s"],
        "fleet.journal.writes": stats["fleet.journal"]["calls"],
        "fleet.groups": len(groups),
        "fleet.members_per_group": (
            sum(groups) / len(groups) if groups else 0.0
        ),
        **{
            f"{layer}.self_s": sum(
                entry["self_s"] for name, entry in stats.items()
                if name.split(".")[0] == layer
            )
            for layer in LAYERS
        },
        "harness.traced_wall_s": traced_wall,
        "harness.unattributed_s": traced_wall - attributed,
        "harness.spans": len(tracer.spans),
    }
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(BLOCK_OPS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("measure", "block", "traced"), required=True)
    parser.add_argument("--spans", type=Path, help="span dump path (traced mode)")
    args = parser.parse_args(argv)
    source = Path(repro.__file__).resolve()
    if ROOT / "src" not in source.parents:
        print(f"repro imported from {source}, not from this checkout", file=sys.stderr)
        return 2

    tracer = Tracer() if args.mode == "traced" else None
    if tracer is not None:
        tracer.install()
    reps, extend = (SETUP_REPS, True) if args.mode == "measure" else (1, False)
    output: dict = {"correct": True, "errors": []}
    try:
        if args.workload == "drain_dense":
            result = run_drain(args.seed, args.seconds, reps, extend, tracer)
        else:
            result = run_serial(args.workload, args.seed, args.seconds, reps, extend, tracer)
    except OracleError as error:
        output.update(correct=False, errors=[str(error)])
        print(json.dumps(output))
        return 1
    finally:
        if tracer is not None:
            tracer.uninstall()
    output.update(
        attempted=result["attempted"],
        failed=0,
        ops=result["ops"],
        setup_s=result["setup_s"],
        op_walls=result["op_walls"],
        latency_walls=result["latency_walls"],
        block_wall_s=result["block_wall_s"],
        virtual_op_s=result["virtual_op_s"],
        virtual_makespan_s=result["virtual_makespan_s"],
        peak_rss_mb=result["peak_rss_mb"],
    )
    if tracer is not None:
        silent = tracer.silent_groups(args.workload)
        if silent:
            output.update(correct=False, errors=[f"boundaries never fired: {silent}"])
            print(json.dumps(output))
            return 1
        output["layers"] = layer_metrics(tracer, result)
        if args.spans is not None:
            tracer.write(args.spans)
    print(json.dumps(output))
    return 0


if __name__ == "__main__":
    sys.exit(main())
