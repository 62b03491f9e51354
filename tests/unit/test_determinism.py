"""Reproducibility: every experiment is a pure function of its seed."""

import json
from pathlib import Path

from repro.bench.harness import run_fig3, run_fleet_bench, run_migration_bench
from repro.cloud.datacenter import DataCenter
from repro.sgx.enclave import EnclaveBase, ecall
from repro.sgx.identity import SigningKey

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "golden"


class ProbeEnclave(EnclaveBase):
    @ecall
    def probe(self) -> bytes:
        return self.sdk.seal_data(b"probe")


class TestSeedDeterminism:
    def test_fig3_samples_identical_under_seed(self):
        a = run_fig3(reps=15, seed=9)
        b = run_fig3(reps=15, seed=9)
        assert a == b

    def test_fig3_samples_differ_across_seeds(self):
        a = run_fig3(reps=15, seed=9)
        b = run_fig3(reps=15, seed=10)
        assert a != b

    def test_migration_bench_identical_under_seed(self):
        a = run_migration_bench(reps=3, num_counters=1, seed=4)
        b = run_migration_bench(reps=3, num_counters=1, seed=4)
        assert a["enclave_migration"] == b["enclave_migration"]

    def test_migration_bench_matches_golden_file(self):
        """Wall-clock optimizations must not move the virtual clock.

        The golden file was captured from run_migration_bench(reps=5,
        seed=0) *before* the fast-modexp / AEAD-cache / measurement-memo
        work landed; the samples must stay bit-identical (floats compared
        exactly — the virtual clock is pure bookkeeping, not measurement).
        """
        golden = json.loads((GOLDEN_DIR / "migration_bench_seed0.json").read_text())
        data = run_migration_bench(reps=5, seed=0)
        assert data["enclave_migration"] == golden["enclave_migration"]

    def test_fleet_bench_virtual_time_identical_under_seed(self):
        a = run_fleet_bench(n_enclaves=2, n_machines=2, reps=1, seed=7)
        b = run_fleet_bench(n_enclaves=2, n_machines=2, reps=1, seed=7)
        assert (
            a["virtual_seconds_per_migration"] == b["virtual_seconds_per_migration"]
        )

    def test_fleet_wave_bench_matches_golden_file(self):
        """The batched (migrate_group) fleet path gets the same pin as the
        sequential one: the wave protocol must not drift the virtual clock
        between commits (floats compared exactly)."""
        golden = json.loads((GOLDEN_DIR / "fleet_wave_seed0.json").read_text())
        data = run_fleet_bench(
            n_enclaves=4, n_machines=2, reps=2, seed=0, batch=True, plan="drain"
        )
        assert data["migrations"] == golden["migrations"]
        assert (
            data["virtual_seconds_per_migration"]
            == golden["virtual_seconds_per_migration"]
        )
        assert data["virtual_seconds_total"] == golden["virtual_seconds_total"]

    def test_fleet_shards_are_independent_seeded_worlds(self):
        """Sharded runs must merge exactly the per-seed single runs: shard i
        is the world seeded with ``seed + i``, byte-identical to running it
        alone."""
        merged = run_fleet_bench(
            n_enclaves=2, n_machines=2, reps=1, seed=3, workers=1, shards=2
        )
        singles = [
            run_fleet_bench(n_enclaves=2, n_machines=2, reps=1, seed=3 + i)
            for i in range(2)
        ]
        assert merged["shard_seeds"] == [3, 4]
        assert merged["migrations"] == sum(s["migrations"] for s in singles)
        assert merged["virtual_seconds_total"] == sum(
            s["virtual_seconds_total"] for s in singles
        )

    def test_chaos_disk_enumeration_matches_golden_file(self):
        """The disk sweep's scenario grid is part of the contract: silently
        losing a (artifact x fault x phase) cell means silently losing
        coverage.  The golden file pins the full seed-2018 enumeration."""
        from dataclasses import asdict

        from repro.faults.chaos import enumerate_disk_scenarios

        golden = json.loads((GOLDEN_DIR / "chaos_disk_seed2018.json").read_text())
        scenarios = [asdict(s) for s in enumerate_disk_scenarios(2018)]
        assert len(scenarios) == golden["scenario_count"]
        assert scenarios == golden["scenarios"]

    def test_chaos_disk_scenario_report_identical_under_seed(self):
        """One full fault scenario (injected tear + machine crash + healing
        recovery) replayed twice from the same seed must produce the
        identical report — the sweep's reproducibility in miniature."""
        from dataclasses import asdict

        from repro.faults.chaos import enumerate_disk_scenarios, run_disk_scenario

        scenario = next(
            s
            for s in enumerate_disk_scenarios(2018)
            if s.artifact == "journal-source" and s.kind == "torn_write"
        )
        a = run_disk_scenario(scenario, seed=2018)
        b = run_disk_scenario(scenario, seed=2018)
        assert asdict(a) == asdict(b)

    def test_chaos_fleet_scenario_report_identical_under_seed(self):
        """One planner-kill scenario (pipelined drain killed between two
        group dispatches, fresh planner resumes from the fleet journal)
        must uphold the fleet oracle and replay to the identical report."""
        from dataclasses import asdict

        from repro.faults.chaos import enumerate_fleet_scenarios, run_fleet_scenario

        scenario = next(
            s
            for s in enumerate_fleet_scenarios(2018)
            if s.label == "group:0+pipelined"
        )
        a = run_fleet_scenario(scenario, seed=2018)
        b = run_fleet_scenario(scenario, seed=2018)
        assert a.ok, a.violations
        assert asdict(a) == asdict(b)

    def test_every_chaos_grid_keeps_its_size(self):
        """Every adversarial grid's scenario count at seed 2018 is pinned:
        base and batched with session resumption off and on, disk, fleet
        and clone.  A grid that shrinks has silently lost coverage."""
        from repro.faults import chaos

        def network_grid(session_resumption, batched):
            return len(
                chaos.enumerate_scenarios(
                    2018, session_resumption=session_resumption, batched=batched
                )
            )

        sizes = {
            "base": network_grid(False, False),
            "base+resumption": network_grid(True, False),
            "batched": network_grid(False, True),
            "batched+resumption": network_grid(True, True),
            "disk": len(chaos.enumerate_disk_scenarios(2018)),
            "fleet": len(chaos.enumerate_fleet_scenarios(2018)),
            "clone": len(chaos.enumerate_clone_scenarios(2018)),
        }
        assert sizes == {
            "base": 77,
            "base+resumption": 77,
            "batched": 140,
            "batched+resumption": 140,
            "disk": 98,
            "fleet": 18,
            "clone": 71,
        }

    def test_chaos_clone_enumeration_matches_golden_file(self):
        """The clone sweep's scenario grid (campaign x protocol window x
        fault) is pinned: silently losing a cloning window means silently
        losing adversarial coverage."""
        from dataclasses import asdict

        from repro.faults.chaos import enumerate_clone_scenarios

        golden = json.loads((GOLDEN_DIR / "chaos_clone_seed2018.json").read_text())
        scenarios = [asdict(s) for s in enumerate_clone_scenarios(2018)]
        assert len(scenarios) == golden["scenario_count"]
        assert scenarios == golden["scenarios"]

    def test_chaos_clone_scenario_report_identical_under_seed(self):
        """One full cloning campaign (clone launched mid-window, fenced by
        the registry, invariants checked) replayed twice from the same
        seed must produce the identical report — detection latency in
        virtual time included."""
        from dataclasses import asdict

        from repro.faults.chaos import enumerate_clone_scenarios, run_clone_scenario

        scenario = next(
            s
            for s in enumerate_clone_scenarios(2018)
            if s.campaign == "restore-window" and s.fault == "drop"
        )
        a = run_clone_scenario(scenario, seed=2018)
        b = run_clone_scenario(scenario, seed=2018)
        assert asdict(a) == asdict(b)

    def test_datacenter_key_material_deterministic(self):
        dc1 = DataCenter(name="same", seed=5)
        dc2 = DataCenter(name="same", seed=5)
        assert dc1.ca_public_key == dc2.ca_public_key
        assert dc1.ias.report_public_key == dc2.ias.report_public_key

    def test_sealed_blobs_deterministic_under_seed(self):
        blobs = []
        for _ in range(2):
            dc = DataCenter(name="d", seed=6)
            machine = dc.add_machine("m")
            vm = machine.create_vm("v")
            app = vm.launch_application("a")
            key = SigningKey.generate(dc.rng.child("k"))
            enclave = app.launch_enclave(ProbeEnclave, key)
            blobs.append(enclave.ecall("probe"))
        assert blobs[0] == blobs[1]

    def test_different_datacenter_names_different_keys(self):
        dc1 = DataCenter(name="alpha", seed=5)
        dc2 = DataCenter(name="beta", seed=5)
        assert dc1.ca_public_key != dc2.ca_public_key
