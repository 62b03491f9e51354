"""The ``python -m repro`` command-line interface."""

import importlib.util
from pathlib import Path

import pytest

from repro.__main__ import main
from repro.crypto import libcrypto

REPO_ROOT = Path(__file__).resolve().parents[2]


class TestCli:
    def test_tables(self, capsys):
        assert main(["tables"]) == 0
        out = capsys.readouterr().out
        assert "Table I" in out and "Table II" in out and "TCB" in out

    def test_default_is_tables(self, capsys):
        assert main([]) == 0
        assert "Table I" in capsys.readouterr().out

    def test_unknown_command(self, capsys):
        assert main(["bogus"]) == 1
        assert "Subcommands" in capsys.readouterr().out


class TestFleetDispatchFlag:
    def test_fleet_apply_accepts_pipelined_dispatch(self, capsys):
        assert main(["fleet", "apply", "--dispatch", "pipelined"]) == 0
        out = capsys.readouterr().out
        assert "state intact" in out

    def test_fleet_rejects_unknown_dispatch(self, capsys):
        try:
            main(["fleet", "apply", "--dispatch", "warp"])
        except SystemExit as exc:
            assert exc.code != 0
        else:  # pragma: no cover - argparse always exits here
            raise AssertionError("argparse accepted an unknown dispatch mode")


class TestBenchProvenance:
    def test_bench_header_names_the_crypto_backend(self, capsys, pure_crypto):
        assert main(["bench", "--reps", "1"]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "crypto backend: pure"

    def test_fleet_report_identifies_the_measured_code(self):
        spec = importlib.util.spec_from_file_location(
            "bench_fleet", REPO_ROOT / "benchmarks" / "bench_fleet.py"
        )
        bench_fleet = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(bench_fleet)
        meta = bench_fleet._provenance()
        assert meta["crypto_backend"] == libcrypto.backend()
        assert len(meta["src_sha256"]) == 64
        assert meta["git_dirty"] in (True, False, None)
        assert meta["git_commit"]


class TestChaosCli:
    """``python -m repro.faults.chaos`` rejects malformed or inapplicable
    flag combinations with usage (exit 2) before any sweep starts."""

    @pytest.fixture(autouse=True)
    def no_sweeps(self, monkeypatch):
        from repro.faults import chaos

        def sweep_started(*args, **kwargs):
            raise AssertionError("a sweep started despite a usage error")

        for name in (
            "enumerate_scenarios",
            "enumerate_disk_scenarios",
            "enumerate_fleet_scenarios",
            "enumerate_clone_scenarios",
        ):
            monkeypatch.setattr(chaos, name, sweep_started)
        return chaos

    @pytest.mark.parametrize(
        "argv",
        [
            ["--disks"],
            ["--fleet", "--clone"],
            ["--batched", "--disk"],
            ["--smoke"],
            ["--batched", "--smoke"],
            ["--disk", "--session-resumption"],
            ["--fleet", "--session-resumption"],
            ["--clone", "--session-resumption"],
            ["not-a-seed"],
        ],
    )
    def test_usage_errors_exit_2(self, no_sweeps, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            no_sweeps.main(argv)
        assert exc.value.code == 2
        assert "usage:" in capsys.readouterr().err
