"""The ``python -m repro`` command-line interface."""

import importlib.util
from pathlib import Path

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
