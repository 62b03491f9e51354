"""The repository benchmark: end-to-end and per-layer figures of ``repro``.

Run from the repository root::

    python3 perfbench/run.py --workload migrate_serial --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all            # every workload, both runs

``BENCHMARK.json`` at the root names the workloads (with the reason each
was chosen) and the metrics with their units.  Each workload runs in a fresh
interpreter (``workloads.py``) so process-global caches and peak RSS start
the same on every commit.

* ``--trace 0`` measures the end-to-end metrics with tracing off.
* ``--trace 1`` runs the workload's deterministic block twice, untraced and
  then traced, and reports the per-layer ledger derived from the spans plus
  the tracing overhead (traced wall / untraced wall over the same ops).

The report and the provenance (commit measured, dirty flag, source hash,
CPU count, Python version) go to stdout and to ``perfbench/results/``; the
last stdout line is the JSON summary.  A wrong output from the program makes
the run fail with exit code 1; a checkout without ``src/repro`` makes it
fail with exit code 2 before anything runs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
#: Upper bound on one workload process, well inside the 180 s run limit.
CHILD_TIMEOUT_S = 170
#: End-to-end figures printed in the report but left out of
#: ``BENCHMARK.json``: the wall p50 swings with the host's CPU-speed phases
#: more than any allowed bound (see README), and a passing run's failed
#: fraction is always 0.
UNBOUNDED_UNITS = {"op_wall_p50_ms": "ms"}


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _git(*args: str) -> str | None:
    try:
        done = subprocess.run(
            ["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout if done.returncode == 0 else None


def provenance() -> dict:
    """What was measured: the commit (when the checkout is a git work tree),
    a hash of the ``src/`` tree (always), and the machine."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    commit = _git("rev-parse", "HEAD") if (ROOT / ".git").exists() else None
    status = _git("status", "--porcelain", "--untracked-files=no") if commit else None
    return {
        "git_commit": commit.strip() if commit else None,
        "git_dirty": bool(status.strip()) if status is not None else None,
        "src_sha256": digest.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def run_child(workload: str, seed: int, seconds: int, mode: str, spans: Path | None = None) -> dict:
    """One workload in a fresh interpreter; returns its JSON result."""
    command = [
        sys.executable, "-B", str(HERE / "workloads.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--mode", mode,
    ]
    if spans is not None:
        command += ["--spans", str(spans)]
    done = subprocess.run(
        command, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S
    )
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"{workload} ({mode}) exited {done.returncode} without a result")
    result = json.loads(lines[-1])
    if done.returncode != (0 if result["correct"] else 1):
        raise SystemExit(f"{workload} ({mode}) exited {done.returncode}")
    return result


def percentile(samples: list[float], q: int) -> float:
    """The ``q``-th percentile (exclusive method, as ``statistics.quantiles``)."""
    return statistics.quantiles(samples, n=100)[q - 1]


def end_to_end(result: dict) -> tuple[dict, dict]:
    """End-to-end metrics of an untraced ``measure`` run, plus sample counts."""
    walls, latencies = result["op_walls"], result["latency_walls"]
    values = {
        "setup_s": statistics.median(result["setup_s"]),
        "ops_per_wall_s": result["ops"] / sum(walls),
        "op_wall_p50_ms": 1e3 * statistics.median(latencies),
        "op_wall_p90_ms": 1e3 * percentile(latencies, 90),
        "virtual_op_p50_s": statistics.median(result["virtual_op_s"]),
        "virtual_makespan_s": result["virtual_makespan_s"],
        "peak_rss_mb": result["peak_rss_mb"],
    }
    samples = {
        "setup_s": len(result["setup_s"]),
        "ops_per_wall_s": result["ops"],
        "op_wall_p50_ms": len(latencies),
        "op_wall_p90_ms": len(latencies),
        "virtual_op_p50_s": len(result["virtual_op_s"]),
    }
    return values, samples


def run_workload(spec: dict, workload: dict, seed: int, seconds: int, trace: int) -> dict:
    name = workload["name"]
    RESULTS.mkdir(exist_ok=True)
    if trace:
        reference = run_child(name, seed, seconds, "block")
        spans = RESULTS / f"{name}-seed{seed}.spans.json"
        result = run_child(name, seed, seconds, "traced", spans)
        if result["correct"] and reference["correct"]:
            values = dict(result["layers"])
            values["harness.trace_overhead_ratio"] = (
                result["block_wall_s"] / reference["block_wall_s"]
            )
        declared = spec["per_layer"]
        samples: dict = {}
    else:
        reference = result = run_child(name, seed, seconds, "measure")
        if result["correct"]:
            values, samples = end_to_end(result)
        declared = spec["end_to_end"]
    correct = result["correct"] and reference["correct"]
    metrics = (
        {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
        if correct
        else {}
    )
    unbounded = (
        {name: {"value": values[name], "unit": unit} for name, unit in UNBOUNDED_UNITS.items()}
        if correct and not trace
        else {}
    )
    return {
        "workload": name,
        "why": workload["why"],
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "correct": correct,
        "errors": result["errors"] + reference["errors"],
        # A run that produced a wrong output reports no ops: count it as one
        # failed op.
        "attempted": result["attempted"] if correct else 1,
        "failed": result["failed"] if correct else 1,
        "metrics": metrics,
        "unbounded": unbounded,
        "samples": samples,
    }


def print_report(report: dict) -> None:
    print(f"== {report['workload']} (seed {report['seed']}, {report['seconds']} s, trace {report['trace']})")
    print(f"   why: {report['why']}")
    for error in report["errors"]:
        print(f"   WRONG OUTPUT: {error}")
    for name, metric in {**report["metrics"], **report["unbounded"]}.items():
        count = report["samples"].get(name)
        suffix = f"   (n={count})" if count is not None else ""
        value = metric["value"]
        shown = f"{value:>16d}" if isinstance(value, int) else f"{value:>16.6f}"
        print(f"   {name:34s} {shown} {metric['unit']}{suffix}")
    failed_fraction = report["failed"] / report["attempted"]
    print(f"   {'failed_fraction':34s} {failed_fraction:>16.6f} ({report['failed']}/{report['attempted']} ops)")


def main(argv: list[str] | None = None) -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no repro sources under {ROOT / 'src'}: nothing to benchmark", file=sys.stderr)
        return 2
    spec = load_spec()
    workloads = {w["name"]: w for w in spec["workloads"]}
    parser = argparse.ArgumentParser(description="Run one benchmark workload (or all).")
    parser.add_argument("--workload", required=True, choices=[*workloads, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end run, 1: traced per-layer run (default for 'all': both)")
    args = parser.parse_args(argv)

    names = list(workloads) if args.workload == "all" else [args.workload]
    traces = [args.trace] if args.trace is not None else ([0, 1] if args.workload == "all" else [0])
    origin = provenance()
    print(f"provenance: {json.dumps(origin, sort_keys=True)}")
    reports = []
    for name in names:
        for trace in traces:
            report = run_workload(spec, workloads[name], args.seed, args.seconds, trace)
            report["provenance"] = origin
            print_report(report)
            out = RESULTS / f"{name}-seed{args.seed}-trace{trace}.json"
            out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8")
            reports.append(report)

    correct = all(r["correct"] for r in reports)
    if len(reports) == 1:
        metrics = reports[0]["metrics"]
    else:
        metrics = {
            f"{r['workload']}.{name}": metric
            for r in reports for name, metric in r["metrics"].items()
        }
    summary = {
        "correct": correct,
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
