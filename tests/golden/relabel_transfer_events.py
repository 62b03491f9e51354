"""Check (or redo) the one rewrite of the two fleet event-trace goldens.

When the scheduler stopped modelling links, network time began to replay
as pure latency.  The schedules themselves did not move: every ``transfer``
event of the old traces became a ``sleep`` with the same ``t``, ``process``
and ``seconds``, and every ``transfer_done`` event disappeared.  This
script applies exactly that mapping to the goldens as they were at a given
git revision and compares the result with the files in the working tree::

    python tests/golden/relabel_transfer_events.py <old-rev>          # check
    python tests/golden/relabel_transfer_events.py <old-rev> --write  # redo

Exit status 0 when every file matches, 1 otherwise.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

GOLDEN_DIR = Path(__file__).resolve().parent
TRACES = ("fleet_concurrent_trace_seed0.json", "fleet_pipelined_trace_seed0.json")


def relabel(events: list[dict]) -> list[dict]:
    """``transfer`` -> ``sleep`` (same t/process/seconds); drop ``transfer_done``."""
    out = []
    for event in events:
        if event["event"] == "transfer_done":
            continue
        if event["event"] == "transfer":
            event = {
                "t": event["t"],
                "event": "sleep",
                "process": event["process"],
                "seconds": event["seconds"],
            }
        out.append(event)
    return out


def dump(events: list[dict]) -> str:
    return json.dumps(events, indent=1) + "\n"


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2) or argv[1:] not in ([], ["--write"]):
        print(__doc__, file=sys.stderr)
        return 2
    rev, write = argv[0], argv[1:] == ["--write"]
    root = GOLDEN_DIR.parent.parent
    status = 0
    for name in TRACES:
        path = GOLDEN_DIR / name
        old = json.loads(
            subprocess.run(
                ["git", "show", f"{rev}:{path.relative_to(root).as_posix()}"],
                cwd=root, check=True, capture_output=True, text=True,
            ).stdout
        )
        expected = dump(relabel(old))
        renamed = sum(1 for event in old if event["event"] == "transfer")
        dropped = sum(1 for event in old if event["event"] == "transfer_done")
        if write:
            path.write_text(expected)
            verdict = "written"
        elif path.read_text() == expected:
            verdict = "matches"
        else:
            verdict = "DIFFERS"
            status = 1
        print(f"{name}: {renamed} transfer -> sleep, {dropped} transfer_done dropped: {verdict}")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
