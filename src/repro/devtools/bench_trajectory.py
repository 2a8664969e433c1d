"""Maintain a multi-run benchmark trajectory file (``BENCH_trajectory.json``).

:mod:`repro.devtools.bench_delta` compares exactly two reports — this run
against the previous one.  This tool keeps the longer view: every CI run
appends its ``BENCH_report.json`` means (plus each benchmark's ``extra_info``,
where a benchmark can record counters beyond wall time, such as event counts)
to a rolling trajectory file that is re-uploaded as an artifact.  Slow drifts
that never trip the pairwise delta threshold are visible as a series instead
of an anecdote.

The trajectory is identified by commit, not by wall-clock time: CI passes
``--commit $GITHUB_SHA``, so the file stays a pure function of its inputs and
two appends of the same report under the same commit are idempotent.

Usage::

    python -m repro.devtools.bench_trajectory append \\
        BENCH_trajectory.json BENCH_report.json --commit abc1234
    python -m repro.devtools.bench_trajectory show BENCH_trajectory.json
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from .bench_delta import load_means

__all__ = ["load_extra_info", "append_run", "format_trajectory", "main"]

#: Rolling window: the trajectory keeps at most this many most-recent runs,
#: so the artifact stays small no matter how long the repo lives.
MAX_RUNS = 200


def load_extra_info(path: Path) -> Dict[str, Dict[str, Any]]:
    """Map benchmark fullname -> its ``extra_info`` dict from a report file.

    Benchmarks without ``extra_info`` are omitted.
    """
    data = json.loads(path.read_text())
    out: Dict[str, Dict[str, Any]] = {}
    for bench in data.get("benchmarks", []):
        name = bench.get("fullname") or bench.get("name")
        extra = bench.get("extra_info")
        if name and isinstance(extra, dict) and extra:
            out[str(name)] = extra
    return out


def _load_trajectory(path: Path) -> Dict[str, Any]:
    """Read an existing trajectory file, or start an empty one."""
    if not path.exists():
        return {"runs": []}
    data = json.loads(path.read_text())
    if not isinstance(data, dict) or not isinstance(data.get("runs"), list):
        raise ValueError(f"{path} is not a trajectory file (expected a "
                         f"top-level object with a 'runs' list)")
    return data


def append_run(trajectory_path: Path, report_path: Path,
               commit: str) -> Dict[str, Any]:
    """Append ``report_path``'s numbers to the trajectory; return the file.

    Re-appending the same commit replaces its entry (CI retries stay
    idempotent); the window is trimmed to the most recent :data:`MAX_RUNS`.
    """
    trajectory = _load_trajectory(trajectory_path)
    run = {
        "commit": commit,
        "means_s": load_means(report_path),
        "extra_info": load_extra_info(report_path),
    }
    runs: List[Dict[str, Any]] = [
        existing for existing in trajectory["runs"]
        if existing.get("commit") != commit
    ]
    runs.append(run)
    trajectory["runs"] = runs[-MAX_RUNS:]
    trajectory_path.write_text(
        json.dumps(trajectory, indent=2, sort_keys=True) + "\n")
    return trajectory


def format_trajectory(trajectory: Dict[str, Any],
                      last: int = 10) -> str:
    """Render each benchmark's mean wall time across the last ``last`` runs."""
    runs = trajectory["runs"][-last:]
    if not runs:
        return "empty trajectory"
    names = sorted({name for run in runs for name in run["means_s"]})
    lines = [f"trajectory over {len(runs)} run(s), oldest first:"]
    for name in names:
        series = []
        for run in runs:
            mean = run["means_s"].get(name)
            series.append(f"{mean:.3f}" if mean is not None else "-")
        lines.append(f"{name[:60]:60s} {' '.join(f'{v:>9s}' for v in series)}")
    lines.append("commits: " +
                 " ".join(str(run.get("commit", "?"))[:9] for run in runs))
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code (2 = unreadable input)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.devtools.bench_trajectory",
        description="Append pytest-benchmark reports to a rolling multi-run "
                    "trajectory file and render it.")
    sub = parser.add_subparsers(dest="command", required=True)
    append_parser = sub.add_parser(
        "append", help="append one BENCH_report.json to the trajectory")
    append_parser.add_argument("trajectory", type=Path,
                               help="BENCH_trajectory.json (created if "
                                    "missing)")
    append_parser.add_argument("report", type=Path,
                               help="BENCH_report.json from this run")
    append_parser.add_argument("--commit", required=True,
                               help="commit SHA identifying this run "
                                    "(re-appending a commit replaces its "
                                    "entry)")
    show_parser = sub.add_parser(
        "show", help="print each benchmark's mean wall time across runs")
    show_parser.add_argument("trajectory", type=Path)
    show_parser.add_argument("--last", type=int, default=10,
                             help="how many most-recent runs to show "
                                  "(default: 10)")
    args = parser.parse_args(argv)

    try:
        if args.command == "append":
            trajectory = append_run(args.trajectory, args.report, args.commit)
            print(f"appended {args.commit[:9]} to {args.trajectory} "
                  f"({len(trajectory['runs'])} run(s))")
        else:
            print(format_trajectory(_load_trajectory(args.trajectory),
                                    last=args.last))
    except (OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"bench_trajectory: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
