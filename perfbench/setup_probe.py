"""Set-up probe: one fresh process that stops as its first cell starts.

Usage: ``python perfbench/setup_probe.py WORKLOAD SEED WORK_DIR``

The probe imports ``repro``, builds and validates the workload's grids,
opens a fresh cell store in ``WORK_DIR`` and calls ``sweep()`` on the first
grid with a JSONL stream, as a measured pass does.  Its
``run_cell`` is replaced by a stop that prints ``time.perf_counter()`` —
the moment the first cell would start.  The parent reads its own
``perf_counter`` before spawning the probe; both read the system-wide
monotonic clock, so the difference is the set-up time from process start.
"""

from __future__ import annotations

import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


class FirstCellStarted(Exception):
    """Raised by the stand-in ``run_cell``; carries the clock reading."""


def _stop_at_first_cell(cell: object) -> None:
    raise FirstCellStarted(time.perf_counter())


def main(argv: list[str]) -> int:
    workload, seed, work_dir = argv[0], int(argv[1]), argv[2]
    sys.path.insert(0, SRC)
    import repro.experiments.sweep as sweep_module
    from repro.experiments import CellStore
    from workloads import WORKLOADS

    grids = WORKLOADS[workload]()
    sweep_module.run_cell = _stop_at_first_cell
    with CellStore(os.path.join(work_dir, "store")) as store:
        try:
            sweep_module.sweep(grids[0], base_seed=seed, store=store,
                               jsonl_path=os.path.join(work_dir, "grid0.jsonl"))
        except FirstCellStarted as started:
            print(repr(started.args[0]))
            return 0
    print("setup_probe: sweep() finished without starting a cell through "
          "repro.experiments.sweep.run_cell", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
