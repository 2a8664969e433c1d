"""The benchmark's workloads: sweep grids built only from the public API.

Each workload is a list of :class:`~repro.experiments.sweep.SweepGrid` that
one *pass* sweeps in order.  The grids depend on nothing but the workload
name; the seed enters as the sweeps' ``base_seed``, so the same seed gives
the same cells and the same simulated statistics.  Every grid uses the
default engine and the default drop-tail qdisc.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from repro.experiments.sweep import SweepGrid


def _pcc_bulk() -> List[SweepGrid]:
    return [SweepGrid(
        schemes=("pcc",),
        bandwidths_bps=(20e6, 100e6),
        rtts=(0.03, 0.1),
        loss_rates=(0.0, 0.02),
        flow_counts=(1, 2),
        duration=1.5,
    )]


def _sweep_overhead() -> List[SweepGrid]:
    # One grid per scheme and bandwidth, so that each sweep, warm re-sweep
    # and to_json is a part of some 10-50 ms that fastest_parts can time.
    return [
        SweepGrid(
            schemes=(scheme,),
            bandwidths_bps=(bandwidth,),
            rtts=(0.01, 0.02, 0.03, 0.05, 0.1),
            loss_rates=(0.0, 0.001, 0.01, 0.02),
            flow_counts=(1, 2, 3, 4, 5),
            duration=0.02,
        )
        for scheme in ("pcc", "cubic", "newreno", "vegas", "bic")
        for bandwidth in (10e6, 20e6, 50e6, 100e6)
    ]


#: Workload name -> grid builder, in the order ``BENCHMARK.json`` lists them.
WORKLOADS: Dict[str, Callable[[], List[SweepGrid]]] = {
    "pcc_bulk": _pcc_bulk,
    "sweep_overhead": _sweep_overhead,
}

#: Base seeds one pass sweeps every grid at: ``--seed`` and seeds derived
#: from it.  How much traffic ``pcc_bulk`` carries swings with the seed
#: (a lossy 100 Mbps PCC cell runs at full rate or collapses, and two PCC
#: flows share a link differently), so its pass averages two seeds.
SEEDS_PER_PASS: Dict[str, int] = {
    "pcc_bulk": 2,
    "sweep_overhead": 1,
}

#: Host seconds of one untraced pass of each workload, typical of a
#: 2-core x86-64 VM on a shared host (Python 3.11).  A run makes
#: ``seconds / PASS_SECONDS`` passes, so its work is fixed by ``--seconds``
#: alone and is the same for every commit compared, however fast each one
#: runs.
PASS_SECONDS: Dict[str, float] = {
    "pcc_bulk": 2.0,
    "sweep_overhead": 1.25,
}
