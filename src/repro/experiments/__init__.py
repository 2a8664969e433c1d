"""Experiment scenarios, the runner, and the figure/table registry."""

from .runner import FlowResult, ScenarioResult, available_schemes, run_flows
from .scenarios import (
    ScenarioOutcome,
    aqm_power_scenario,
    convergence_scenario,
    dynamic_network_scenario,
    extreme_loss_scenario,
    fairness_index_over_timescales,
    friendliness_scenario,
    lossy_link_scenario,
    parking_lot_scenario,
    rtt_unfairness_scenario,
    satellite_scenario,
    shallow_buffer_scenario,
    short_flow_scenario,
    tradeoff_scenario,
    utility_ablation_scenario,
    variable_bandwidth_scenario,
)
from .internet import (
    InternetPathConfig,
    improvement_ratios,
    ratio_cdf,
    run_path,
    sample_paths,
)
from .interdc import PAPER_PAIRS, InterDCPair, run_pair, run_table
from .incast import run_incast
from .registry import EXPERIMENTS, Experiment, get_experiment, list_experiments
from .results import ResultSet, ResultSetWriter, cell_identity_key
from .store import CellStore, store_key
from .executors import (
    DEFAULT_EXECUTOR,
    executor_names,
    get_executor,
    register_executor,
)
from .workload import (
    DEFAULT_WORKLOAD,
    build_workload,
    register_workload,
    resolve_workload_kwargs,
    workload_names,
)

#: Lazily re-exported from :mod:`.sweep` (PEP 562) so that running the sweep
#: CLI as ``python -m repro.experiments.sweep`` does not import the module
#: twice (once here, once as ``__main__``), which would trigger a runpy
#: warning and duplicate its module-level state.  The ``sweep()`` *function*
#: is deliberately not re-exported at package level — ``repro.experiments.sweep``
#: names the submodule (like ``os.path``); import the function from it:
#: ``from repro.experiments.sweep import sweep``.
_SWEEP_EXPORTS = (
    "SweepCell",
    "SweepGrid",
    "derive_seed",
    "register_scheme_variant",
    "register_topology",
    "resolve_scheme_spec",
    "resolve_topology_kwargs",
    "scheme_variant_names",
    "topology_names",
)


def __getattr__(name):
    """Resolve the lazily re-exported sweep names (PEP 562)."""
    if name == "sweep" or name in _SWEEP_EXPORTS:
        import importlib

        module = importlib.import_module(".sweep", __name__)
        # "sweep" resolves to the submodule itself (like os.path) even when it
        # is the first attribute touched; importlib only sets the submodule
        # attribute as a side effect of the first import.
        return module if name == "sweep" else getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "FlowResult",
    "ScenarioResult",
    "available_schemes",
    "run_flows",
    "ScenarioOutcome",
    "aqm_power_scenario",
    "convergence_scenario",
    "dynamic_network_scenario",
    "extreme_loss_scenario",
    "fairness_index_over_timescales",
    "friendliness_scenario",
    "lossy_link_scenario",
    "parking_lot_scenario",
    "rtt_unfairness_scenario",
    "satellite_scenario",
    "shallow_buffer_scenario",
    "short_flow_scenario",
    "tradeoff_scenario",
    "utility_ablation_scenario",
    "variable_bandwidth_scenario",
    "InternetPathConfig",
    "improvement_ratios",
    "ratio_cdf",
    "run_path",
    "sample_paths",
    "PAPER_PAIRS",
    "InterDCPair",
    "run_pair",
    "run_table",
    "run_incast",
    "EXPERIMENTS",
    "Experiment",
    "get_experiment",
    "list_experiments",
    "ResultSet",
    "ResultSetWriter",
    "cell_identity_key",
    "CellStore",
    "store_key",
    "DEFAULT_EXECUTOR",
    "executor_names",
    "get_executor",
    "register_executor",
    "DEFAULT_WORKLOAD",
    "build_workload",
    "register_workload",
    "resolve_workload_kwargs",
    "workload_names",
    "SweepCell",
    "SweepGrid",
    "derive_seed",
    "register_scheme_variant",
    "register_topology",
    "resolve_scheme_spec",
    "resolve_topology_kwargs",
    "scheme_variant_names",
    "topology_names",
]
