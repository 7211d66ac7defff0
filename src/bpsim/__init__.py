"""Backpressure scheduling with distributed CDMA power control.

Library plus CLI for simulating maximum-differential-backlog control of
multi-hop wireless networks: scaled gradient-projection power control,
slotted multi-commodity queueing, and numerical stability diagnostics.
"""

from .errors import ConfigError, NumericDomainError
from .model import (Commodity, NetworkModel, Scenario, TrafficSpec,
                    generate_scenario, load_scenario, save_scenario,
                    scenario_from_json, scenario_to_json, validate_model,
                    validate_scenario)
from .phy import (LinkMetrics, PowerState, alloc_marginal_gain,
                  link_metrics, objective_value, power_marginal_gain,
                  random_power_state, shannon_capacity, uniform_power_state)
from .policy import (BacklogWeights, RateAssignment, compute_weights,
                     make_scheme, rates_from_power, SCHEME_NAMES)
from .sim import (SimConfig, SimTrace, average_runs, default_sim_config,
                  run_simulation, step_queues, trace_to_csv, virtual_rates)
from .solver import (KKTReport, SolveDiagnostics, SolverConfig,
                     exchange_messages, kkt_check, project_simplex,
                     solve_max_weight)
from .stability import (RateRegionOracle, check_drift_condition,
                        estimate_epsilon, halfspace_margin)

__version__ = "0.1.0"
