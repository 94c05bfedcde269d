"""Secrecy and covertness planning for a two-user uplink to a patrolling UAV.

A secret user and a covert user share a NOMA uplink to a fixed-wing
relay while an adversary on the ground both eavesdrops and runs an
energy detector. The package evaluates the closed-form connection,
outage, and detection-error metrics, validates them against independent
Monte Carlo re-derivations, and jointly plans per-slot transmit powers
(exact bisection) and the flight path (successive convexification) under
the received-power coupling that keeps the covert user hidden.

The usual entry points:

* :mod:`covertuav.scenario`     load/validate scenario files
* :mod:`covertuav.secmetrics`   closed-form security metrics
* :mod:`covertuav.mc_oracle`    simulation cross-checks
* :mod:`covertuav.beamform`     per-slot power/beam decisions
* :mod:`covertuav.trajectory`   flight-path refinement
* :mod:`covertuav.orchestrator` the joint planner and its baselines
* :mod:`covertuav.cli`          command-line front end
"""

from .scenario import ScenarioConfig, bundled_scenario, load_scenario
from .orchestrator import run_bcd, run_h0_benchmark, run_sotfb, pareto_sweep

__version__ = "0.1.0"

__all__ = [
    "ScenarioConfig", "bundled_scenario", "load_scenario",
    "run_bcd", "run_h0_benchmark", "run_sotfb", "pareto_sweep",
    "__version__",
]
