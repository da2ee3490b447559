"""Energy-minimal planning for a UAV-carried wireless-powered edge server.

A Lagrangian-dual solver finds the offloading / CPU-frequency schedule at
a fixed flight path, and the planner moves the path by speed-capped joint
steps (Newton steps, or convex QCQPs handled by an interior-point solver
when a speed cap binds).  The paper's sequential convex path refinement
(``assemble_p4``, ``solve_p3``) ships as library code the planner does not
call, and two fixed benchmark paths (straight dash and semicircle) are
included for comparison.
"""

from .model import (
    Scenario,
    Plan,
    EnergyLedger,
    ConstraintReport,
    ScenarioError,
    DimensionError,
    OffloadRangeError,
    evaluate_ledger,
    check_constraints,
)
from .errors import SolverError
from .qcqp import QcqpProblem, QcqpSolution, solve as qcqp_solve, phase1, kkt_residuals
from .offload_solver import (
    DualState,
    OffloadSolution,
    solve_p2,
    probe_feasibility,
)
from .trajectory_solver import ScaState, assemble_p4, solve_p3
from .planner import (
    PlannerResult,
    SweepCell,
    straight_line_trajectory,
    semicircle_trajectory,
    run_algorithm1,
    run_baseline,
    sweep_T,
)
from .config import load_scenario, parse_scenario_text, write_scenario, bundled_scenario

__version__ = "0.1.0"
