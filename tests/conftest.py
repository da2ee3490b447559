import os
import sys

# One OpenBLAS thread for the whole session (numpy's copy and the one the
# oracle's scipy bundles), set before either loads, since OpenBLAS reads
# the count only then.  On a 2-vCPU host kept busy by another process, one
# oracle call took 1.2 s at the default two threads against 66 ms on one.
# pytest and hypothesis do not import numpy, so nothing has loaded it yet.
if "numpy" in sys.modules:
    raise RuntimeError("numpy was imported before tests/conftest.py could pin "
                       "OpenBLAS to one thread")
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np
import pytest
from hypothesis import settings, HealthCheck

from uavmec.model import Scenario
from uavmec.config import bundled_scenario
from uavmec.planner import straight_line_trajectory

settings.register_profile(
    "suite",
    derandomize=True,
    deadline=None,
    max_examples=40,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture(scope="session")
def table2() -> Scenario:
    """Bundled four-user reference mission."""
    return bundled_scenario("table2")


@pytest.fixture(scope="session")
def ref2x6() -> Scenario:
    """Small two-user, six-slot instance sized for the primal oracle.

    Both users are energy-bound on the straight path (no degenerate
    all-local optimum), with roughly 1.4x feasibility margin.
    """
    return Scenario(
        K=2, N=6, T=1.2, H=10.0,
        user_pos=[[0.0, 0.0], [4.0, 5.0]],
        R=[0.9e6, 0.7e6],
        P_u=8e4, eta=0.8, B=2e6, sigma2=1e-9, Gamma=1.0, beta0=1e-5,
        M=1e3, gamma_c=1e-28, W_mass=9.65, V_max=10.0,
        q0=[0.0, 0.0], qF=[6.0, 0.0],
    )


@pytest.fixture(scope="session")
def ref2x6_traj(ref2x6) -> np.ndarray:
    return straight_line_trajectory(ref2x6)
