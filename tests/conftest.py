import math

import numpy as np
import pytest
from hypothesis import HealthCheck, settings
from scipy import optimize

from effham.model import GraphLagrangian, TorusHamiltonian, TrigPolynomial
from effham.topology import GraphCover, MetricGraph, TorusCover

settings.register_profile(
    "effham",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("effham")


def allocate_time_oracle(segments, total_time: float, rest: float) -> float:
    """Scalar reference for ``action.allocate_time``: the shared-energy
    cost of (length, potential) runs, by a bracketed ``brentq`` root of
    travel time = horizon in the energy offset s = E + min V.

    Resting at a rate below every run pins s at the gap when the runs
    then fit into the horizon; runs up to 1e-140 long count as absent.
    """
    runs = [(float(l), float(v)) for l, v in segments if l > 1e-140]
    if not runs:
        return rest * total_time
    v_floor = min(v for _, v in runs)
    v_rest = min(rest, v_floor)

    def travel_time(s):
        return sum(l / math.sqrt(2.0 * (v - v_floor + s)) for l, v in runs)

    def travel_cost(s):
        return sum(l * (2.0 * v - v_floor + s) / math.sqrt(2.0 * (v - v_floor + s))
                   for l, v in runs)

    s_rest = v_floor - v_rest
    if s_rest > 0.0 and travel_time(s_rest) <= total_time:
        return travel_cost(s_rest) + (total_time - travel_time(s_rest)) * v_rest
    lo = 1.0
    while travel_time(lo) < total_time:
        lo /= 16.0
    hi = max(2.0 * lo, 1.0)
    while travel_time(hi) > total_time:
        hi *= 2.0
    # the root can sit within an ulp of 0, so convergence is relative
    s_star = optimize.brentq(lambda s: travel_time(s) - total_time, lo, hi,
                             xtol=1e-300, rtol=8.9e-16, maxiter=2000)
    return travel_cost(s_star)


def single_loop(length: float = 1.0) -> MetricGraph:
    return MetricGraph(1, [(0, 0, length)])


def figure_eight(len_a: float = 1.0, len_b: float = 1.0) -> MetricGraph:
    return MetricGraph(1, [(0, 0, len_a), (0, 0, len_b)])


def make_pendulum() -> TorusHamiltonian:
    return TorusHamiltonian.mechanical(TrigPolynomial(1, [([1], 1.0, 0.0)]))


@pytest.fixture(scope="session")
def free1() -> TorusHamiltonian:
    return TorusHamiltonian.mechanical(TrigPolynomial.constant(1, 0.0))


@pytest.fixture(scope="session")
def free2() -> TorusHamiltonian:
    return TorusHamiltonian.mechanical(TrigPolynomial.constant(2, 0.0))


@pytest.fixture(scope="session")
def pendulum() -> TorusHamiltonian:
    return make_pendulum()


@pytest.fixture(scope="session")
def circle() -> TorusCover:
    return TorusCover(1)


@pytest.fixture(scope="session")
def torus2() -> TorusCover:
    return TorusCover(2)


@pytest.fixture(scope="session")
def loop2() -> MetricGraph:
    return single_loop(2.0)


@pytest.fixture(scope="session")
def loop2_cover(loop2) -> GraphCover:
    return GraphCover(loop2)


@pytest.fixture(scope="session")
def loop2_lag(loop2) -> GraphLagrangian:
    return GraphLagrangian(loop2, [0.5])


@pytest.fixture(scope="session")
def loop2_free(loop2) -> GraphLagrangian:
    return GraphLagrangian(loop2, [0.0])


@pytest.fixture(scope="session")
def fig8() -> MetricGraph:
    return figure_eight(1.0, 1.0)


@pytest.fixture(scope="session")
def fig8_cover(fig8) -> GraphCover:
    return GraphCover(fig8)


@pytest.fixture(scope="session")
def fig8_lag(fig8) -> GraphLagrangian:
    return GraphLagrangian(fig8, [0.3, -0.2])


@pytest.fixture(scope="session")
def fig8_free(fig8) -> GraphLagrangian:
    return GraphLagrangian(fig8, [0.0, 0.0])
