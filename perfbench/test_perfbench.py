"""Tests of the benchmark's tracing.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

import os

import pytest

import spans
import speedo
from spans import Tracer, layer_metric
from speedo import Speedometer
from workloads import Workload, run_pass, write_configs

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# small versions of the three workloads: both Lax-Oleinik families, the
# Hopf-Lax limit over graph and torus beta, and every cheap command
SMALL = Workload(
    {"single_loop": {"ladder": [1.0, 0.5], "tolerance": 1.0},
     "free_torus_1d": {"ladder": [1.0, 0.5], "tolerance": 1.0}},
    ("homogenize", "validate", "alpha", "beta"))


class FakeClock:
    """perf_counter stand-in that advances only when told to."""

    def __init__(self):
        self.now = 0.0

    def perf_counter(self):
        return self.now


def test_self_time_on_toy_nested_call(monkeypatch):
    clock = FakeClock()
    monkeypatch.setattr(spans, "time", clock)
    tracer = Tracer()

    def inner(dt):
        clock.now += dt

    def outer(depth):
        clock.now += 1.0
        traced_inner(2.0)
        traced_inner(3.0)
        if depth:
            traced_outer(depth - 1)
        clock.now += 0.5

    traced_inner = tracer.wrap("toy.inner", inner)
    traced_outer = tracer.wrap("toy.outer", outer)
    traced_outer(1)

    # two activations of outer, the second nested in the first
    assert layer_metric(tracer, "toy.outer.calls") == 2
    assert layer_metric(tracer, "toy.inner.calls") == 4
    assert layer_metric(tracer, "toy.inner.s") == 10.0
    # inclusive time counts the outermost activation only
    assert layer_metric(tracer, "toy.outer.s") == 13.0
    # self time is each activation minus its direct children, summed
    assert layer_metric(tracer, "toy.outer.self_s") == 3.0
    assert tracer.first_level_seconds() == 13.0
    assert tracer.child_calls("toy.outer", "toy.outer") == 1


def test_every_binding_is_wrapped_and_restored():
    import effham
    from effham import action, cli, homogenize, mather, topology
    import scipy.optimize

    bindings = [(action, "allocate_time"), (mather, "allocate_time"),
                (action, "minimal_action_graph"),
                (homogenize, "minimal_action_graph"),
                (homogenize, "hopf_lax"), (homogenize, "lax_oleinik"),
                (homogenize, "match_point"),
                (homogenize, "estimate_space_convergence"),
                (cli, "estimate_space_convergence"),
                (cli, "alpha_graph"), (homogenize, "alpha_graph"),
                (effham, "lax_oleinik"), (scipy.optimize, "minimize")]
    originals = [getattr(owner, name) for owner, name in bindings]
    tracer = Tracer()
    tracer.install()
    try:
        for (owner, name), original in zip(bindings, originals):
            assert getattr(owner, name) is not original, name
            assert getattr(owner, name).__wrapped__ is original, name
    finally:
        tracer.uninstall()
    for (owner, name), original in zip(bindings, originals):
        assert getattr(owner, name) is original, name


def test_traced_pass_is_bit_identical(tmp_path):
    configs = write_configs(ROOT, str(tmp_path), SMALL, seed=3)
    plain = run_pass(SMALL, configs, str(tmp_path / "plain"))
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_pass(SMALL, configs, str(tmp_path / "traced"))
    finally:
        tracer.uninstall()

    assert [c["exit"] for c in plain["commands"]] == [0] * 8
    assert [c["exit"] for c in traced["commands"]] == [0] * 8
    assert traced["outputs"] == plain["outputs"]
    assert traced["digests"] == plain["digests"]
    assert len(plain["digests"]) == 12

    # scipy calls are attributed to the calling module, by method
    for name in ("action.brentq", "action.lbfgsb", "action.neldermead",
                 "mather.linprog", "mather.slsqp"):
        assert layer_metric(tracer, name + ".calls") > 0, name
    assert layer_metric(tracer, "action.lbfgsb.nit") > 0
    assert layer_metric(tracer, "model.TrigPolynomial.value_many.rows") >= \
        layer_metric(tracer, "model.TrigPolynomial.value_many.calls")
    assert layer_metric(tracer, "action.lax.candidates") >= \
        layer_metric(tracer, "action.lax.evaluated") > 0
    assert 0.0 < layer_metric(tracer, "mather.beta_cache_hit_ratio") < 1.0
    assert layer_metric(tracer, "cli.run.calls") == 8
    assert tracer.first_level_seconds() <= traced["wall_s"]


def test_metrics_of_spans_never_entered():
    tracer = Tracer()
    assert layer_metric(tracer, "action.allocate_time.p50_us") == 0.0
    assert layer_metric(tracer, "action.lbfgsb.nit") == 0.0
    with pytest.raises(KeyError):
        layer_metric(tracer, "action.allocate_time.p75_us")
    with pytest.raises(KeyError):
        layer_metric(tracer, "action.lax_oleinik.p50_us")


def test_speedometer_window_arithmetic():
    meter = Speedometer()
    # ticks of 0.1 s handler time at full, half and full speed
    meter.ticks = [(1.0, 1.1, 1.0, 0.25), (2.0, 2.1, 2.0, 0.5),
                   (3.0, 3.1, 1.0, 0.25)]
    got = meter.window(0.5, 2.5)
    # the handler's time is taken out of the program's time
    assert got["program_s"] == pytest.approx(1.8)
    assert got["handler_cpu_s"] == 0.75
    # the stretch before each tick runs at that tick's speed; the tail at
    # the speed of the first tick after the window
    assert got["calibrated_s"] == pytest.approx(0.5 + 0.9 / 2 + 0.4)


def test_speedometer_ticks_and_stops():
    import numpy

    meter = Speedometer(period=0.005)
    meter.use_numpy(numpy)
    meter.start()
    try:
        start = speedo.time.perf_counter()
        while speedo.time.perf_counter() - start < 0.1:
            speedo.python_loop(50)
        end = speedo.time.perf_counter()
    finally:
        meter.stop()
    ticks = len(meter.ticks)
    assert ticks > 5
    got = meter.window(start, end)
    assert 0.0 < got["program_s"] < end - start
    assert got["calibrated_s"] > 0.0
    speedo.time.sleep(0.02)
    assert len(meter.ticks) == ticks
