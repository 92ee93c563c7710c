"""Tests of the benchmark itself: tracer bookkeeping and workload coverage.

Run from the repository root:  python3 -m pytest perfbench/test_perfbench.py
A full run traces one pass of every workload twice, about two minutes on a
two-core machine.
"""

import json
import signal
import sys
import time

import numpy as np
import pytest

import run

sys.path.insert(0, str(run.SRC))

import hostspeed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from minflux import loops as lp  # noqa: E402
from minflux.errors import NotImmersion  # noqa: E402

# Spans each workload must fire, and layers it must leave alone; the
# second column is the "never touches" part of each workload's rationale.
EXPECTED = {
    "flux_isotopy": (
        ("nullquadric.pi1_class", "nullquadric.spinor_lift",
         "loops.period_continuation", "loops.flow_deform",
         "riemann.runge_extend", "riemann.lift_loop",
         "weierstrass.metric_density", "weierstrass.is_flat",
         "weierstrass.conformality_residual", "weierstrass.loop_period",
         "isotopy.drive", "isotopy.pin_extension", "isotopy.verify"),
        ("labyrinth.", "loops.make_zero_period_pair", "loops.transport_frame",
         "loops.newton_root", "sprays."),
    ),
    "labyrinth_step": (
        ("labyrinth.complete_step", "labyrinth.find_bands",
         "labyrinth.choose_params", "labyrinth.wall_mask",
         "labyrinth.graph_build", "labyrinth.distance", "labyrinth.csr_build",
         "labyrinth.dijkstra", "riemann.winding_number"),
        ("loops.", "riemann.runge_extend", "isotopy.", "sprays."),
    ),
    "pair_spray": (
        ("loops.make_zero_period_pair", "loops.transport_frame",
         "loops.newton_root", "sprays.build", "sprays.periods",
         "sprays.period_jacobian", "sprays.solve_w"),
        ("riemann.", "labyrinth.", "isotopy."),
    ),
    "cli_roundtrip": (
        ("cli.load_config", "cli.write_coefficients", "cli.load_family",
         "cli.write_trace_csv", "cli.surface_grid", "cli.write_obj",
         "weierstrass.integrate_immersion"),
        ("labyrinth.", "sprays."),
    ),
}


def _pass(name):
    wl = workloads.make(name, 1, run.WORKDIR / "test")
    failures = []
    tr, records, wall = run.traced_pass(wl, failures)
    assert not failures
    return tr, wall


@pytest.fixture(scope="module", params=sorted(EXPECTED))
def two_passes(request):
    name = request.param
    return name, _pass(name), _pass(name)


def test_every_span_has_an_expected_workload():
    fired = {s for spans, _ in EXPECTED.values() for s in spans}
    assert fired == set(tracer.SPAN_NAMES)


def test_tracer_closes_span_of_a_raising_call_and_restores_library():
    original = lp.make_zero_period_pair
    with tracer.Tracer() as tr:
        with pytest.raises(NotImmersion):
            lp.make_zero_period_pair(np.zeros((512, 3)))
    assert lp.make_zero_period_pair is original
    assert [s.name for s in tr.spans] == ["loops.make_zero_period_pair"]
    assert tr.open_spans() == []


def test_spans_closed_and_self_times_within_wall(two_passes):
    _, (tr, wall), _ = two_passes
    assert tr.spans and tr.open_spans() == []
    self_total = sum(s for _, s in tr.self_times().values())
    assert 0.0 < self_total <= wall


def test_declared_spans_fire_on_their_workload(two_passes):
    name, (tr, _), _ = two_passes
    calls = {k: c for k, (c, _) in tr.self_times().items()}
    must, never = EXPECTED[name]
    assert [s for s in must if calls[s] == 0] == []
    assert [s for s, c in calls.items() if c and s.startswith(never)] == []


def test_counters_repeat_exactly(two_passes):
    _, (a, _), (b, _) = two_passes

    def counts(tr):
        return {k: v for k, (v, u) in tr.layer_metrics().items() if u != "s"}

    assert counts(a) == counts(b)


def test_benchmark_json_names_what_the_runs_emit():
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
    assert set(run.WORKLOADS) == set(workloads.WORKLOADS)
    declared = [(m["name"], m["unit"]) for m in doc["per_layer"]]
    assert declared == tracer.metric_names() + [("trace.overhead_frac", "ratio")]
    assert [m["name"] for m in doc["end_to_end"]] == list(run.END_TO_END)


def test_probe_time_is_left_out_of_clock_and_timer_stopped():
    before = signal.getsignal(signal.SIGALRM)
    with hostspeed.Probe() as probe:
        net0, wall0 = hostspeed.clock(), time.perf_counter()
        while time.perf_counter() - wall0 < 0.5:
            pass
        net, wall = hostspeed.clock() - net0, time.perf_counter() - wall0
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(probe.samples) >= 3
    assert net < wall - 2 * min(dt for _, dt in probe.samples)
    assert probe.factor() > 0.0
    assert probe.local_factor(net0, net0 + net) > 0.0
