"""Tests of the benchmark itself: span nesting and self time, restoring the
wrapped functions, and emission of every metric BENCHMARK.json names.

The metric tests shrink every workload (fewer episodes, shorter horizons) so
a full traced run takes seconds; gates may fail at those sizes, which is
fine here because only the metric names are checked.
"""
import json
from importlib import import_module
from pathlib import Path

import pytest

import layers
import measure
import workloads
from tracer import END, NAME, PARENT, START, Tracer, self_times

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())

SMALL = {
    "mw_N2": dict(episodes=5, horizon=50),
    "mw_N5": dict(episodes=5, horizon=50),
    "nash_selfplay": dict(episodes=50, horizon=50),
    "si_selfplay": dict(episodes=50, horizon=100),
    "si_consistency": dict(episodes=8, horizon=100),
    "auth_failure": dict(episodes=1000),
    "mixture_check": dict(episodes=12),
    "flatten_h7": dict(extra={"flatten_horizon": 3}),
    "ic_eval": dict(extra={"K_values": [20, 50], "eval_episodes": 10}),
}


@pytest.fixture
def small(monkeypatch):
    for name, change in SMALL.items():
        monkeypatch.setitem(workloads.ACCEPTANCE, name, {**workloads.ACCEPTANCE[name], **change})
    monkeypatch.setattr(workloads, "NASH_GAMES_PER_SIZE", 1)
    monkeypatch.setattr(layers, "PAIR_EPISODES", 1)
    monkeypatch.setattr(layers, "IC_PAIR_EPISODES", 2)
    monkeypatch.setattr(measure, "SETUP_PROBES", 1)


def _bindings():
    for target in layers.TARGETS:
        for binding in target.bindings:
            module_name, attr = binding.rsplit(".", 1)
            yield binding, import_module(module_name), attr


def test_wrappers_are_installed_and_restored_even_after_an_error():
    originals = {b: getattr(m, a) for b, m, a in _bindings()}
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed(layers.TARGETS):
            for binding, module, attr in _bindings():
                assert getattr(module, attr) is not originals[binding]
                assert getattr(module, attr).__wrapped__ is originals[binding]
            raise RuntimeError("stop inside the traced block")
    for binding, module, attr in _bindings():
        assert getattr(module, attr) is originals[binding], binding
    assert not tracer.active


def test_spans_nest_and_self_time_never_exceeds_duration():
    from cooplab import population
    from cooplab.agents import AgentSpec
    from cooplab.harness import fixture_type_space

    ts = fixture_type_space("typespace_4.json")
    tracer = Tracer()
    with tracer.installed(layers.TARGETS):
        with tracer.span("bench.outer"):
            for seed in range(3):
                population.run_episode(AgentSpec("MW"), AgentSpec("BestResponder"), ts,
                                       ("alpha", "beta"), 20, seed)
    spans = tracer.spans
    names = {rec[NAME] for rec in spans}
    assert {"bench.outer", "population.run_episode", "agents.build_agent",
            "population.play_episode", "game_core.EpisodeTrace"} <= names
    for rec in spans:
        assert rec[START] <= rec[END]
        if rec[PARENT] >= 0:
            parent = spans[rec[PARENT]]
            assert parent[START] <= rec[START] and rec[END] <= parent[END]
    for rec, own in zip(spans, self_times(spans)):
        assert 0.0 <= own <= rec[END] - rec[START]
    # play_episode runs inside run_episode, which runs inside the outer span.
    play = next(rec for rec in spans if rec[NAME] == "population.play_episode")
    assert spans[play[PARENT]][NAME] == "population.run_episode"


def test_untraced_run_emits_every_end_to_end_metric(small):
    out = measure.untraced_run("exact-tree", 0, seconds=0.01)
    named = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: unit for k, (_, unit) in out["metrics"].items()} == named
    assert all(value > 0 for value, _ in out["metrics"].values())
    assert out["failed"] == 0 and out["attempted"] >= len(workloads.build("exact-tree", 0).ops)


def test_traced_run_emits_every_per_layer_metric(small, tmp_path):
    out = layers.traced_run("vectorized", 0, tmp_path / "spans.jsonl.gz")
    named = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: unit for k, (_, unit) in out["metrics"].items()} == named
    assert (tmp_path / "spans.jsonl.gz").stat().st_size > 0
    metrics = {k: v for k, (v, _) in out["metrics"].items()}
    assert metrics["population.play_episode.calls"] > 0
    assert metrics["game_core.history_distribution.act_calls_per_node"] > 0
    for name in layers.TARGETS:
        module_name, attr = name.bindings[0].rsplit(".", 1)
        assert not hasattr(getattr(import_module(module_name), attr), "__wrapped__")


def test_a_changed_digest_counts_as_a_failed_operation():
    first = measure.Pass(1.0, {"op": (1.0, workloads.Checked([], "aaa", 1))})
    second = measure.Pass(1.0, {"op": (1.0, workloads.Checked([], "bbb", 1))})
    failed, findings = measure.judge([first, second])
    assert failed == 1 and "digest" in findings[0]


def test_workload_seed_zero_is_the_acceptance_seeds():
    fixtures = workloads.load_fixtures()
    for name, kw in workloads.ACCEPTANCE.items():
        assert workloads.config(name, 0, fixtures).seed == kw["seed"]
        assert workloads.config(name, 3, fixtures).seed == kw["seed"] + 3 * workloads.SEED_STRIDE
    assert workloads.nash_games(5)[2][0].payoff_row.tolist() == \
        workloads.nash_games(5)[2][0].payoff_row.tolist()


def test_sampler_restores_the_alarm_handler_and_timer():
    import signal

    import hostspeed

    def previous(signum, frame):
        pass

    old = signal.signal(signal.SIGALRM, previous)
    try:
        sampler = hostspeed.Sampler()
        with sampler.sampling():
            mark = sampler.mark()
            hostspeed._spin(200_000)
            samples, handler_s = sampler.since(mark)
        assert samples and all(s > 0 for s in samples)
        assert 0.0 < handler_s
        assert signal.getsignal(signal.SIGALRM) is previous
        assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    finally:
        signal.signal(signal.SIGALRM, old)


def test_reference_speed_scales_by_the_mean_sample():
    import hostspeed

    ref = hostspeed.REFERENCE_NS
    assert hostspeed.at_reference_speed(3.0, [int(ref), int(ref)]) == pytest.approx(3.0)
    assert hostspeed.at_reference_speed(3.0, [int(2 * ref), int(2 * ref)]) == pytest.approx(1.5)
    assert hostspeed.at_reference_speed(3.0, []) == 3.0
    # An interrupted sample counts at most CAP times the reference.
    huge = int(1000 * ref)
    assert hostspeed.slowness([huge, int(ref)]) == pytest.approx((hostspeed.CAP + 1) / 2)


def test_sampled_pass_keeps_samples_per_operation():
    import hostspeed

    op = workloads.Op("spin", "bench.spin", lambda: hostspeed._spin(100_000),
                      lambda _: workloads.Checked([], "d", 0))
    sampler = hostspeed.Sampler()
    with sampler.sampling():
        p = measure.run_pass(workloads.Workload("w", 0, [op]), sampler=sampler)
    assert p.samples["spin"] and set(p.samples["spin"]) <= set(sampler.samples)
    assert measure.reference_times([p])["spin"][0] > 0
