"""The traced run: per-layer metrics from spans recorded around calls into
cooplab, plus direct timings of single layers.

One traced run passes every workload once with the wrappers installed, so it
emits every per-layer metric whichever workload it is named for.  The named
workload is also passed once untraced first; the difference between its two
wall times, both at the host's reference speed (hostspeed.py), is the
tracing overhead.  Per-stage ``act``/``observe`` calls are
not wrapped: ``agents.us_per_stage.*`` times whole episodes of each agent
pairing directly instead.
"""
from __future__ import annotations

import gc
import os
import random
from collections import defaultdict
from time import perf_counter

import workloads  # first: puts the checkout's src/ on sys.path
from hostspeed import Sampler
from measure import judge, reference_times, run_pass

from cooplab import agents, population
from cooplab.agents import AgentSpec, theorem26_params
from cooplab.harness import CONSISTENCY_ADVERSARIES
from cooplab.imitation_commit import ImitateThenCommitAgent

from tracer import NAME, PARENT, Target, Tracer, aggregate, duration, self_times

P, H, A = "cooplab.population", "cooplab.harness", "cooplab.agents"


def _count_act_calls(tracer: Tracer, args, kwargs):
    """Wrap the two act functions of one ``history_distribution`` call so the
    trace counts act calls and distinct history nodes queried."""
    seen = set()

    def counted(fn):
        def act(history):
            tracer.count("act_calls")
            if history not in seen:
                seen.add(history)
                tracer.count("tree_nodes")
            return fn(history)

        return act

    if len(args) >= 2:
        args = (counted(args[0]), counted(args[1]), *args[2:])
    else:
        kwargs = dict(kwargs, act_row=counted(kwargs["act_row"]), act_col=counted(kwargs["act_col"]))
    return args, kwargs


TARGETS = (
    Target("population.play_episode", (f"{P}.play_episode", f"{H}.play_episode"),
           count=lambda a, k, r: r.num_stages),
    Target("population.run_episode", (f"{P}.run_episode", f"{H}.run_episode")),
    Target("population.derive_episode_seed",
           (f"{P}.derive_episode_seed", f"{H}.derive_episode_seed")),
    Target("population.generate_dataset", (f"{P}.generate_dataset", f"{H}.generate_dataset"),
           count=lambda a, k, r: len(r)),
    Target("population.write_dataset", (f"{P}.write_dataset",),
           count=lambda a, k, r: os.path.getsize(a[1])),
    Target("population.read_dataset", (f"{P}.read_dataset",),
           count=lambda a, k, r: os.path.getsize(a[0])),
    Target("agents.build_agent", (f"{A}.build_agent", f"{P}.build_agent", f"{H}.build_agent")),
    Target("agents.build_convention_table",
           (f"{A}.build_convention_table", f"{H}.build_convention_table")),
    Target("game_core.EpisodeTrace", (f"{P}.EpisodeTrace",)),
    Target("regret.expected_external_regret", ("cooplab.regret.expected_external_regret",)),
    Target("imitation_commit.fit_imitation",
           ("cooplab.imitation_commit.fit_imitation", f"{H}.fit_imitation"),
           count=lambda a, k, r: len(r.counts)),
    Target("game_core.history_distribution",
           ("cooplab.game_core.history_distribution", f"{H}.history_distribution"),
           count=lambda a, k, r: len(r), wrap_args=_count_act_calls),
    Target("equilibria.enumerate_nash",
           ("cooplab.equilibria.enumerate_nash", f"{H}.enumerate_nash")),
    Target("equilibria.pareto_optimal_nash",
           ("cooplab.equilibria.pareto_optimal_nash", f"{H}.pareto_optimal_nash",
            f"{A}.pareto_optimal_nash")),
)

PAIRINGS = tuple(f"Protocol-{adv}" for adv in CONSISTENCY_ADVERSARIES) + ("MW-MW", "IC-Protocol")
PAIR_EPISODES = 30  # of si_consistency's horizon, 1000 stages
IC_PAIR_EPISODES = 500  # of ic_eval's horizon, 40 stages


def pairing_timings(seed: int, fixtures: dict, trip: workloads.RoundTrip) -> dict[str, float]:
    """Microseconds per stage of ``play_episode`` for each agent pairing, on
    the type spaces, horizons and protocol parameters of the acceptance
    configs that play them (si_consistency and ic_eval)."""
    rng = random.Random(seed)
    cons = workloads.config("si_consistency", seed, fixtures)
    ts = cons.type_space
    params = theorem26_params(cons.delta, cons.horizon, cons.k, ts.num_actions)
    table = agents.build_convention_table(ts)
    proto = AgentSpec("Protocol", {"eps1": params.eps1, "k": cons.k})
    specs = {f"Protocol-{adv}": (proto, AgentSpec(adv)) for adv in CONSISTENCY_ADVERSARIES}
    specs["MW-MW"] = (AgentSpec("MW"), AgentSpec("MW"))
    out = {}
    for name, (row, col) in specs.items():
        busy = 0.0
        for _ in range(PAIR_EPISODES):
            joint = (rng.choice(ts.types), rng.choice(ts.types))
            a = agents.build_agent(row, ts, cons.horizon, "row", joint[0], convention_table=table)
            b = agents.build_agent(col, ts, cons.horizon, "col", joint[1], convention_table=table)
            stream = random.Random(rng.getrandbits(63))
            start = perf_counter()
            population.play_episode(a, b, cons.horizon, stream)
            busy += perf_counter() - start
        out[name] = busy / (PAIR_EPISODES * cons.horizon) * 1e6

    ic = trip.cfg
    ts = ic.type_space
    params = theorem26_params(ic.delta, ic.horizon, ic.k, ts.num_actions)
    table = agents.build_convention_table(ts)
    proto = AgentSpec("Protocol", {"eps1": params.eps1, "k": ic.k})
    busy = 0.0
    for _ in range(IC_PAIR_EPISODES):
        joint = (rng.choice(ts.types), rng.choice(ts.types))
        a = ImitateThenCommitAgent(trip.policy, ic.tilde_T, ic.horizon, own_type=joint[0],
                                   seat="row", seed=rng.getrandbits(63))
        b = agents.build_agent(proto, ts, ic.horizon, "col", joint[1], convention_table=table)
        stream = random.Random(rng.getrandbits(63))
        start = perf_counter()
        population.play_episode(a, b, ic.horizon, stream)
        busy += perf_counter() - start
    out["IC-Protocol"] = busy / (IC_PAIR_EPISODES * ic.horizon) * 1e6
    return out


def catalog() -> dict[str, str]:
    """Every per-layer metric a traced run emits, with its unit."""
    units = {}
    for cfg in (c for names in workloads.WORKLOAD_CONFIGS.values() for c in names):
        units[f"harness.{cfg}.wall_s"] = "s"
        units[f"harness.{cfg}.self_s"] = "s"
        units[f"harness.{cfg}.artifact_bytes"] = "bytes"
    units.update({
        "population.play_episode.calls": "count",
        "population.play_episode.busy_s": "s",
        "population.play_episode.us_per_stage": "us",
        "regret.expected_external_regret.calls": "count",
        "regret.expected_external_regret.busy_s": "s",
    })
    for pairing in PAIRINGS:
        units[f"agents.us_per_stage.{pairing}"] = "us"
    for name in ("population.derive_episode_seed", "agents.build_agent", "game_core.EpisodeTrace"):
        units[f"{name}.calls"] = "count"
        units[f"{name}.busy_s"] = "s"
    units.update({
        "population.run_episode.setup_us": "us",
        "population.generate_dataset.us_per_episode": "us",
        "population.write_dataset.busy_s": "s",
        "population.write_dataset.bytes": "bytes",
        "population.read_dataset.busy_s": "s",
        "population.read_dataset.bytes": "bytes",
        "imitation_commit.fit_imitation.busy_s": "s",
        "imitation_commit.fit_imitation.keys": "count",
        "agents.build_convention_table.busy_s": "s",
        "game_core.history_distribution.calls": "count",
        "game_core.history_distribution.busy_s": "s",
        "game_core.history_distribution.leaves": "count",
        "game_core.history_distribution.act_calls_per_node": "ratio",
    })
    for n in workloads.NASH_SIZES:
        units[f"equilibria.enumerate_nash.ms.N{n}"] = "ms"
    for w in workloads.WORKLOADS:
        units[f"count.{w}.episodes"] = "count"
        units[f"count.{w}.stages"] = "count"
    units.update({
        "count.fallback_episodes": "count",
        "count.tree_leaves": "count",
        "trace.overhead_s": "s",
        "trace.overhead_ratio": "ratio",
        "trace.spans": "count",
    })
    return units


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, passes: dict, pairings: dict, overhead: tuple) -> dict:
    spans = tracer.spans
    agg = defaultdict(lambda: {"calls": 0, "busy_s": 0.0, "count": 0}, aggregate(spans))
    selfs = self_times(spans)
    m = {}
    play_in_run = 0.0
    nash_ms = defaultdict(list)
    for i, rec in enumerate(spans):
        name, parent = rec[NAME], rec[PARENT]
        parent_name = spans[parent][NAME] if parent >= 0 else ""
        if name.startswith("harness.") and parent < 0:
            m[f"{name}.wall_s"] = duration(rec)
            m[f"{name}.self_s"] = selfs[i]
        elif name == "population.play_episode" and parent_name == "population.run_episode":
            play_in_run += duration(rec)
        elif name == "equilibria.enumerate_nash" and parent_name.startswith("bench.nash.N"):
            nash_ms[parent_name[len("bench.nash."):]].append(duration(rec) * 1e3)
    for w, p in passes.items():
        for op, (_, checked) in p.outcomes.items():
            if op in workloads.ACCEPTANCE:
                m[f"harness.{op}.artifact_bytes"] = checked.artifact_bytes
        m[f"count.{w}.episodes"] = p.total("episodes")
        m[f"count.{w}.stages"] = p.total("stages")

    play = agg["population.play_episode"]
    m["population.play_episode.calls"] = play["calls"]
    m["population.play_episode.busy_s"] = play["busy_s"]
    m["population.play_episode.us_per_stage"] = _ratio(play["busy_s"] * 1e6, play["count"])
    for name in ("regret.expected_external_regret", "population.derive_episode_seed",
                 "agents.build_agent", "game_core.EpisodeTrace"):
        m[f"{name}.calls"] = agg[name]["calls"]
        m[f"{name}.busy_s"] = agg[name]["busy_s"]
    for pairing, us in pairings.items():
        m[f"agents.us_per_stage.{pairing}"] = us
    run = agg["population.run_episode"]
    m["population.run_episode.setup_us"] = _ratio((run["busy_s"] - play_in_run) * 1e6, run["calls"])
    gen = agg["population.generate_dataset"]
    m["population.generate_dataset.us_per_episode"] = _ratio(gen["busy_s"] * 1e6, gen["count"])
    for name in ("population.write_dataset", "population.read_dataset"):
        m[f"{name}.busy_s"] = agg[name]["busy_s"]
        m[f"{name}.bytes"] = agg[name]["count"]
    fit = agg["imitation_commit.fit_imitation"]
    m["imitation_commit.fit_imitation.busy_s"] = fit["busy_s"]
    m["imitation_commit.fit_imitation.keys"] = fit["count"]
    m["agents.build_convention_table.busy_s"] = agg["agents.build_convention_table"]["busy_s"]
    tree = agg["game_core.history_distribution"]
    m["game_core.history_distribution.calls"] = tree["calls"]
    m["game_core.history_distribution.busy_s"] = tree["busy_s"]
    m["game_core.history_distribution.leaves"] = tree["count"]
    m["game_core.history_distribution.act_calls_per_node"] = _ratio(
        tracer.counters.get("act_calls", 0), tracer.counters.get("tree_nodes", 0)
    )
    for n in workloads.NASH_SIZES:
        samples = nash_ms[f"N{n}"]
        m[f"equilibria.enumerate_nash.ms.N{n}"] = _ratio(sum(samples), len(samples))
    m["count.fallback_episodes"] = passes["vectorized"].total("fallbacks")
    m["count.tree_leaves"] = passes["exact-tree"].total("leaves")
    traced_wall, untraced_wall = overhead
    m["trace.overhead_s"] = traced_wall - untraced_wall
    m["trace.overhead_ratio"] = _ratio(traced_wall - untraced_wall, untraced_wall)
    m["trace.spans"] = len(spans)
    return m


def traced_run(name: str, seed: int, span_path) -> dict:
    tracer = Tracer()
    order = [name] + [w for w in workloads.WORKLOADS if w != name]
    built = {w: workloads.build(w, seed, span=tracer.span) for w in order}
    for w in built.values():
        w.prepare()
    gc.collect()
    gc.freeze()
    try:
        pairings = pairing_timings(seed, workloads.load_fixtures(), built["ic-pipeline"].roundtrip)
        sampler = Sampler()
        with sampler.sampling():
            baseline = run_pass(built[name], sampler=sampler)
            passes = {}
            with tracer.installed(TARGETS):
                for w in order:
                    passes[w] = run_pass(built[w], tracer, sampler)
    finally:
        gc.unfreeze()
    tracer.write(span_path)

    failed, findings = judge([baseline, passes[name]])
    for w in order[1:]:
        f, found = judge([passes[w]])
        failed += f
        findings += found
    traced_wall, untraced_wall = (sum(times[0] for times in reference_times([p]).values())
                                  for p in (passes[name], baseline))
    values = layer_metrics(tracer, passes, pairings, (traced_wall, untraced_wall))
    units = catalog()
    return {
        "attempted": sum(len(p.outcomes) for p in passes.values()) + len(baseline.outcomes),
        "failed": failed,
        "findings": findings,
        "metrics": {k: (values[k], units[k]) for k in units},
        "detail": {"untraced_wall_s": baseline.wall, "traced_wall_s": {w: p.wall for w, p in passes.items()},
                   "span_file": str(span_path)},
    }
