"""The four benchmark workloads, built from cooplab's acceptance configs.

A workload is a list of operations.  Each operation makes one timed call (or
chain of calls) into cooplab's public functions and then checks the output
outside the timed region: every verification gate must pass, the artifact
row counts must match the work the config asks for, and the artifact digest
must not change between passes of one run.  Work counts (episodes, stages,
history-tree nodes) come from the inputs, not from the program, so a change
that skips work cannot raise a throughput figure.

The workload seed shifts every acceptance seed by ``SEED_STRIDE * seed``;
seed 0 gives the acceptance seeds 101-109 themselves.
"""
from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

# Traced functions are called through their modules, so that the traced
# run's wrappers (installed on module attributes) see these calls too.
from cooplab import agents, equilibria, imitation_commit, population  # noqa: E402
from cooplab.agents import AgentSpec, theorem26_params  # noqa: E402
from cooplab.game_core import BimatrixGame, GameError  # noqa: E402
from cooplab.harness import (  # noqa: E402
    CONSISTENCY_ADVERSARIES,
    ExperimentConfig,
    fixture_type_space,
    run_experiment,
)

SEED_STRIDE = 1000

# Scratch space inside the checkout for the round trip's dataset file.
WORKDIR = Path(__file__).resolve().parent / ".work"

# The acceptance configs of tests/test_acceptance.py, copied so that a later
# edit of the test file cannot silently change what the benchmark measures.
ACCEPTANCE = {
    "mw_N2": dict(kind="mw-regret", episodes=500, horizon=1000, num_actions=2, seed=101),
    "mw_N5": dict(kind="mw-regret", episodes=500, horizon=1000, num_actions=5, seed=102),
    "nash_selfplay": dict(kind="nash-selfplay", episodes=10_000, horizon=500, delta=0.05, seed=103),
    "si_selfplay": dict(kind="si-selfplay", episodes=10_000, horizon=1000, delta=0.1, k=2, seed=104),
    "si_consistency": dict(kind="si-consistency", episodes=1000, horizon=1000, delta=0.1, k=2, seed=105),
    "auth_failure": dict(kind="auth-failure", episodes=100_000, seed=106),
    "mixture_check": dict(kind="mixture-check", episodes=1000, seed=107),
    "flatten_h7": dict(kind="flatten-check", episodes=1, seed=108, extra={"flatten_horizon": 7}),
    "ic_eval": dict(
        kind="ic-eval", horizon=40, k=1, tilde_T=10, delta=0.1, seed=109,
        extra={"K_values": [100, 1000, 10_000], "eval_episodes": 2000},
    ),
}

WORKLOAD_CONFIGS = {
    "zoo-loop": ["si_consistency", "mw_N2", "mw_N5"],
    "ic-pipeline": ["ic_eval"],
    "vectorized": ["nash_selfplay", "si_selfplay", "auth_failure", "mixture_check"],
    "exact-tree": ["flatten_h7"],
}
WORKLOADS = tuple(WORKLOAD_CONFIGS)

NASH_SIZES = (2, 3, 4, 5)
NASH_GAMES_PER_SIZE = 12

# The only gate whose statistic must stay at or above its bound; every other
# gate passes while statistic <= bound (plus its confidence radius).
LOWER_BOUND_GATES = {("mixture-check", "best-response payoff >= joint-strategy payoff")}


@dataclass
class Checked:
    """What an operation's untimed check found."""

    gates: list[dict]
    digest: str
    artifact_bytes: int
    episodes: int = 0
    stages: int = 0
    nodes: int = 0
    leaves: int = 0
    fallbacks: int = 0
    problems: list[str] = field(default_factory=list)


@dataclass
class Op:
    """One operation: ``call`` is timed, ``check`` turns its result into a
    ``Checked``.  ``span`` names the operation in traces."""

    name: str
    span: str
    call: Callable[[], object]
    check: Callable[[object], Checked]


@dataclass
class Workload:
    name: str
    seed: int
    ops: list[Op]
    roundtrip: "RoundTrip | None" = None

    def prepare(self) -> None:
        """Untimed per-run preparation outside set-up: the round trip's
        dataset and its in-memory fit."""
        if self.roundtrip is not None:
            self.roundtrip.prepare()


def _digest(artifacts: dict[str, str]) -> str:
    h = hashlib.sha256()
    for name in sorted(artifacts):
        h.update(name.encode() + b"\0" + artifacts[name].encode() + b"\0")
    return h.hexdigest()


def gate_record(kind: str, r) -> dict:
    lower = (kind, r.label) in LOWER_BOUND_GATES
    margin = (r.statistic - r.bound) if lower else (r.bound - r.statistic)
    return {
        "label": r.label,
        "passed": bool(r.passed),
        "statistic": float(r.statistic),
        "bound": float(r.bound),
        "margin": float(margin),
        "ci_radius": float(r.ci_radius),
    }


def expected_work(cfg: ExperimentConfig) -> tuple[int, int, int]:
    """(episodes, stages, CSV data rows) that a config asks for."""
    kind, T = cfg.kind, cfg.horizon
    if kind == "mw-regret":
        return cfg.episodes, cfg.episodes * T, cfg.episodes
    if kind == "nash-selfplay":
        return cfg.episodes, cfg.episodes * T, 2 * cfg.episodes
    if kind == "si-selfplay":
        return cfg.episodes, cfg.episodes * T, cfg.episodes
    if kind == "si-consistency":
        adversaries = len(CONSISTENCY_ADVERSARIES)
        runs = max(1, cfg.episodes // adversaries) * adversaries
        return runs, runs * T, runs
    if kind == "ic-eval":
        ks, evals = cfg.extra["K_values"], cfg.extra["eval_episodes"]
        episodes = sum(ks) + len(ks) * evals
        return episodes, episodes * T, len(ks) * evals
    if kind == "auth-failure":
        return 0, 0, 10  # 2 handshake lengths x 5 coverage fractions
    if kind == "mixture-check":
        return 0, 0, cfg.episodes
    raise ValueError(f"no work model for kind {kind!r}")


def _csv_rows(text: str) -> list[str]:
    return text.splitlines()[1:]


def _probability(text: str) -> float:
    # Under numpy 2 the flatten check writes some values as the repr of a
    # numpy scalar, "np.float64(0.25)", rather than as a plain float.
    if text.startswith("np.float64(") and text.endswith(")"):
        text = text[len("np.float64("):-1]
    return float(text)


def tree_work(csv_text: str, horizon: int) -> tuple[int, int, int]:
    """(leaves, stages, nodes) of the two history trees a flatten check
    compares: the population mixture and the flattened agent.  Nodes are the
    internal nodes, where both agents announce a strategy; stages are the
    episode-stages the exact walk accounts for, leaves times horizon."""
    leaves = stages = nodes = 0
    rows = [line.split(",") for line in _csv_rows(csv_text)]
    for column in (1, 2):
        support = [row[0] for row in rows if _probability(row[column]) > 0.0]
        prefixes = {h[: 2 * t] for h in support for t in range(horizon)}
        leaves += len(support)
        stages += len(support) * horizon
        nodes += len(prefixes)
    return leaves, stages, nodes


def harness_op(name: str, cfg: ExperimentConfig) -> Op:
    def check(out) -> Checked:
        results, artifacts = out
        gates = [gate_record(cfg.kind, r) for r in results]
        problems = [f"gate failed: {g['label']}" for g in gates if not g["passed"]]
        size = sum(len(text.encode()) for text in artifacts.values())
        if cfg.kind == "flatten-check":
            text = next(iter(artifacts.values()))
            horizon = cfg.extra["flatten_horizon"]
            leaves, stages, nodes = tree_work(text, horizon)
            n = cfg.type_space.num_actions
            if len(_csv_rows(text)) != n ** (2 * horizon):
                problems.append(f"expected {n ** (2 * horizon)} leaf rows")
            return Checked(gates, _digest(artifacts), size, leaves, stages, nodes, leaves,
                           problems=problems)
        episodes, stages, rows = expected_work(cfg)
        data = [row for text in artifacts.values() for row in _csv_rows(text)]
        if len(data) != rows:
            problems.append(f"artifact has {len(data)} rows, config asks for {rows}")
        # si-selfplay's last column flags episodes finished by the scalar agents.
        fallbacks = sum(row.endswith(",1") for row in data) if cfg.kind == "si-selfplay" else 0
        return Checked(gates, _digest(artifacts), size, episodes, stages, stages,
                       fallbacks=fallbacks, problems=problems)

    return Op(name, f"harness.{name}", lambda: run_experiment(cfg), check)


# ---------------------------------------------------------------------------
# ic-pipeline: dataset round trip


@dataclass
class RoundTrip:
    """The K = 10 000 dataset of ``ic_eval`` and its in-memory imitation fit,
    made once per run outside the timed region (``prepare``)."""

    cfg: ExperimentConfig
    dataset: object = None
    policy: object = None

    def prepare(self) -> None:
        cfg = self.cfg
        ts = cfg.type_space
        K = cfg.extra["K_values"][-1]
        params = theorem26_params(cfg.delta, cfg.horizon, cfg.k, ts.num_actions)
        pop = population.Population(
            members=[AgentSpec("Protocol", {"eps1": params.eps1, "k": cfg.k})], weights=[1.0]
        )
        g, d = ts.types[0], ts.types[1]
        mu = population.TypeDistribution(support=[(g, g), (g, d), (d, d)], weights=[0.25, 0.5, 0.25])
        # Same master seed as ic_eval's K = 10 000 dataset.
        master = int(
            np.random.default_rng(np.random.SeedSequence([cfg.seed, 0x4943, K])).integers(2**62)
        )
        self.dataset = population.generate_dataset(
            pop, mu, ts, K, cfg.horizon, master_seed=master,
            convention_table=agents.build_convention_table(ts),
        )
        self.policy = imitation_commit.fit_imitation(self.dataset, cfg.tilde_T, seat="row")

    def call(self):
        WORKDIR.mkdir(parents=True, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=WORKDIR) as tmp:
            path = os.path.join(tmp, "dataset.jsonl")
            population.write_dataset(self.dataset, path)
            loaded = population.read_dataset(path)
            policy = imitation_commit.fit_imitation(loaded, self.cfg.tilde_T, seat="row")
            with open(path, "rb") as f:
                blob = f.read()
        return policy, blob

    def check(self, out) -> Checked:
        policy, blob = out
        problems = []
        mine = self.policy.counts
        if policy.counts.keys() != mine.keys() or any(
            not np.array_equal(policy.counts[key], mine[key]) for key in mine
        ):
            problems.append("policy fit from the file differs from the in-memory fit")
        return Checked([], hashlib.sha256(blob).hexdigest(), len(blob), problems=problems)


# ---------------------------------------------------------------------------
# exact-tree: equilibrium enumeration and the convention table


def nash_games(seed: int) -> dict[int, list[BimatrixGame]]:
    """A fixed seeded set of random games per action count."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x4E41]))
    return {
        n: [BimatrixGame(rng.random((n, n)), rng.random((n, n))) for _ in range(NASH_GAMES_PER_SIZE)]
        for n in NASH_SIZES
    }


def nash_op(games: dict[int, list[BimatrixGame]], span=None) -> Op:
    """``span(name)`` is a context manager the traced run uses to group the
    calls by action count; untraced runs pass none."""

    def call():
        out = []
        for n, group in games.items():
            with span(f"bench.nash.N{n}") if span else nullcontext():
                for game in group:
                    nash = equilibria.enumerate_nash(game)
                    out.append((game, nash, equilibria.pareto_optimal_nash(game, nash=nash)))
        return out

    def check(out) -> Checked:
        problems = []
        lines = []
        for game, nash, pone in out:
            if not nash.profiles or not pone.profiles:
                problems.append(f"no equilibrium found for an N={game.num_actions} game")
            for p in nash.profiles:
                if not equilibria.is_nash(game, p.sigma_row, p.sigma_col):
                    problems.append("enumerated profile is not a Nash equilibrium")
                lines.append(repr((p.sigma_row.round(9).tolist(), p.sigma_col.round(9).tolist())))
            lines.append(f"pone={len(pone)}")
        text = "\n".join(lines)
        return Checked([], hashlib.sha256(text.encode()).hexdigest(), len(text), problems=problems)

    return Op("nash_games", "bench.nash_games", call, check)


def convention_op(ts) -> Op:
    def check(table) -> Checked:
        problems = []
        try:
            table.validate(ts)
        except GameError as exc:
            problems.append(f"convention table invalid: {exc}")
        text = json.dumps(table.to_dict(), sort_keys=True)
        return Checked([], hashlib.sha256(text.encode()).hexdigest(), len(text), problems=problems)

    return Op("convention_table", "bench.convention_table", lambda: agents.build_convention_table(ts), check)


# ---------------------------------------------------------------------------
# Construction


def config(name: str, seed: int, fixtures: dict) -> ExperimentConfig:
    kw = dict(ACCEPTANCE[name])
    kw["seed"] = kw["seed"] + SEED_STRIDE * seed
    if "extra" in kw:
        kw["extra"] = {k: (list(v) if isinstance(v, list) else v) for k, v in kw["extra"].items()}
    if name in ("si_selfplay", "si_consistency"):
        kw["type_space"] = fixtures["ts4"]
    if name in ("ic_eval", "flatten_h7"):
        kw["type_space"] = fixtures["ts2"]
    return ExperimentConfig(**kw)


def load_fixtures() -> dict:
    return {
        "ts2": fixture_type_space("typespace_2.json"),
        "ts4": fixture_type_space("typespace_4.json"),
    }


def build(name: str, seed: int, span=None) -> Workload:
    """Load the fixtures and build every config of one workload.  This is
    what ``setup_s`` times, together with interpreter start and imports.
    ``span`` is the traced run's span context manager."""
    if name not in WORKLOAD_CONFIGS:
        raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
    if seed < 0:
        raise ValueError("the workload seed must be >= 0")
    fixtures = load_fixtures()
    configs = {c: config(c, seed, fixtures) for c in WORKLOAD_CONFIGS[name]}
    workload = Workload(name, seed, [harness_op(c, cfg) for c, cfg in configs.items()])
    if name == "ic-pipeline":
        workload.roundtrip = RoundTrip(configs["ic_eval"])
        trip = workload.roundtrip
        workload.ops.append(Op("roundtrip", "bench.roundtrip", trip.call, trip.check))
    if name == "exact-tree":
        workload.ops.append(nash_op(nash_games(seed), span))
        workload.ops.append(convention_op(fixtures["ts4"]))
    return workload
