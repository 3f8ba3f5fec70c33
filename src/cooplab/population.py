"""Population distributions, episode execution, dataset generation and
persistence, and the population-flattening construction.

Per-episode RNG streams are derived by keyed hashing of (master seed,
episode index), so datasets are reproducible under any execution order.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

import numpy as np

from .game_core import (
    EpisodeTrace,
    GameError,
    GameFormatError,
    History,
    TypeSpace,
)
from .agents import (
    Agent,
    AgentSpec,
    BuildContext,
    ConventionTable,
    build_agent,
    register_agent_kind,
)

DATASET_VERSION = 1

# Stream tags keeping the draw stream and per-episode streams disjoint.
_DRAW_STREAM = 0x64726177  # "draw"
_EPISODE_STREAM = 0x65706973  # "epis"


def derive_episode_seed(master_seed: int, index: int) -> int:
    ss = np.random.SeedSequence([_EPISODE_STREAM, int(master_seed), int(index)])
    return int(ss.generate_state(1, np.uint64)[0])


@dataclass
class Population:
    """Distribution over agent templates (the partner population)."""

    members: list[AgentSpec]
    weights: list[float]

    def __post_init__(self):
        if not self.members:
            raise GameError("population must be nonempty")
        if len(self.weights) != len(self.members):
            raise GameError("population weights must match member count")
        w = np.asarray(self.weights, dtype=float)
        if not np.all(np.isfinite(w)) or np.any(w < 0) or abs(w.sum() - 1.0) > 1e-9:
            raise GameError("population weights must be a probability vector")
        self.weights = [float(x) for x in w]

    def content_hash(self) -> str:
        import hashlib

        blob = json.dumps(
            [[m.to_dict() for m in self.members], self.weights],
            sort_keys=True,
            default=str,
        )
        return hashlib.sha256(blob.encode()).hexdigest()[:16]

    def to_dict(self) -> dict:
        return {
            "members": [m.to_dict() for m in self.members],
            "weights": self.weights,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Population":
        return cls(
            members=[AgentSpec.from_dict(m) for m in data["members"]],
            weights=list(data["weights"]),
        )


@dataclass
class TypeDistribution:
    """Distribution over joint types."""

    support: list[tuple[str, str]]
    weights: list[float]

    def __post_init__(self):
        if len(self.support) != len(self.weights):
            raise GameError("type distribution support/weights length mismatch")
        w = np.asarray(self.weights, dtype=float)
        if not np.all(np.isfinite(w)) or np.any(w < 0) or abs(w.sum() - 1.0) > 1e-9:
            raise GameError("type distribution weights must be a probability vector")
        self.support = [tuple(s) for s in self.support]
        self.weights = [float(x) for x in w]

    def validate_types(self, type_space: TypeSpace) -> None:
        for a, b in self.support:
            if a not in type_space.types or b not in type_space.types:
                raise GameError(f"joint type ({a!r}, {b!r}) not in the type space")

    @classmethod
    def uniform(cls, type_space: TypeSpace) -> "TypeDistribution":
        joints = type_space.joint_types()
        return cls(support=joints, weights=[1.0 / len(joints)] * len(joints))

    def to_dict(self) -> dict:
        return {"support": [list(s) for s in self.support], "weights": self.weights}

    @classmethod
    def from_dict(cls, data: dict) -> "TypeDistribution":
        return cls(
            support=[tuple(s) for s in data["support"]],
            weights=list(data["weights"]),
        )


@dataclass
class Dataset:
    """Episodes of (theta_row, theta_col, history); strategy records are
    deliberately dropped, the learner only sees histories and types."""

    episodes: list[tuple[str, str, History]]
    metadata: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.episodes)


def _sample_action(probs: list[float], rng: random.Random) -> int:
    r = rng.random()
    acc = 0.0
    last = 0
    for a, p in enumerate(probs):
        if p <= 0.0:
            continue
        acc += p
        last = a
        if r < acc:
            return a
    return last  # guard against rounding in the cumulative sum


def play_episode(
    agent_row: Agent,
    agent_col: Agent,
    T: int,
    rng: random.Random,
    joint_type: tuple[str, str] = ("?", "?"),
    seed: int = 0,
    agent_ids: tuple[str, str] = ("?", "?"),
) -> EpisodeTrace:
    """Run T stages with prebuilt agents, recording announced strategies."""
    history: list[tuple[int, int]] = []
    row_strategies: list[np.ndarray] = []
    col_strategies: list[np.ndarray] = []
    for t in range(T):
        try:
            p = agent_row.act()
            q = agent_col.act()
            a = _sample_action(p, rng)
            b = _sample_action(q, rng)
            agent_row.observe(a, b)
            agent_col.observe(b, a)
        except Exception as exc:
            raise GameError(f"agent failure at stage {t}: {exc}") from exc
        history.append((a, b))
        row_strategies.append(np.asarray(p, dtype=float))
        col_strategies.append(np.asarray(q, dtype=float))
    return EpisodeTrace(
        history=tuple(history),
        row_strategies=row_strategies,
        col_strategies=col_strategies,
        joint_type=joint_type,
        seed=seed,
        agent_ids=agent_ids,
    )


def run_episode(
    row_spec: AgentSpec,
    col_spec: AgentSpec,
    type_space: TypeSpace,
    joint_type: tuple[str, str],
    T: int,
    seed: int,
    convention_table: ConventionTable | None = None,
) -> EpisodeTrace:
    """Build both agents from specs and play one seeded episode."""
    rng = random.Random(seed)
    row_seed = rng.getrandbits(63)
    col_seed = rng.getrandbits(63)
    agent_row = build_agent(
        row_spec,
        type_space,
        T,
        seat="row",
        own_type=joint_type[0],
        seed=row_seed,
        convention_table=convention_table,
    )
    agent_col = build_agent(
        col_spec,
        type_space,
        T,
        seat="col",
        own_type=joint_type[1],
        seed=col_seed,
        convention_table=convention_table,
    )
    return play_episode(
        agent_row,
        agent_col,
        T,
        rng,
        joint_type=joint_type,
        seed=seed,
        agent_ids=(row_spec.agent_id(), col_spec.agent_id()),
    )


def generate_dataset(
    pop: Population,
    mu: TypeDistribution,
    type_space: TypeSpace,
    n: int,
    T: int,
    master_seed: int,
    convention_table: ConventionTable | None = None,
) -> Dataset:
    """Self-play dataset: per episode, two members drawn i.i.d. from the
    population and a joint type drawn from mu."""
    if n < 0:
        raise GameError(f"episode count must be >= 0, got {n}")
    mu.validate_types(type_space)
    draws = np.random.default_rng(
        np.random.SeedSequence([_DRAW_STREAM, int(master_seed)])
    )
    member_idx = draws.choice(len(pop.members), size=(n, 2), p=pop.weights)
    joint_idx = draws.choice(len(mu.support), size=n, p=mu.weights)
    episodes = []
    for j in range(n):
        joint = mu.support[joint_idx[j]]
        trace = run_episode(
            pop.members[member_idx[j, 0]],
            pop.members[member_idx[j, 1]],
            type_space,
            joint,
            T,
            derive_episode_seed(master_seed, j),
            convention_table=convention_table,
        )
        episodes.append((joint[0], joint[1], trace.history))
    return Dataset(
        episodes=episodes,
        metadata={
            "version": DATASET_VERSION,
            "T": T,
            "N": type_space.num_actions,
            "type_space_hash": type_space.content_hash(),
            "master_seed": int(master_seed),
            "n": n,
            "population_hash": pop.content_hash(),
        },
    )


# ---------------------------------------------------------------------------
# Dataset persistence (line-delimited: one metadata header, one episode/line)


def write_dataset(dataset: Dataset, path) -> None:
    with open(path, "w") as f:
        json.dump(dataset.metadata, f, sort_keys=True)
        f.write("\n")
        for theta1, theta2, history in dataset.episodes:
            actions = [x for pair in history for x in pair]
            json.dump(
                {"theta1": theta1, "theta2": theta2, "actions": actions},
                f,
                sort_keys=True,
            )
            f.write("\n")


def read_dataset(path) -> Dataset:
    with open(path) as f:
        lines = f.read().splitlines()
    if not lines:
        raise GameFormatError(f"{path}: empty dataset file")
    try:
        metadata = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise GameFormatError(f"{path}: line 1: invalid header ({exc})") from exc
    if metadata.get("version") != DATASET_VERSION:
        raise GameFormatError(
            f"{path}: line 1: unsupported version {metadata.get('version')!r}"
        )
    T = metadata.get("T")
    episodes = []
    for i, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
            actions = rec["actions"]
            if len(actions) != 2 * T:
                raise ValueError(f"expected {2 * T} actions, got {len(actions)}")
            history = tuple(
                (int(actions[2 * t]), int(actions[2 * t + 1])) for t in range(T)
            )
            episodes.append((rec["theta1"], rec["theta2"], history))
        except (json.JSONDecodeError, KeyError, ValueError) as exc:
            raise GameFormatError(f"{path}: line {i}: {exc}") from exc
    if len(episodes) != metadata.get("n"):
        raise GameFormatError(
            f"{path}: header promises {metadata.get('n')} episodes, found {len(episodes)}"
        )
    return Dataset(episodes=episodes, metadata=metadata)


# ---------------------------------------------------------------------------
# Population flattening


class FlattenedAgent(Agent):
    """Single behavioral agent equivalent to drawing a fresh member from the
    population each episode.

    Maintains one cloned agent per member plus its likelihood of having
    produced this seat's actions so far; the announced strategy is the
    posterior-weighted mixture of member strategies.  Histories no member
    could have produced fall back to the uniform strategy (unreachable-branch
    convention).
    """

    def __init__(self, members: list[Agent], weights: list[float], n: int):
        self.members = members
        self.likelihoods = [float(w) for w in weights]
        self.n = n

    def act(self):
        total = sum(self.likelihoods)
        if total <= 0.0:
            return [1.0 / self.n] * self.n
        mix = [0.0] * self.n
        for agent, like in zip(self.members, self.likelihoods):
            if like <= 0.0:
                continue
            probs = agent.act()
            w = like / total
            for a in range(self.n):
                mix[a] += w * probs[a]
        return mix

    def observe(self, own_action, opp_action):
        for i, agent in enumerate(self.members):
            if self.likelihoods[i] > 0.0:
                self.likelihoods[i] *= agent.act()[own_action]
            agent.observe(own_action, opp_action)


def _build_flattened(spec: AgentSpec, ctx: BuildContext) -> FlattenedAgent:
    members = [
        build_agent(
            AgentSpec.from_dict(m),
            ctx.type_space,
            ctx.T,
            seat=ctx.seat,
            own_type=ctx.own_type,
            seed=ctx.seed,
            convention_table=ctx.convention_table,
        )
        for m in spec.params["members"]
    ]
    return FlattenedAgent(
        members, spec.params["weights"], ctx.type_space.num_actions
    )


register_agent_kind("Flattened", _build_flattened)


def flatten_population(pop: Population) -> AgentSpec:
    """Spec for the posterior-mixture agent equivalent to per-episode
    sampling from the population.

    The posterior is tracked online (renormalized in ``act``), so no history
    enumeration or cap is needed.
    """
    return AgentSpec(
        kind="Flattened",
        params={
            "members": [m.to_dict() for m in pop.members],
            "weights": list(pop.weights),
        },
    )
