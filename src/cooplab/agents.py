"""Agent specs and the registry of agent kinds, the learning-rate and
handshake helpers, and the convention table.

Each kind builds one batch agent (``engine.py``) straight from its spec:
``build_agents`` for many episodes of one seat, ``build_agent`` for one, and
``build_seat`` for a seat of many specs.
Agents are deterministic state machines: ``act()`` returns the announced
mixed strategies for the current stage and ``observe(own, opp)`` advances the
state.  Action *sampling* is done by the episode executor, so identical
(spec, opponent action sequence) pairs always yield identical announced
strategies.  ``tree_act_fn`` turns an agent into the act function of the
exact tree walk.

Agents only ever receive their own type's payoff matrix; ground-truth joint
types stay with the evaluator.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .game_core import (
    ActFn,
    BimatrixGame,
    CapacityError,
    GameError,
    GameFormatError,
    History,
    TypeSpace,
    check_mixed,
    expected_payoff,
)
from .equilibria import (
    EquilibriumProfile,
    PoneSet,
    pareto_optimal_nash,
)
from .engine import (
    BatchAgent,
    BatchBestResponder,
    BatchFixedMixed,
    BatchFixedSequence,
    BatchGrimTrigger,
    BatchGroups,
    BatchMW,
    BatchProtocol,
)


@dataclass(frozen=True)
class AgentSpec:
    """Declarative agent description; (spec, seed) reconstructs behavior."""

    kind: str
    params: dict = field(default_factory=dict)
    own_type: str | None = None

    def to_dict(self) -> dict:
        return {"kind": self.kind, "params": self.params, "own_type": self.own_type}

    @classmethod
    def from_dict(cls, data: dict) -> "AgentSpec":
        if not isinstance(data, dict) or not isinstance(data.get("kind"), str):
            raise GameFormatError(f"an agent spec is a dict with a string 'kind', got {data!r}")
        params = data.get("params", {})
        if not isinstance(params, dict):
            raise GameFormatError(f"agent spec params must be a dict, got {params!r}")
        return cls(kind=data["kind"], params=dict(params), own_type=data.get("own_type"))


# ---------------------------------------------------------------------------
# Learning-rate and handshake helpers


def default_eta(N: int, T: int, form: str = "corrected") -> float:
    """Multiplicative-weights learning rate.

    ``corrected`` is sqrt(8 ln(N) / T), the standard rate matching the
    sqrt((T/2) ln N) regret bound.  ``as-printed`` evaluates sqrt(8 ln(N/T))
    literally, which is only defined for N > T; it is selectable for
    comparison but never the default.
    """
    if N < 2 or T < 1:
        raise GameError(f"need N >= 2 and T >= 1, got N={N}, T={T}")
    if form == "corrected":
        return math.sqrt(8.0 * math.log(N) / T)
    if form == "as-printed":
        if N <= T:
            raise GameError("as-printed rate sqrt(8 ln(N/T)) requires N > T")
        return math.sqrt(8.0 * math.log(N / T))
    raise GameError(f"unknown eta form {form!r}")


def default_handshake_length(num_types: int, N: int) -> int:
    """Minimal k with N^k >= num_types."""
    if num_types <= 1:
        return 0
    return math.ceil(math.log(num_types) / math.log(N) - 1e-12)


def handshake_encode(type_index: int, k: int, N: int) -> list[int]:
    """Base-N big-endian digit expansion of the type index, length exactly k."""
    if type_index < 0 or type_index >= N**k:
        raise CapacityError(
            f"type index {type_index} does not fit in {k} base-{N} digits"
        )
    digits = []
    x = type_index
    for _ in range(k):
        digits.append(x % N)
        x //= N
    return digits[::-1]


def protocol_threshold(k: int, T: int, eps1: float, N: int) -> float:
    """Accumulator ceiling for remaining in the convention phase."""
    if T <= k:
        raise GameError(f"need T > k, got T={T}, k={k}")
    return k + eps1 * (T - k) - math.sqrt(((T - k) / 2.0) * math.log(N)) - 1.0


@dataclass(frozen=True)
class SocialParams:
    """Parameter triple for the handshake-protocol guarantee.

    ``eps`` is the consistency slack as conventionally stated; its last term
    sqrt(((T-k)/2) ln(1/delta)) grows with the horizon, which makes the
    average-regret guarantee vacuous for large T.
    """

    eps0: float
    eps1: float
    eps: float


def theorem26_params(delta: float, T: int, k: int, N: int) -> SocialParams:
    if not (0.0 < delta < 1.0):
        raise GameError(f"delta must be in (0, 1), got {delta}")
    if k < 0 or N < 1:
        raise GameError(f"need handshake length k >= 0 and action count N >= 1, got k={k}, N={N}")
    if T <= k:
        raise GameError(f"need T > k, got T={T}, k={k}")
    rem = T - k
    eps0 = math.sqrt((2.0 / rem) * math.log(2.0 / delta))
    eps1 = eps0 + math.sqrt(math.log(N) / (2.0 * rem)) + 1.0 / rem
    eps = eps1 + math.sqrt((rem / 2.0) * math.log(1.0 / delta))
    return SocialParams(eps0=eps0, eps1=eps1, eps=eps)


# ---------------------------------------------------------------------------
# Convention table


@dataclass
class ConventionTable:
    """Map from joint type to the convention profile, a member of that joint
    game's Pareto-optimal Nash set (validated on construction/load)."""

    table: dict[tuple[str, str], EquilibriumProfile]

    def profile(self, joint_type: tuple[str, str]) -> EquilibriumProfile:
        try:
            return self.table[joint_type]
        except KeyError:
            raise GameError(f"no convention for joint type {joint_type}") from None

    def strategy_for(self, joint_type: tuple[str, str], seat: str) -> np.ndarray:
        prof = self.profile(joint_type)
        return prof.sigma_row if seat == "row" else prof.sigma_col

    def to_dict(self) -> dict:
        return {
            f"{a}|{b}": {
                "sigma_row": prof.sigma_row.tolist(),
                "sigma_col": prof.sigma_col.tolist(),
            }
            for (a, b), prof in self.table.items()
        }

    @classmethod
    def from_dict(cls, data: dict, type_space: TypeSpace) -> "ConventionTable":
        if not isinstance(data, dict):
            raise GameFormatError(f"a convention table is a dict, got {type(data).__name__}")
        table = {}
        for key, entry in data.items():
            types = key.split("|") if isinstance(key, str) else ()
            if len(types) != 2:
                raise GameFormatError(f"convention key {key!r} is not two type ids joined by '|'")
            if not isinstance(entry, dict) or not {"sigma_row", "sigma_col"} <= entry.keys():
                raise GameFormatError(
                    f"convention entry {key!r} is not a dict with 'sigma_row' and 'sigma_col'"
                )
            a, b = types
            game = type_space.game(a, b)
            p = check_mixed(entry["sigma_row"], game.num_actions)
            q = check_mixed(entry["sigma_col"], game.num_actions)
            table[(a, b)] = EquilibriumProfile(
                sigma_row=p,
                sigma_col=q,
                value_row=expected_payoff(p, q, game, "row"),
                value_col=expected_payoff(p, q, game, "col"),
            )
        out = cls(table=table)
        out.validate(type_space)
        return out

    def validate(self, type_space: TypeSpace) -> None:
        for (a, b), prof in self.table.items():
            pone = _complete_pone(type_space.game(a, b))
            ok = any(
                np.allclose(prof.sigma_row, m.sigma_row, atol=1e-7)
                and np.allclose(prof.sigma_col, m.sigma_col, atol=1e-7)
                for m in pone.profiles
            )
            if not ok:
                raise GameError(
                    f"convention entry for {(a, b)} is not a Pareto-optimal "
                    "Nash equilibrium of that joint game"
                )


def _complete_pone(game: BimatrixGame) -> PoneSet:
    """The PONE set of a joint game; ``GameError`` when the game is degenerate,
    since its enumeration may have missed equilibria."""
    pone = pareto_optimal_nash(game)
    if pone.degenerate:
        raise GameError(
            f"joint type {game.joint_type} is a degenerate game; its Pareto-optimal "
            "Nash set may be incomplete"
        )
    return pone


def build_convention_table(type_space: TypeSpace) -> ConventionTable:
    """Canonical convention: for each joint type, the welfare-maximizing
    member of the PONE set (ties broken by row value, then enumeration
    order).  A degenerate joint game is refused with ``GameError``."""
    table = {}
    for joint in type_space.joint_types():
        game = type_space.game(*joint)
        pone = _complete_pone(game)
        if not pone.profiles:
            raise GameError(f"no Pareto-optimal Nash equilibrium for {joint}")
        best = max(
            enumerate(pone.profiles),
            key=lambda item: (
                round(item[1].value_row + item[1].value_col, 9),
                round(item[1].value_row, 9),
                -item[0],
            ),
        )[1]
        table[joint] = best
    return ConventionTable(table=table)


# ---------------------------------------------------------------------------
# Spec -> batch agent construction (registry is extensible so other modules can
# add kinds, e.g. the flattened-population and imitate-then-commit agents)


def _need(params: dict, key: str, kind: str):
    if key not in params:
        raise GameError(f"{kind} spec missing required parameter {key!r}")
    return params[key]


@dataclass
class BuildContext:
    """What a kind's builder reads besides the spec: per episode, its own
    type's code ``own`` (an index into ``type_space.types``, -1 where the
    spec needs none) and its agent seed."""

    kind: str
    type_space: TypeSpace
    T: int
    seat: str
    own: np.ndarray
    seeds: np.ndarray
    convention_table: ConventionTable | None = None

    def per_type(self, values) -> np.ndarray:
        """Per episode, the entry of ``values`` (one per type of the type
        space) for its own type, as one array; refused for an episode with
        no own type."""
        if self.own.size and self.own.min() < 0:
            raise GameError(f"{self.kind} agent needs an own type")
        return np.asarray(values).take(self.own, axis=0)

    def matrices(self) -> np.ndarray:
        """Each episode's own payoff matrix, (E, N, N)."""
        ts = self.type_space
        return self.per_type([ts.payoff_table[t] for t in ts.types])

    def rows(self, values) -> np.ndarray:
        """``values`` repeated for every episode."""
        return np.broadcast_to(values, (len(self.own), len(values)))


def _build_mw(spec, ctx):
    eta = spec.params.get("eta")
    if eta is None:
        eta = default_eta(
            ctx.type_space.num_actions, ctx.T, spec.params.get("eta_form", "corrected")
        )
    return BatchMW(ctx.matrices(), eta)


def _build_protocol(spec, ctx):
    ts, n, seat = ctx.type_space, ctx.type_space.num_actions, ctx.seat
    table = spec.params.get("convention_table")
    if table is None:
        table = ctx.convention_table or build_convention_table(ts)
    elif isinstance(table, dict):  # as a population file holds it
        table = ConventionTable.from_dict(table, ts)
    elif not isinstance(table, ConventionTable):
        raise GameError(
            f"Protocol convention_table must be a ConventionTable or its dict, "
            f"got {type(table).__name__}"
        )
    k = spec.params.get("k")
    if k is None:
        k = default_handshake_length(len(ts.types), n)
    k = int(k)
    eps1 = _need(spec.params, "eps1", "Protocol")
    eta = spec.params.get("eta_fallback")
    if eta is None:
        eta = default_eta(n, max(ctx.T - k, 1))
    matrices = ctx.matrices()
    # Tables for the own types that occur only: k and the table need not fit the others.
    occurs = np.bincount(ctx.own, minlength=len(ts.types)).tolist()
    codes = [handshake_encode(i, k, n) if occurs[i] else [0] * k for i in range(len(occurs))]
    conventions = [[table.strategy_for((own, t) if seat == "row" else (t, own), seat)
                    if occurs[i] else np.zeros(n) for t in ts.types]
                   for i, own in enumerate(ts.types)]
    return BatchProtocol(
        ctx.per_type(np.array(codes, dtype=np.intp).reshape(len(codes), k)),
        ctx.per_type(conventions),
        matrices,
        protocol_threshold(k, ctx.T, eps1, n) if k < ctx.T else 0.0,
        eta,
    )


def _build_fixed_sequence(spec, ctx):
    n = ctx.type_space.num_actions
    actions = [int(a) for a in _need(spec.params, "actions", "FixedSequence")]
    if not actions or any(not 0 <= a < n for a in actions):
        raise GameError(f"FixedSequence needs a nonempty list of actions in [0, {n})")
    return BatchFixedSequence(ctx.rows(actions), n)


def _build_grim_trigger(spec, ctx):
    n = ctx.type_space.num_actions
    coop = int(spec.params.get("coop_action", 0))
    punish = int(spec.params.get("punish_action", 1))
    opp_coop = spec.params.get("opp_coop_action")
    opp_coop = coop if opp_coop is None else int(opp_coop)
    if not all(0 <= a < n for a in (coop, punish, opp_coop)):
        raise GameError("GrimTrigger action out of range")
    return BatchGrimTrigger(n, coop, punish, opp_coop, len(ctx.own))


AGENT_BUILDERS: dict[str, Callable] = {
    "MW": _build_mw,
    "Protocol": _build_protocol,
    "FixedMixed": lambda spec, ctx: BatchFixedMixed(ctx.rows(
        check_mixed(_need(spec.params, "probs", "FixedMixed"), ctx.type_space.num_actions)
    )),
    "FixedSequence": _build_fixed_sequence,
    "GrimTrigger": _build_grim_trigger,
    "UniformRandom": lambda spec, ctx: BatchFixedMixed(ctx.rows(
        np.full(ctx.type_space.num_actions, 1.0 / ctx.type_space.num_actions)
    )),
    "BestResponder": lambda spec, ctx: BatchBestResponder(ctx.matrices()),
}


def register_agent_kind(kind: str, builder: Callable) -> None:
    AGENT_BUILDERS[kind] = builder


def build_agents(
    spec: AgentSpec,
    type_space: TypeSpace,
    T: int,
    seat: str,
    own,
    seeds,
    convention_table: ConventionTable | None = None,
) -> BatchAgent:
    """The batch agent of ``spec`` for E episodes on one seat: per episode,
    ``own`` holds its own type's code, an index into ``type_space.types``,
    and ``seeds`` its agent seed.  A code of -1 stands for the spec's own
    type (population members are usually type-agnostic templates whose type
    is drawn per episode); a kind that reads the type refuses it where the
    spec has none."""
    if spec.kind not in AGENT_BUILDERS:
        raise GameError(f"unknown agent kind {spec.kind!r}")
    if seat not in ("row", "col"):
        raise GameError(f"seat must be 'row' or 'col', got {seat!r}")
    own, count = np.asarray(own), len(type_space.types)
    if own.size and own.dtype.kind not in "iu":
        raise GameError(f"own types are integer codes into the type space's types, got {own.dtype}")
    own = own.astype(np.intp)
    if own.size and not -1 <= own.min() <= own.max() < count:
        raise GameError(f"own type codes must be in [-1, {count}), got {own.min()} to {own.max()}")
    if spec.own_type is not None:
        own[own < 0] = _own_code(type_space, spec.own_type)
    ctx = BuildContext(spec.kind, type_space, T, seat, own, np.asarray(seeds), convention_table)
    return AGENT_BUILDERS[spec.kind](spec, ctx)


def _own_code(type_space: TypeSpace, own_type: str) -> int:
    if own_type not in type_space.payoff_table:
        raise GameError(f"own type {own_type!r} is not in the type space")
    return type_space.types.index(own_type)


def build_agent(
    spec: AgentSpec,
    type_space: TypeSpace,
    T: int,
    seat: str = "row",
    own_type: str | None = None,
    seed: int = 0,
    convention_table: ConventionTable | None = None,
) -> BatchAgent:
    """The batch agent of ``spec`` for one episode of the own type named
    ``own_type`` (None for the spec's): ``build_agents`` with E = 1."""
    code = -1 if own_type is None else _own_code(type_space, own_type)
    return build_agents(spec, type_space, T, seat, [code], [seed], convention_table)


def build_seat(
    specs,
    keys,
    type_space: TypeSpace,
    T: int,
    seat: str,
    own,
    seeds,
    convention_table: ConventionTable | None = None,
) -> BatchAgent:
    """One seat of E episodes of any mix of specs.  Per episode, ``keys``
    holds the key of its spec in ``specs`` (such as a population member's
    index), ``own`` its own type's code (as ``build_agents`` takes it) and
    ``seeds`` its agent seed (a row of ``EpisodeStreams.agent_seeds``).  The
    episodes of each key, in episode order, form one ``BatchGroups`` part
    built by one ``build_agents``."""
    keys, seeds, own = np.asarray(keys), np.asarray(seeds), np.asarray(own)
    order = np.argsort(keys, kind="stable")  # by key, and by episode within a key
    at = np.flatnonzero(keys[order][1:] != keys[order][:-1]) + 1
    parts = sorted(np.split(order, at), key=lambda index: index[0]) if len(order) else []
    return BatchGroups(
        [(index, build_agents(specs[keys[index[0]].item()], type_space, T, seat, own[index],
                              seeds[index], convention_table))
         for index in parts],
        type_space.num_actions,
    )


def tree_act_fn(agent: BatchAgent, seat: str = "row") -> ActFn:
    """Turn a one-episode batch agent into a function of the (row, col)
    history, for the exact tree walk, which asks for the histories a depth at
    a time, from the root down, in any order within a depth.

    The first history asked at depth d + 1 builds the children of every
    history asked at depth d at once: one ``take`` repeats each parent's row
    for its N^2 children, one ``observe`` steps them by their last action
    pair and one ``act`` announces; one dict then maps each parent to the row
    of its first child.  Every history costs one lookup of its parent.  A
    history asked after a deeper one, or whose parent was not asked, raises
    ``GameError``.  ``nodes`` lists the strategy of every history asked so
    far, in the order asked."""
    if seat not in ("row", "col"):
        raise GameError(f"seat must be 'row' or 'col', got {seat!r}")
    root = agent.act()[0].tolist()
    n = len(root)
    own, opp = np.divmod(np.arange(n * n), n)  # child i: the pair (i // n, i % n)
    if seat == "col":
        own, opp = opp, own
    nodes = []
    depth = -1  # the depth asked last
    level = agent  # the agent whose rows are the histories of that depth
    asked, rows = [], []  # those histories and their rows of ``level``, as asked
    # Per history of the depth above, the row of its first child; the root
    # is row 0 under ``()[:-1]``, itself.
    firsts = {(): 0}
    strategies = [root]  # the strategy of every row of ``level``

    def act(history: History):
        nonlocal depth, level, asked, rows, firsts, strategies
        if len(history) != depth:
            if len(history) != depth + 1:
                raise GameError(f"history {history} asked out of depth order; the walk asks "
                                "a depth at a time, from the root down")
            if history:
                level = level.take(np.repeat(rows, n * n))
                level.observe(np.tile(own, len(rows)), np.tile(opp, len(rows)))
                strategies = level.act().tolist()
                firsts = dict(zip(asked, range(0, len(rows) * n * n, n * n)))
            depth, asked, rows = len(history), [], []
        first = firsts.get(history[:-1])
        if first is None:
            raise GameError(f"history {history} asked before its parent")
        row = first + history[-1][0] * n + history[-1][1] if history else 0
        asked.append(history)
        rows.append(row)
        nodes.append(strategies[row])
        return strategies[row]

    act.nodes = nodes
    return act
