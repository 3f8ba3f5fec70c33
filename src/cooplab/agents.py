"""The agent zoo: multiplicative-weights learner, handshake coordination
protocol agent, and adversarial/test agents behind one behavioral interface.

Agents are deterministic state machines: ``act()`` returns the announced
mixed strategy for the current stage (a plain list of floats, for speed in
episode loops) and ``observe(own, opp)`` advances the state.  Action
*sampling* is done by the episode executor, so identical (spec, opponent
action sequence) pairs always yield identical announced strategies.

Agents only ever receive their own type's payoff matrix; ground-truth joint
types stay with the evaluator.
"""
from __future__ import annotations

import copy
import json
import hashlib
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .game_core import (
    ActFn,
    BimatrixGame,
    CapacityError,
    GameError,
    History,
    TypeSpace,
    check_mixed,
    expected_payoff,
)
from .equilibria import (
    EquilibriumProfile,
    PoneSet,
    pareto_optimal_nash,
    is_nash,
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
        return cls(
            kind=data["kind"],
            params=dict(data.get("params", {})),
            own_type=data.get("own_type"),
        )

    def agent_id(self) -> str:
        try:
            blob = json.dumps(
                {"kind": self.kind, "params": self.params}, sort_keys=True, default=str
            )
        except TypeError:
            blob = repr(sorted(self.params))
        digest = hashlib.sha256(blob.encode()).hexdigest()[:8]
        return f"{self.kind}:{digest}"


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


def handshake_decode(digits, num_types: int, N: int) -> int | None:
    """Inverse of ``handshake_encode``; None for a recognized-invalid codeword
    (index outside the type space)."""
    idx = 0
    for d in digits:
        if not (0 <= d < N):
            return None
        idx = idx * N + d
    return idx if idx < num_types else None


def handshake_prefix_valid(digits, k: int, num_types: int, N: int) -> bool:
    """Whether the observed digit prefix can still extend to a valid codeword."""
    m = len(digits)
    idx = 0
    for d in digits:
        if not (0 <= d < N):
            return False
        idx = idx * N + d
    # Smallest completion pads with zeros.
    return idx * (N ** (k - m)) < num_types


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
        table = {}
        for key, entry in data.items():
            types = key.split("|")
            if len(types) != 2:
                raise GameError(f"convention key {key!r} is not two type ids joined by '|'")
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

    def validate(self, type_space: TypeSpace, tol: float = 1e-7) -> None:
        for (a, b), prof in self.table.items():
            pone = _complete_pone(type_space.game(a, b))
            ok = any(
                np.allclose(prof.sigma_row, m.sigma_row, atol=tol)
                and np.allclose(prof.sigma_col, m.sigma_col, atol=tol)
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
# Agents


class Agent:
    """Behavioral-strategy interface shared by the whole zoo."""

    def act(self) -> list[float]:
        raise NotImplementedError

    def observe(self, own_action: int, opp_action: int) -> None:
        raise NotImplementedError

    def clone(self) -> "Agent":
        """An independent copy: observing on the clone leaves this agent's
        ``act()`` unchanged."""
        return copy.deepcopy(self)

    def _copy_with(self, **state) -> "Agent":
        """A shallow copy with ``state`` replacing some attributes: a cheap
        ``clone`` for agents whose other attributes no method writes."""
        new = object.__new__(type(self))
        new.__dict__.update(self.__dict__, **state)
        return new


class FixedMixedAgent(Agent):
    def __init__(self, probs):
        self.probs = [float(x) for x in check_mixed(probs)]

    def act(self):
        return self.probs

    def observe(self, own_action, opp_action):
        pass

    def clone(self):
        # Nothing is ever written, so the agent is its own independent copy.
        return self


class UniformRandomAgent(FixedMixedAgent):
    def __init__(self, n: int):
        super().__init__([1.0 / n] * n)


class FixedSequenceAgent(Agent):
    """Plays a scripted action sequence, cycling if the episode outlasts it."""

    def __init__(self, actions, n: int):
        if not actions:
            raise GameError("FixedSequence needs a nonempty action list")
        self.actions = [int(a) for a in actions]
        if any(not 0 <= a < n for a in self.actions):
            raise GameError("FixedSequence action out of range")
        self.n = n
        self.stage = 0

    def act(self):
        a = self.actions[self.stage % len(self.actions)]
        out = [0.0] * self.n
        out[a] = 1.0
        return out

    def observe(self, own_action, opp_action):
        self.stage += 1

    def clone(self):
        return self._copy_with()


class GrimTriggerAgent(Agent):
    """Cooperates until the opponent leaves its designated action, then
    punishes forever."""

    def __init__(self, n: int, coop_action=0, punish_action=1, opp_coop_action=None):
        self.n = n
        self.coop = int(coop_action)
        self.punish = int(punish_action)
        self.opp_coop = int(opp_coop_action if opp_coop_action is not None else coop_action)
        if not all(0 <= a < n for a in (self.coop, self.punish, self.opp_coop)):
            raise GameError("GrimTrigger action out of range")
        self.triggered = False

    def act(self):
        out = [0.0] * self.n
        out[self.punish if self.triggered else self.coop] = 1.0
        return out

    def observe(self, own_action, opp_action):
        if opp_action != self.opp_coop:
            self.triggered = True

    def clone(self):
        return self._copy_with()


class BestResponderAgent(Agent):
    """Pure best response to the opponent's empirical action frequencies
    (fictitious play); uniform before any observation."""

    def __init__(self, game_matrix: np.ndarray):
        self.matrix = [list(map(float, row)) for row in np.asarray(game_matrix, float)]
        self.n = len(self.matrix)
        self.opp_counts = [0] * self.n

    def act(self):
        total = sum(self.opp_counts)
        if total == 0:
            return [1.0 / self.n] * self.n
        values = [
            sum(self.matrix[a][o] * self.opp_counts[o] for o in range(self.n))
            for a in range(self.n)
        ]
        best = max(range(self.n), key=lambda a: (values[a], -a))
        out = [0.0] * self.n
        out[best] = 1.0
        return out

    def observe(self, own_action, opp_action):
        self.opp_counts[opp_action] += 1

    def clone(self):
        return self._copy_with(opp_counts=list(self.opp_counts))


class MWAgent(Agent):
    """Multiplicative-weights / Hedge over the agent's own payoff matrix:
    weight(a) ~ exp(eta * cumulative payoff of a against the opponent's
    actions).  The exponent uses +eta times the *payoff* (equivalently, -eta
    times the loss 1 - payoff; the normalization is identical).  Kept in log
    space with per-act renormalization, so long horizons cannot overflow."""

    def __init__(self, game_matrix: np.ndarray, eta: float):
        self.matrix = [list(map(float, row)) for row in np.asarray(game_matrix, float)]
        self.n = len(self.matrix)
        if eta < 0:
            raise GameError(f"eta must be >= 0, got {eta}")
        self.eta = float(eta)
        self.log_weights = [0.0] * self.n

    def act(self):
        m = max(self.log_weights)
        w = [math.exp(x - m) for x in self.log_weights]
        s = sum(w)
        return [x / s for x in w]

    def observe(self, own_action, opp_action):
        eta = self.eta
        row = self.matrix
        lw = self.log_weights
        for a in range(self.n):
            lw[a] += eta * row[a][opp_action]

    def clone(self):
        return self._copy_with(log_weights=list(self.log_weights))


class ProtocolAgent(Agent):
    """Handshake-then-convention agent with an expected-regret tripwire.

    Phases move monotonically handshake -> convention -> fallback (or
    handshake -> fallback) and never return.  The expected-regret accumulator
    uses the agent's *own* announced strategies and the opponent's realized
    actions, so it is computable online with private information only.  It
    accrues from stage 0; the handshake stages' contribution is absorbed by
    the +k term in the threshold.
    """

    def __init__(
        self,
        own_type: str,
        seat: str,
        type_space: TypeSpace,
        convention_table: ConventionTable,
        k: int,
        T: int,
        eps1: float,
        eta_fallback: float | None = None,
    ):
        if seat not in ("row", "col"):
            raise GameError(f"seat must be 'row' or 'col', got {seat!r}")
        self.n = type_space.num_actions
        self.seat = seat
        self.own_type = own_type
        self.type_names = type_space.types
        self.matrix = [
            list(map(float, row)) for row in type_space.payoff_table[own_type]
        ]
        self.convention_table = convention_table
        self.k = int(k)
        self.T = int(T)
        self.threshold = protocol_threshold(self.k, self.T, eps1, self.n) if self.k < T else 0.0
        self.eta_fallback = (
            eta_fallback
            if eta_fallback is not None
            else default_eta(self.n, max(self.T - self.k, 1))
        )
        self.own_code = handshake_encode(
            type_space.type_index(own_type), self.k, self.n
        )
        self.stage = 0
        self.opp_digits: list[int] = []
        self.cum_counterfactual = [0.0] * self.n
        self.cum_expected = 0.0
        self.mw: MWAgent | None = None
        self.partner_type: str | None = None
        self.convention_strategy: list[float] | None = None
        if self.k == 0:
            # Single-type spaces need no handshake.
            self.phase = "convention"
            self._enter_convention(self.type_names[0])
        else:
            self.phase = "handshake"

    def _enter_convention(self, partner_type: str) -> None:
        self.partner_type = partner_type
        joint = (
            (self.own_type, partner_type)
            if self.seat == "row"
            else (partner_type, self.own_type)
        )
        sigma = self.convention_table.strategy_for(joint, self.seat)
        self.convention_strategy = [float(x) for x in sigma]
        self.phase = "convention"

    def _enter_fallback(self) -> None:
        self.phase = "fallback"
        self.mw = MWAgent(self.matrix, self.eta_fallback)

    def _strategy_now(self) -> list[float]:
        if self.phase == "handshake":
            out = [0.0] * self.n
            out[self.own_code[self.stage]] = 1.0
            return out
        if self.phase == "convention":
            return self.convention_strategy
        return self.mw.act()

    def act(self):
        return self._strategy_now()

    def clone(self):
        return self._copy_with(
            opp_digits=list(self.opp_digits),
            cum_counterfactual=list(self.cum_counterfactual),
            mw=None if self.mw is None else self.mw.clone(),
        )

    @property
    def accumulator(self) -> float:
        return max(self.cum_counterfactual) - self.cum_expected

    def observe(self, own_action, opp_action):
        phase = self.phase
        if phase == "fallback":
            self.mw.observe(own_action, opp_action)
            self.stage += 1
            return
        sigma = self._strategy_now()
        row = self.matrix
        exp_pay = 0.0
        for a in range(self.n):
            g = row[a][opp_action]
            self.cum_counterfactual[a] += g
            exp_pay += sigma[a] * g
        self.cum_expected += exp_pay
        self.stage += 1
        if phase == "handshake":
            self.opp_digits.append(opp_action)
            if not handshake_prefix_valid(
                self.opp_digits, self.k, len(self.type_names), self.n
            ):
                self._enter_fallback()
            elif self.stage == self.k:
                idx = handshake_decode(self.opp_digits, len(self.type_names), self.n)
                if idx is None:
                    self._enter_fallback()
                else:
                    self._enter_convention(self.type_names[idx])
        elif phase == "convention":
            if self.accumulator > self.threshold:
                self._enter_fallback()


# ---------------------------------------------------------------------------
# Spec -> agent construction (registry is extensible so other modules can add
# kinds, e.g. the flattened-population and imitate-then-commit agents)


def _need(params: dict, key: str, kind: str):
    if key not in params:
        raise GameError(f"{kind} spec missing required parameter {key!r}")
    return params[key]


def _build_mw(spec, ctx):
    matrix = ctx.type_space.payoff_table[ctx.own_type]
    eta = spec.params.get("eta")
    if eta is None:
        eta = default_eta(
            ctx.type_space.num_actions, ctx.T, spec.params.get("eta_form", "corrected")
        )
    return MWAgent(matrix, eta)


def _build_protocol(spec, ctx):
    table = spec.params.get("convention_table") or ctx.convention_table
    if table is None:
        table = build_convention_table(ctx.type_space)
    k = spec.params.get("k")
    if k is None:
        k = default_handshake_length(
            len(ctx.type_space.types), ctx.type_space.num_actions
        )
    return ProtocolAgent(
        own_type=ctx.own_type,
        seat=ctx.seat,
        type_space=ctx.type_space,
        convention_table=table,
        k=k,
        T=ctx.T,
        eps1=_need(spec.params, "eps1", "Protocol"),
        eta_fallback=spec.params.get("eta_fallback"),
    )


AGENT_BUILDERS: dict[str, Callable] = {
    "MW": _build_mw,
    "Protocol": _build_protocol,
    "FixedMixed": lambda spec, ctx: FixedMixedAgent(
        _need(spec.params, "probs", "FixedMixed")
    ),
    "FixedSequence": lambda spec, ctx: FixedSequenceAgent(
        _need(spec.params, "actions", "FixedSequence"), ctx.type_space.num_actions
    ),
    "GrimTrigger": lambda spec, ctx: GrimTriggerAgent(
        ctx.type_space.num_actions,
        coop_action=spec.params.get("coop_action", 0),
        punish_action=spec.params.get("punish_action", 1),
        opp_coop_action=spec.params.get("opp_coop_action"),
    ),
    "UniformRandom": lambda spec, ctx: UniformRandomAgent(ctx.type_space.num_actions),
    "BestResponder": lambda spec, ctx: BestResponderAgent(
        ctx.type_space.payoff_table[ctx.own_type]
    ),
}


def register_agent_kind(kind: str, builder: Callable) -> None:
    AGENT_BUILDERS[kind] = builder


@dataclass
class BuildContext:
    type_space: TypeSpace
    T: int
    seat: str = "row"
    own_type: str | None = None
    seed: int = 0
    convention_table: ConventionTable | None = None


def build_agent(
    spec: AgentSpec,
    type_space: TypeSpace,
    T: int,
    seat: str = "row",
    own_type: str | None = None,
    seed: int = 0,
    convention_table: ConventionTable | None = None,
) -> Agent:
    """Instantiate an agent for one episode.

    ``own_type`` overrides the spec's type (population members are usually
    type-agnostic templates whose type is drawn per episode).
    """
    if spec.kind not in AGENT_BUILDERS:
        raise GameError(f"unknown agent kind {spec.kind!r}")
    resolved = own_type if own_type is not None else spec.own_type
    needs_type = spec.kind in ("MW", "Protocol", "BestResponder")
    if needs_type and resolved is None:
        raise GameError(f"{spec.kind} agent needs an own type")
    ctx = BuildContext(
        type_space=type_space,
        T=T,
        seat=seat,
        own_type=resolved,
        seed=seed,
        convention_table=convention_table,
    )
    return AGENT_BUILDERS[spec.kind](spec, ctx)


def tree_act_fn(agent: Agent, seat: str = "row") -> ActFn:
    """Turn an agent into a function of the (row, col) history, for the exact
    tree walk.

    The agent at a history is a clone of the agent at its parent, advanced by
    the history's last action pair, so a walk that asks for parents before
    children pays one clone and one ``observe`` per node.  The function keeps
    every node's agent in its ``nodes`` dict, keyed by history, for as long
    as the function lives.
    """
    if seat not in ("row", "col"):
        raise GameError(f"seat must be 'row' or 'col', got {seat!r}")
    nodes: dict[History, Agent] = {(): agent.clone()}

    def agent_at(history: History) -> Agent:
        found = nodes.get(history)
        if found is None:
            found = agent_at(history[:-1]).clone()
            a, b = history[-1]
            found.observe(*((a, b) if seat == "row" else (b, a)))
            nodes[history] = found
        return found

    def act(history: History):
        return agent_at(history).act()

    act.nodes = nodes
    return act
