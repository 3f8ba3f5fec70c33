"""The scalar agent zoo: one Python object per episode, stepped one stage at a
time.  These are the reference implementations the batch agents of
``cooplab`` are checked against; nothing in ``src/`` uses them.

An agent announces its mixed strategy for the current stage with ``act()``
(a list of floats) and advances with ``observe(own, opp)``.  ``play_episode``
samples both seats' actions from one ``SplitMix64`` stream, row then column,
with ``population._sample_action``; ``run_episode`` derives the two agent
seeds from the episode seed first, as the engine does.

The per-case commitment mixture, ``mixture_from_joint`` with its
``CommitmentMixture.replies`` and ``column_partition``, is the oracle of the
batched ``imitation_commit.commitment_mixtures`` and ``partition_replies``.
``exact_episode_value`` sums exact expected payoffs on ``game_core``'s tree
walker.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from cooplab.agents import (
    AgentSpec,
    build_convention_table,
    default_eta,
    default_handshake_length,
    handshake_encode,
    protocol_threshold,
)
from cooplab.game_core import (
    PROB_TOL,
    EpisodeTrace,
    GameError,
    _float_array,
    _tree_levels,
    check_mixed,
)
from cooplab.imitation_commit import COMPONENT_TOL, fit_imitation
from cooplab.population import Dataset, _sample_action, derive_episode_seed, read_dataset


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


def empirical_joint_n(history, up_to: int, n: int) -> np.ndarray:
    """Frequency of each (row, col) action pair over the first ``up_to``
    stages."""
    if not 1 <= up_to <= len(history):
        raise GameError(f"up_to={up_to} must be in [1, {len(history)}], the history length")
    z = np.zeros((n, n))
    for a, b in history[:up_to]:
        z[a, b] += 1.0
    return z / up_to


def policy_strategy(policy, own_type: str, history) -> np.ndarray:
    """The imitation policy's strategy after ``history``: its counts there,
    normalized, or the uniform strategy for a key it never saw."""
    c = policy.counts.get((own_type, history))
    if c is None:
        return np.full(policy.num_actions, 1.0 / policy.num_actions)
    return c / c.sum()


def exact_episode_value(act_row, act_col, game, T: int) -> tuple[float, float]:
    """Exact expected total payoffs of two behavioral strategies over T stages.

    Sums each node's probability times its expected stage payoff over the
    full history tree of ``game_core``'s walker.  Strategies are queried as
    functions of the history only, so any deterministically-replayable agent
    qualifies.
    """
    v1 = v2 = 0.0
    A, B = game.payoff_row, game.payoff_col
    for _, probs, P, Q in _tree_levels(act_row, act_col, game.num_actions, T):
        if P is not None:
            v1 += float(probs @ ((P @ A) * Q).sum(axis=1))
            v2 += float(probs @ ((Q @ B) * P).sum(axis=1))
    return v1, v2


BR_TOL = 1e-12


def best_response(game, opponent, player: str):
    """All actions within ``BR_TOL`` of the best payoff against ``opponent``.

    Returns (sorted action list, best value).
    """
    q = check_mixed(opponent, game.num_actions)
    if player == "row":
        values = game.payoff_row @ q
    elif player == "col":
        values = game.payoff_col @ q
    else:
        raise GameError(f"player must be 'row' or 'col', got {player!r}")
    best = float(values.max())
    actions = [a for a in range(game.num_actions) if values[a] >= best - BR_TOL]
    return actions, best


GOLDEN_GAMMA = 0x9E3779B97F4A7C15
MASK64 = (1 << 64) - 1


class SplitMix64:
    """SplitMix64 as Steele, Lea & Flood give it: a state advanced by the
    golden gamma, each output the state's finalised value.  It is the
    stateful reading of the engine's counter-based streams, written apart
    from them: output c + 1 of the generator seeded with a key is draw c of
    that key's stream."""

    def __init__(self, seed: int):
        self.state = seed & MASK64

    def next64(self) -> int:
        self.state = (self.state + GOLDEN_GAMMA) & MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        return z ^ (z >> 31)

    def getrandbits63(self) -> int:
        return self.next64() >> 1

    def random(self) -> float:
        return (self.next64() >> 11) / float(1 << 53)


def check_joint(probs, n: int | None = None) -> np.ndarray:
    """Validate a joint strategy (distribution over action pairs)."""
    z = _float_array(probs, "joint strategy")
    if z.ndim != 2 or z.shape[0] != z.shape[1]:
        raise GameError(f"joint strategy must be square, got shape {z.shape}")
    if n is not None and z.shape[0] != n:
        raise GameError(f"joint strategy has size {z.shape[0]}, expected {n}")
    if np.any(z < -PROB_TOL):
        raise GameError("joint strategy has negative entries")
    if not abs(z.sum() - 1.0) <= 1e-9:
        raise GameError(f"joint strategy sums to {z.sum()}, not 1")
    return z


@dataclass
class CommitmentMixture:
    """Mixture over row strategies: component j is the conditional row
    distribution given column action j under the source joint strategy, and
    carries that column's marginal probability."""

    components: list[tuple[np.ndarray, float]]
    source_joint: np.ndarray

    def replies(self) -> list[np.ndarray]:
        """The partition reply y_P of every component, in component order:
        column probabilities renormalized within each group of columns that
        share a conditional distribution, whose expected payoff recovers the
        joint's column payoff.  Columns of one group share their reply array."""
        z = self.source_joint
        marginals = z.sum(axis=0)
        replies = {}
        for grp in column_partition(z):
            y = np.zeros(z.shape[1])
            total = sum(marginals[l] for l in grp)
            for l in grp:
                y[l] = marginals[l] / total
            replies.update(dict.fromkeys(grp, y))
        return [replies[j] for j in sorted(replies)]


def mixture_from_joint(z) -> CommitmentMixture:
    """Commitment mixture of a joint strategy: x_j(i) = z_ij / z_j with weight
    z_j, columns below tolerance dropped and the rest renormalized."""
    z = check_joint(z)
    marginals = z.sum(axis=0)
    components = []
    for j, zj in enumerate(marginals):
        if zj > COMPONENT_TOL:
            components.append((z[:, j] / zj, float(zj)))
    if not components:
        raise GameError("joint strategy has no column with positive mass")
    total = sum(w for _, w in components)
    components = [(x, w / total) for x, w in components]
    return CommitmentMixture(components=components, source_joint=z)


def column_partition(z: np.ndarray, tol: float = COMPONENT_TOL) -> list[list[int]]:
    """Group positive-mass columns whose conditional row distributions agree."""
    marginals = z.sum(axis=0)
    support = [j for j in range(z.shape[1]) if marginals[j] > tol]
    groups: list[list[int]] = []
    for j in support:
        xj = z[:, j] / marginals[j]
        for grp in groups:
            x0 = z[:, grp[0]] / marginals[grp[0]]
            if np.all(np.abs(xj - x0) <= 1e-12 + 1e-9 * np.abs(x0)):
                grp.append(j)
                break
        else:
            groups.append([j])
    return groups


def tagged_stream(master_seed: int, tag: int, index: int = 0) -> SplitMix64:
    """Stream ``index`` of ``tag`` under ``master_seed``, as
    ``population.stream_keys`` keys it: the generator seeded with
    ``derive_episode_seed(master_seed, tag * 2**32 + index)``."""
    return SplitMix64(derive_episode_seed(master_seed, (tag << 32) + index))


def categorical(weights, rng: SplitMix64) -> int:
    """One inverse-CDF draw from ``rng`` of an index of ``weights``."""
    return _sample_action([float(w) for w in weights], rng)


def sample_component(mixture: CommitmentMixture, rng: SplitMix64) -> np.ndarray:
    """One component strategy of ``mixture``, drawn with one ``random()``."""
    r = rng.random()
    acc = 0.0
    for x, w in mixture.components:
        acc += w
        if r < acc:
            return x
    return mixture.components[-1][0]


class Agent:
    def act(self) -> list[float]:
        raise NotImplementedError

    def observe(self, own_action: int, opp_action: int) -> None:
        raise NotImplementedError


class FixedMixedAgent(Agent):
    def __init__(self, probs):
        self.probs = [float(x) for x in check_mixed(probs)]

    def act(self):
        return self.probs

    def observe(self, own_action, opp_action):
        pass


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


class BestResponderAgent(Agent):
    """Pure best response to the opponent's empirical action frequencies
    (fictitious play); uniform before any observation."""

    def __init__(self, game_matrix):
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


class MWAgent(Agent):
    """Multiplicative weights over the agent's own payoff matrix, in log space
    with per-act renormalization."""

    def __init__(self, game_matrix, eta: float):
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
        for a in range(self.n):
            self.log_weights[a] += self.eta * self.matrix[a][opp_action]


PHASES = ("handshake", "convention", "fallback")  # a protocol agent's phases, in order


def batch_protocol_phases(agent) -> np.ndarray:
    """The phase of every row of a ``BatchProtocol``, as an index into
    ``PHASES``: the fallback iff the row has a fallback stage, else the
    handshake while the agent's stage is below k and the convention after."""
    return np.where(agent.fallback_stage >= 0, 2, int(agent.stage >= agent.k))


class ProtocolAgent(Agent):
    """Handshake-then-convention agent with an expected-regret tripwire.

    Phases move monotonically handshake -> convention -> fallback (or
    handshake -> fallback).  The accumulator uses the agent's own announced
    strategies and the opponent's realized actions, from stage 0."""

    def __init__(self, own_type, seat, type_space, convention_table, k, T, eps1,
                 eta_fallback=None):
        if seat not in ("row", "col"):
            raise GameError(f"seat must be 'row' or 'col', got {seat!r}")
        self.n = type_space.num_actions
        self.seat = seat
        self.own_type = own_type
        self.type_names = type_space.types
        self.matrix = [list(map(float, row)) for row in type_space.payoff_table[own_type]]
        self.convention_table = convention_table
        self.k = int(k)
        self.T = int(T)
        self.threshold = protocol_threshold(self.k, self.T, eps1, self.n) if self.k < T else 0.0
        if eta_fallback is None:
            eta_fallback = default_eta(self.n, max(self.T - self.k, 1))
        self.eta_fallback = eta_fallback
        self.own_code = handshake_encode(type_space.types.index(own_type), self.k, self.n)
        self.stage = 0
        self.opp_digits: list[int] = []
        self.cum_counterfactual = [0.0] * self.n
        self.cum_expected = 0.0
        self.mw = None
        self.fallback_stage = -1  # the first stage MW plays, once it does
        self.partner_type = None
        self.convention_strategy = None
        if self.k == 0:
            self._enter_convention(self.type_names[0])
        else:
            self.phase = "handshake"

    def _enter_convention(self, partner_type):
        self.partner_type = partner_type
        own = self.own_type
        joint = (own, partner_type) if self.seat == "row" else (partner_type, own)
        sigma = self.convention_table.strategy_for(joint, self.seat)
        self.convention_strategy = [float(x) for x in sigma]
        self.phase = "convention"

    def _enter_fallback(self):
        self.phase = "fallback"
        self.fallback_stage = self.stage
        self.mw = MWAgent(self.matrix, self.eta_fallback)

    def act(self):
        if self.phase == "handshake":
            out = [0.0] * self.n
            out[self.own_code[self.stage]] = 1.0
            return out
        if self.phase == "convention":
            return self.convention_strategy
        return self.mw.act()

    @property
    def accumulator(self) -> float:
        return max(self.cum_counterfactual) - self.cum_expected

    def observe(self, own_action, opp_action):
        phase = self.phase
        if phase == "fallback":
            self.mw.observe(own_action, opp_action)
            self.stage += 1
            return
        sigma = self.act()
        exp_pay = 0.0
        for a in range(self.n):
            g = self.matrix[a][opp_action]
            self.cum_counterfactual[a] += g
            exp_pay += sigma[a] * g
        self.cum_expected += exp_pay
        self.stage += 1
        if phase == "handshake":
            self.opp_digits.append(opp_action)
            if not handshake_prefix_valid(self.opp_digits, self.k, len(self.type_names), self.n):
                self._enter_fallback()
            elif self.stage == self.k:
                idx = handshake_decode(self.opp_digits, len(self.type_names), self.n)
                if idx is None:
                    self._enter_fallback()
                else:
                    self._enter_convention(self.type_names[idx])
        elif self.accumulator > self.threshold:
            self._enter_fallback()


class FlattenedAgent(Agent):
    """One agent per member and its likelihood of having produced this seat's
    actions; announces the posterior-weighted mixture of the members'
    strategies, uniform where no member could have produced the history."""

    def __init__(self, members, weights, n):
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


class ImitateThenCommitAgent(Agent):
    """Plays the imitation policy for the first ``tilde_T`` stages, then
    samples one commitment strategy from the mixture of the realized
    empirical joint play, with the first ``random()`` of
    ``SplitMix64(seed)``, and holds it.  With ``tilde_T == T`` it imitates
    to the end."""

    def __init__(self, policy, tilde_T, T, own_type, seat="row", seed=0):
        if tilde_T > T:
            raise GameError(f"need tilde_T <= T, got {tilde_T} > {T}")
        if seat != policy.seat:
            raise GameError(f"policy was fit for seat {policy.seat!r}, agent seated {seat!r}")
        self.policy = policy
        self.tilde_T = tilde_T
        self.own_type = own_type
        self.seat = seat
        self.n = policy.num_actions
        self.rng = SplitMix64(seed)
        self.history: list[tuple[int, int]] = []  # (row, col) order
        self.stage = 0
        self.commitment = None

    def act(self):
        if self.stage < self.tilde_T:
            sigma = policy_strategy(self.policy, self.own_type, tuple(self.history))
            return [float(x) for x in sigma]
        if self.commitment is None:
            z = empirical_joint_n(tuple(self.history), self.tilde_T, self.n)
            if self.seat == "col":
                z = z.T
            self.commitment = sample_component(mixture_from_joint(z), self.rng)
        return [float(x) for x in self.commitment]

    def observe(self, own_action, opp_action):
        pair = (own_action, opp_action)
        self.history.append(pair if self.seat == "row" else pair[::-1])
        self.stage += 1


def build_scalar(spec: AgentSpec, ts, T, seat="row", own_type=None, seed=0, convention_table=None):
    """The scalar agent of ``spec`` for one episode, with the parameters the
    batch builders resolve."""
    own_type = own_type if own_type is not None else spec.own_type
    params, n = spec.params, ts.num_actions
    if spec.kind == "MW":
        eta = params.get("eta")
        if eta is None:
            eta = default_eta(n, T, params.get("eta_form", "corrected"))
        return MWAgent(ts.payoff_table[own_type], eta)
    if spec.kind == "Protocol":
        table = params.get("convention_table") or convention_table or build_convention_table(ts)
        k = params.get("k")
        if k is None:
            k = default_handshake_length(len(ts.types), n)
        return ProtocolAgent(own_type, seat, ts, table, k, T, params["eps1"],
                             params.get("eta_fallback"))
    if spec.kind == "FixedMixed":
        return FixedMixedAgent(params["probs"])
    if spec.kind == "UniformRandom":
        return UniformRandomAgent(n)
    if spec.kind == "FixedSequence":
        return FixedSequenceAgent(params["actions"], n)
    if spec.kind == "GrimTrigger":
        return GrimTriggerAgent(n, params.get("coop_action", 0), params.get("punish_action", 1),
                                params.get("opp_coop_action"))
    if spec.kind == "BestResponder":
        return BestResponderAgent(ts.payoff_table[own_type])
    if spec.kind == "Flattened":
        members = [
            build_scalar(AgentSpec.from_dict(m), ts, T, seat, own_type, seed, convention_table)
            for m in params["members"]
        ]
        return FlattenedAgent(members, params["weights"], n)
    if spec.kind == "IC":
        policy = params.get("policy")
        if policy is None:
            policy = fit_imitation(read_dataset(params["dataset_path"]), params["tilde_T"], seat)
        return ImitateThenCommitAgent(policy, params["tilde_T"], T, own_type, seat, seed)
    raise GameError(f"no scalar agent for kind {spec.kind!r}")


def play_episode(agent_row, agent_col, T, rng):
    """T stages of two scalar agents, recording the announced strategies."""
    history, row_strategies, col_strategies = [], [], []
    for _ in range(T):
        p = agent_row.act()
        q = agent_col.act()
        a = _sample_action(p, rng)
        b = _sample_action(q, rng)
        agent_row.observe(a, b)
        agent_col.observe(b, a)
        history.append((a, b))
        row_strategies.append(np.asarray(p, dtype=float))
        col_strategies.append(np.asarray(q, dtype=float))
    return EpisodeTrace(tuple(history), row_strategies, col_strategies)


def run_episode(row_spec, col_spec, ts, joint_type, T, seed, convention_table=None):
    """One seeded episode of two scalar agents built from specs: the first
    two 63-bit draws of ``SplitMix64(seed)`` seed the agents."""
    rng = SplitMix64(seed)
    row_seed, col_seed = rng.getrandbits63(), rng.getrandbits63()
    row = build_scalar(row_spec, ts, T, "row", joint_type[0], row_seed, convention_table)
    col = build_scalar(col_spec, ts, T, "col", joint_type[1], col_seed, convention_table)
    return play_episode(row, col, T, rng)


def type_codes(ts, names) -> np.ndarray:
    """The codes of the own types ``names`` in ``ts.types``, -1 for None:
    what ``build_agents`` and ``build_seat`` take."""
    return np.array([-1 if t is None else ts.types.index(t) for t in names], dtype=np.intp)


def joint_codes(ts, joints) -> np.ndarray:
    """The (E, 2) codes of the joint types ``joints``: what ``play_episodes``
    takes."""
    return type_codes(ts, [t for joint in joints for t in joint]).reshape(-1, 2)


def named_dataset(actions, types, metadata) -> Dataset:
    """The Dataset whose episode e has the joint type ``types[e]``: the
    distinct joint types in order of first episode, and each episode's code."""
    index: dict = {}
    codes = [index.setdefault(tuple(joint), len(index)) for joint in types]
    return Dataset(actions, list(index), np.array(codes, dtype=np.intp), metadata)


def tuple_dataset(episodes, T, n, metadata=None) -> Dataset:
    """The dataset of (theta_row, theta_col, history) episodes, each history a
    tuple of T (row, col) action pairs; a minimal header by default."""
    actions = np.array([history for _, _, history in episodes], dtype=np.intp)
    return named_dataset(actions.reshape(len(episodes), T, 2), [(a, b) for a, b, _ in episodes],
                         metadata or {"version": 1, "T": T, "N": n, "n": len(episodes)})


def episode_tuples(dataset) -> list:
    """The (theta_row, theta_col, history) tuples of a dataset's episodes."""
    return [(a, b, tuple(map(tuple, history)))
            for (a, b), history in zip(dataset.types, dataset.actions.tolist())]
