"""Tabular imitation from population datasets, the commitment-mixture
construction with its partition response-function oracle, the
imitate-then-commit agent (``BatchIC``, the ``IC`` kind), and the
closed-form bound helpers.
"""
from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .game_core import GameError, History, check_joint
from .agents import AgentSpec, BuildContext, _need, register_agent_kind
from .engine import BatchAgent, sample_actions, stream_uniforms
from .population import Dataset, parse_dataset

COMPONENT_TOL = 1e-12


@dataclass(eq=False)
class ImitationPolicy:
    """Empirical action frequencies keyed by (own type, history prefix).

    ``seat`` records which seat's actions were counted; histories are stored
    in (row, col) order regardless of seat.

    ``fit_imitation`` keeps the prefix trie it walked, which ``BatchIC``
    steps: ``roots[own_type]`` is a node, ``strategies[v]`` its strategy and
    ``children[v, a * N + b]`` its child after the pair (a, b).  Node 0, the
    child of every pair that leads to no key, plays uniformly.
    """

    num_actions: int
    tilde_T: int
    seat: str = "row"
    counts: dict[tuple[str, History], np.ndarray] = field(default_factory=dict)
    roots: dict[str, int] | None = field(default=None, repr=False)
    strategies: np.ndarray | None = field(default=None, repr=False)
    children: np.ndarray | None = field(default=None, repr=False)

    def __eq__(self, other) -> bool:
        """Equal action count, cutoff, seat and counts, array by array."""
        return (isinstance(other, ImitationPolicy)
                and (self.num_actions, self.tilde_T, self.seat)
                == (other.num_actions, other.tilde_T, other.seat)
                and self.counts.keys() == other.counts.keys()
                and all(np.array_equal(c, other.counts[key]) for key, c in self.counts.items()))

    def content_hash(self) -> str:
        """sha256 of the fields ``__eq__`` compares, the counts in key order:
        equal policies hash alike."""
        keys = sorted(self.counts)
        head = json.dumps([self.num_actions, self.tilde_T, self.seat, keys])
        digest = hashlib.sha256(head.encode())
        digest.update(np.array([self.counts[key] for key in keys], dtype=float).tobytes())
        return digest.hexdigest()


def fit_imitation(dataset: Dataset, tilde_T: int, seat: str = "row") -> ImitationPolicy:
    """Count one seat's actions conditioned on (type, preceding history) over
    every episode prefix shorter than ``tilde_T``.

    The prefix trie is built level by level over the action array: at depth
    t one ``np.unique`` of the (parent node, pair code) numbers, or of the
    own types at the root, numbers the nodes.  They are then renumbered in
    order of first visit, episode by episode, which orders ``counts``."""
    T = dataset.metadata.get("T", 0)
    n = dataset.metadata.get("N")
    if n is None:
        raise GameError("dataset metadata missing action count N")
    if len(dataset) and tilde_T > T:
        raise GameError(f"tilde_T={tilde_T} exceeds dataset horizon T={T}")
    own = 0 if seat == "row" else 1  # the seat's type and action index
    actions = np.asarray(dataset.actions)[:, : max(tilde_T, 0)].astype(np.intp)
    if actions.size and not (0 <= actions.min() and actions.max() < n):
        raise GameError(f"dataset actions must be in [0, {n})")
    own_types = [joint[own] for joint in dataset.types]
    names = list(dict.fromkeys(own_types))
    key = np.fromiter(map({t: i for i, t in enumerate(names)}.__getitem__, own_types),
                      dtype=np.intp, count=len(own_types))  # at the root: own type codes
    codes = actions[:, :, 0] * n + actions[:, :, 1]
    visits = np.empty(codes.shape, dtype=np.intp)  # each episode's node at each depth
    # Per node: its parent, its pair code (a root's: its own type code), its
    # first episode and its depth.  Node 0 plays uniformly.
    nodes, count = [np.array([[0], [0], [-1], [-1]])], 1
    for t in range(codes.shape[1]):
        uniq, first, inverse = np.unique(key, return_index=True, return_inverse=True)
        visits[:, t] = count + inverse.reshape(-1)
        count += len(uniq)
        nodes.append(np.stack([uniq // (n * n) * (t > 0), uniq % (n * n) if t else uniq, first,
                               np.full_like(uniq, t)]))
        key = visits[:, t] * (n * n) + codes[:, t]
    parent, code, first, level = np.concatenate(nodes, axis=1)
    order = np.lexsort((level, first))
    rank = np.argsort(order)
    visits, parent = rank[visits], rank[parent]
    tally = np.bincount((visits * n + actions[:, :, own]).reshape(-1),
                        minlength=count * n).reshape(-1, n).astype(float)
    tally[0] = 1.0  # node 0: uniform, and its own child
    children = np.zeros((count, n * n), dtype=np.intp)
    inner = level > 0
    children[parent[inner], code[inner]] = rank[inner]
    # Each key extends its parent's, which comes first.
    pairs = [(a, b) for a in range(n) for b in range(n)]
    keys = [None]
    for p, c, t in zip(*(x[order[1:]].tolist() for x in (parent, code, level))):
        keys.append((keys[p][0], keys[p][1] + (pairs[c],)) if t else (names[c], ()))
    roots = {key[0]: v for v, key in enumerate(keys[1:], start=1) if not key[1]}
    strategies = tally / tally.sum(axis=1, keepdims=True)
    return ImitationPolicy(n, tilde_T, seat, dict(zip(keys[1:], tally[1:])), roots=roots,
                           strategies=strategies, children=children)


@dataclass
class CommitmentMixture:
    """Mixture over row strategies: component j is the conditional row
    distribution given column action j under the source joint strategy, and
    carries that column's marginal probability."""

    components: list[tuple[np.ndarray, float]]
    source_joint: np.ndarray

    def replies(self) -> list[np.ndarray]:
        """The partition reply y_P of every component, in component order
        (see ``response_function``), from one column partition of the
        source joint.  Columns of one group share their reply array."""
        z = self.source_joint
        marginals = z.sum(axis=0)
        replies = {}
        for grp in _column_partition(z):
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


def _column_partition(z: np.ndarray, tol: float = COMPONENT_TOL) -> list[list[int]]:
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


def response_function(z, component_index: int) -> np.ndarray:
    """The partition reply y_P for the queried mixture component: column
    probabilities renormalized within the group of columns sharing that
    component's conditional distribution.

    This is the test oracle whose expected payoff exactly recovers the joint
    strategy's payoff for the column player.
    """
    replies = mixture_from_joint(z).replies()
    if not 0 <= component_index < len(replies):
        raise GameError(f"no mixture component {component_index}")
    return replies[component_index]


class BatchIC(BatchAgent):
    """The imitate-then-commit agent over E episodes of one policy, either
    seat.

    For the first ``tilde_T`` stages each episode plays the policy at its
    trie node.  At ``tilde_T`` it forms the commitment mixture of its
    empirical joint play (the frequencies of its action pairs), with the
    float operations of ``mixture_from_joint``, and draws a component with
    ``draws`` (E,), its ``commitment_draws``.  It holds that strategy to the
    end.  With ``tilde_T == T`` it is plain behaviour cloning: it imitates
    to the end and never commits.  The policy must carry the trie
    ``fit_imitation`` builds."""

    ROWS = ("draws", "node", "joint", "commitment")

    def __init__(self, policy: ImitationPolicy, tilde_T: int, T: int, own_types, seat: str,
                 draws):
        # The commitment divides by tilde_T.
        if not 0 < tilde_T <= T:
            raise GameError(f"need 0 < tilde_T <= T, got tilde_T={tilde_T}, T={T}")
        if seat != policy.seat:
            raise GameError(f"policy was fit for seat {policy.seat!r}, agent seated {seat!r}")
        if policy.children is None:
            raise GameError("policy has no prefix trie: fit it with fit_imitation")
        self.policy = policy
        self.tilde_T = tilde_T
        self.seat = seat
        self.draws = np.asarray(draws, dtype=float)
        roots = {t: policy.roots.get(t, 0) for t in dict.fromkeys(own_types)}
        self.node = np.fromiter(map(roots.__getitem__, own_types), np.intp, len(own_types))
        n = policy.num_actions
        self.joint = np.zeros((len(self.node), n, n))  # (row, col) counts
        self.stage = 0
        self.commitment = None

    def act(self, partner=None):
        if self.stage < self.tilde_T:
            return self.policy.strategies.take(self.node, axis=0)
        if self.commitment is None:
            self.commitment = self._commit()
        return self.commitment

    def _commit(self) -> np.ndarray:
        z = self.joint / self.tilde_T
        if self.seat == "col":
            z = z.transpose(0, 2, 1)  # condition own actions on the opponent's
        # Component j: own actions given opponent action j, weighted by its
        # marginal; columns below tolerance dropped, the rest renormalized.
        marginals = z.sum(axis=1)
        weights = np.where(marginals > COMPONENT_TOL, marginals, 0.0)
        total = np.zeros(len(weights))
        for column in weights.T:  # in order, as sum() adds the components
            total += column
        j = sample_actions(weights / total[:, None], self.draws)
        rows = np.arange(len(j))
        return z[rows, :, j] / marginals[rows, j][:, None]

    def observe(self, own, opp):
        if self.stage < self.tilde_T:
            a, b = (own, opp) if self.seat == "row" else (opp, own)
            self.joint[np.arange(len(a)), a, b] += 1.0
            self.node = self.policy.children[self.node, a * self.policy.num_actions + b]
        self.stage += 1


def commitment_draws(seeds) -> np.ndarray:
    """The commitment draw of IC agents with agent ``seeds`` in [0, 2**64),
    (E,): the first uniform of the stream keyed by each seed."""
    return stream_uniforms(seeds, 0, 1)[0]


def ImitateThenCommitAgent(policy: ImitationPolicy, tilde_T: int, T: int, own_type: str,
                           seat: str = "row", seed: int = 0) -> BatchIC:
    """The one-episode ``BatchIC`` with agent seed ``seed``."""
    return BatchIC(policy, tilde_T, T, [own_type], seat, commitment_draws([seed]))


# Fits of dataset files keyed by (sha256 of the file, tilde_T, seat), oldest
# first: agents built from one file parse and fit it once per seat.  The key
# is the contents, not the modification time, which a same-size rewrite
# within one timestamp tick leaves unchanged.
_FITS: dict = {}
_FITS_KEPT = 8


def _fit_file(path, tilde_T: int, seat: str):
    """The header and fitted policy of the dataset file at ``path``, which is
    opened once."""
    with open(path, "rb") as f:
        data = f.read()
    key = (hashlib.sha256(data).hexdigest(), tilde_T, seat)
    if key not in _FITS:
        dataset = parse_dataset(data.decode(), path)
        if len(_FITS) >= _FITS_KEPT:
            del _FITS[next(iter(_FITS))]
        _FITS[key] = dataset.metadata, fit_imitation(dataset, tilde_T, seat=seat)
    return _FITS[key]


def _build_ic(spec: AgentSpec, ctx: BuildContext) -> BatchIC:
    tilde_T = _need(spec.params, "tilde_T", "IC")
    policy = spec.params.get("policy")
    if policy is None:
        path = _need(spec.params, "dataset_path", "IC")
        metadata, policy = _fit_file(path, tilde_T, ctx.seat)
        if (metadata.get("type_space_hash") != ctx.type_space.content_hash()
                or metadata["N"] != ctx.type_space.num_actions):
            raise GameError(f"{path}: dataset was generated on another type space")
    return BatchIC(policy, tilde_T, ctx.T, ctx.own_types, ctx.seat, commitment_draws(ctx.seeds))


register_agent_kind("IC", _build_ic)


# ---------------------------------------------------------------------------
# Closed-form bounds


def delta_K(N: int, tilde_T: int, theta_count: int, K: int) -> float:
    """Total-variation imitation-error bound as a function of dataset size.

    Uses the natural logarithm of K; a log(N) variant of this constant is
    sometimes quoted, which the bound report surfaces as a discrepancy note.
    """
    if N < 1 or tilde_T < 1 or theta_count < 1 or K < 0:
        raise GameError("all arguments must be positive (K may be 0)")
    if K == 0:
        return float(tilde_T)
    return min(
        float(tilde_T),
        N ** (2 * (tilde_T + 1)) * theta_count * tilde_T**2 * math.log(K) / K,
    )


def theorem42_bound(
    delta: float, eps: float, delta_K_value: float, T: int, tilde_T: int
) -> float:
    """Upper bound on mean average altruistic regret of the IC strategy."""
    if tilde_T > T:
        raise GameError(f"need tilde_T <= T, got {tilde_T} > {T}")
    return 2.0 * delta + delta_K_value + (2.0 * (T - tilde_T) / T + 1.0) * eps


class AuthFailure(NamedTuple):
    corrected: float
    as_printed: float


def auth_failure_probability(N: int, k: int, M: int) -> AuthFailure:
    """Probability of failing to authenticate with M unique k-step histories
    observed.

    ``corrected`` is the product form (1 - 1/N^k)(1 - M/N^2k); ``as_printed``
    is the literal expansion 1 - M/N^2k - 1/N + M/N^3k, whose 1/N
    term differs from the product.  Both are reported.
    """
    if not (0 <= M <= N ** (2 * k)):
        raise GameError(f"M must be in [0, N^2k] = [0, {N ** (2 * k)}], got {M}")
    corrected = (1.0 - N ** (-k)) * (1.0 - M / N ** (2 * k))
    as_printed = 1.0 - M / N ** (2 * k) - 1.0 / N + M / N ** (3 * k)
    return AuthFailure(corrected=corrected, as_printed=as_printed)


@dataclass
class BoundReport:
    """Closed-form bound values with their inputs echoed, plus notes on the
    formula discrepancies surfaced by this package."""

    delta_K: float
    theorem42_bound: float
    failure_prob_corrected: float
    failure_prob_as_printed: float
    inputs: dict
    notes: list[str] = field(default_factory=list)

    def render(self) -> str:
        lines = ["bound report"]
        lines.append("  inputs: " + ", ".join(f"{k}={v}" for k, v in self.inputs.items()))
        lines.append(f"  delta(K)                = {self.delta_K:.6g}")
        lines.append(f"  IC regret upper bound   = {self.theorem42_bound:.6g}")
        lines.append(f"  auth failure (product)  = {self.failure_prob_corrected:.6g}")
        lines.append(f"  auth failure (printed)  = {self.failure_prob_as_printed:.6g}")
        for note in self.notes:
            lines.append(f"  note: {note}")
        return "\n".join(lines)


def bound_report(
    N: int,
    k: int,
    M: int,
    K: int,
    tilde_T: int,
    T: int,
    theta_count: int,
    delta: float,
    eps: float,
) -> BoundReport:
    dk = delta_K(N, tilde_T, theta_count, K)
    auth = auth_failure_probability(N, k, M)
    return BoundReport(
        delta_K=dk,
        theorem42_bound=theorem42_bound(delta, eps, dk, T, tilde_T),
        failure_prob_corrected=auth.corrected,
        failure_prob_as_printed=auth.as_printed,
        inputs={
            "N": N,
            "k": k,
            "M": M,
            "K": K,
            "tilde_T": tilde_T,
            "T": T,
            "theta_count": theta_count,
            "delta": delta,
            "eps": eps,
        },
        notes=[
            "delta(K) uses ln(K); a ln(N) variant of the constant is sometimes quoted",
            "auth failure: the printed expansion's 1/N term differs from the product form",
            "the consistency eps includes a sqrt(((T-k)/2) ln(1/delta)) term that grows with T",
        ],
    )
