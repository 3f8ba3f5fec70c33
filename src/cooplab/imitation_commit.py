"""Tabular imitation from population datasets, the batched
commitment-mixture construction with its partition replies, the
imitate-then-commit agent (``BatchIC``, the ``IC`` kind), and the
closed-form bound helpers.
"""
from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .game_core import GameError, History
from .agents import AgentSpec, BuildContext, _need, register_agent_kind
from .engine import BatchAgent, _rowsum, sample_actions, stream_uniforms
from .population import Dataset, parse_dataset

COMPONENT_TOL = 1e-12


class ImitationPolicy:
    """Empirical action frequencies keyed by (own type, history prefix), as
    the prefix trie that ``fit_imitation`` walked and ``BatchIC`` steps.

    ``seat`` records which seat's actions were counted; histories are stored
    in (row, col) order regardless of seat.  ``roots[own_type]`` is a node,
    ``strategies[v]`` its strategy, ``tally[v]`` its action counts and
    ``children[v, a * N + b]`` its child after the pair (a, b).  Node 0, the
    child of every pair that leads to no key, plays uniformly.  Equality and
    ``content_hash`` leave out ``type_space_hash``, the dataset header's."""

    def __init__(self, num_actions: int, tilde_T: int, seat: str = "row", *, roots, strategies,
                 children, tally, type_space_hash=None):
        self.num_actions, self.tilde_T, self.seat = num_actions, tilde_T, seat
        self.roots, self.strategies, self.children, self.tally = roots, strategies, children, tally
        self.type_space_hash = type_space_hash

    @cached_property
    def counts(self) -> dict[tuple[str, History], np.ndarray]:
        """Derived from the trie on first read: per node from node 1, its key,
        which extends its parent's by the node's pair, and its tally."""
        n, names = self.num_actions, {v: name for name, v in self.roots.items()}
        links = np.zeros((2, len(self.children)), np.intp)  # each node's parent and pair
        up, pair = np.nonzero(self.children)  # a root's stay 0: it is no node's child
        links[:, self.children[up, pair]] = up, pair
        pairs, keys = [divmod(c, n) for c in range(n * n)], [None]
        for v, (p, c) in enumerate(links.T[1:].tolist(), start=1):
            keys.append((keys[p][0], keys[p][1] + (pairs[c],)) if p else (names[v], ()))
        return dict(zip(keys[1:], self.tally[1:]))

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

    The prefix trie comes from one sort of the episodes by own type, then
    the pair codes a * N + b of stages 0 to ``tilde_T`` - 1, packed into as
    few int64 words as hold them.  The nodes at depth t are the runs of that
    order over which the length-t prefix does not change; a flag "differs
    from the row above", carried down from depth t - 1, marks their starts.
    Nodes are renumbered in order of first visit, the least episode of each
    run, which orders ``counts``, derived only when read.  ``tilde_T`` may
    not exceed the stages the dataset holds (fewer than T in a short one)."""
    if seat not in ("row", "col"):
        raise GameError(f"seat must be 'row' or 'col', got {seat!r}")
    if tilde_T < 0:
        raise GameError(f"tilde_T must be >= 0, got {tilde_T}")
    n = dataset.metadata.get("N")
    if n is None:
        raise GameError("dataset metadata missing action count N")
    actions = np.asarray(dataset.actions)
    if len(dataset) and tilde_T > actions.shape[1]:
        raise GameError(f"tilde_T={tilde_T} exceeds the dataset's {actions.shape[1]} stages")
    own = 0 if seat == "row" else 1  # the seat's type and action index
    actions = actions[:, :tilde_T]
    if actions.size and not (0 <= actions.min() and actions.max() < n):
        raise GameError(f"dataset actions must be in [0, {n})")
    actions = actions.astype(np.min_scalar_type(n - 1), copy=False)  # exact in int64 sums
    index: dict = {}  # own type -> code
    of_joint = [index.setdefault(joint[own], len(index)) for joint in dataset.joints]
    names = list(index)
    types = np.array(of_joint, dtype=np.int64).take(np.asarray(dataset.codes, dtype=np.intp))
    # The sort keys, most significant first: an int64 word takes digits while
    # the product of their radixes is at most 2**63, so none overflows.
    words, radix = [types], len(names)
    for t in range(tilde_T):
        if radix * n * n > 1 << 63:
            words, radix = words + [np.zeros_like(types)], 1
        words[-1] = (words[-1] * n + actions[:, t, 0]) * n + actions[:, t, 1]
        radix *= n * n
    order = np.lexsort(words[::-1])
    # Per node: its parent, its pair code (a root's: its own type code), its
    # first episode and its depth; and its tally.  Node 0 plays uniformly.
    nodes, tallies, count = [np.array([[0], [0], [-1], [-1]])], [np.ones((1, n))], 1
    run = np.arange(len(order)) == 0  # the sorted row's prefix differs from the row above's
    code, up, sorted_actions = types[order], np.zeros(len(order), np.intp), actions[order]
    for t in range(tilde_T):
        if t:  # the pair codes of stage t - 1
            code = sorted_actions[:, t - 1, 0].astype(np.intp) * n + sorted_actions[:, t - 1, 1]
        run[1:] |= code[1:] != code[:-1]
        starts = np.flatnonzero(run)
        node = np.cumsum(run) - 1  # each sorted row's node at depth t, from 0
        nodes.append(np.stack([up[starts], code[starts], np.minimum.reduceat(order, starts),
                               np.full(len(starts), t)]))
        tallies.append(np.bincount(node * n + sorted_actions[:, t, own],
                                   minlength=len(starts) * n).reshape(-1, n))
        up, count = node + count, count + len(starts)
    parent, code, first, level = np.concatenate(nodes, axis=1)
    order = np.lexsort((level, first))
    rank = np.argsort(order)
    parent = rank[parent]
    tally = np.concatenate(tallies)[order]
    children = np.zeros((count, n * n), dtype=np.intp)
    inner = level > 0
    children[parent[inner], code[inner]] = rank[inner]
    at = np.flatnonzero(level[order] == 0)  # the roots, in node order
    roots = dict(zip([names[c] for c in code[order[at]].tolist()], at.tolist()))
    return ImitationPolicy(n, tilde_T, seat, roots=roots, children=children, tally=tally,
                           strategies=tally / tally.sum(axis=1, keepdims=True),
                           type_space_hash=dataset.metadata.get("type_space_hash"))


class CommitmentMixtures(NamedTuple):
    """Commitment mixtures of joints z (m, n, n).  Component j of case c is
    ``conditionals[c, j]``, the rows' z_ij / z_j given column action j, of
    weight ``weights[c, j]`` and marginal z_j; a dropped column's are 0."""

    conditionals: np.ndarray
    weights: np.ndarray
    marginals: np.ndarray


def commitment_mixtures(z) -> CommitmentMixtures:
    """The commitment mixtures of the joint strategies ``z`` (m, n, n): the
    columns of marginal at most COMPONENT_TOL are dropped, and the weights
    are the kept marginals over their total, added left to right."""
    marginals = z.sum(axis=1)
    kept = marginals > COMPONENT_TOL
    marginals = np.where(kept, marginals, 0.0)
    total = _rowsum(marginals)
    if not total.all():
        raise GameError("joint strategy has no column with positive mass")
    conditionals = np.divide(z.transpose(0, 2, 1), marginals[:, :, None],
                             out=np.zeros(z.shape), where=kept[:, :, None])
    return CommitmentMixtures(conditionals, marginals / total[:, None], marginals)


def partition_replies(mixtures: CommitmentMixtures) -> np.ndarray:
    """The partition reply y_P of every component of ``mixtures``, (m, n, n):
    ``replies[c, j]`` renormalizes the column marginals within column j's
    group, whose expected payoff recovers the joint's column payoff; a
    dropped column's is zero.  Kept columns are grouped in order: each joins
    the first group, in order of creation, whose first column's conditional
    it matches to within 1e-12 + 1e-9 |x|, or starts a group.  Each group's
    total adds its members left to right."""
    conditionals, _, marginals = mixtures
    kept = marginals > 0.0  # a kept conditional sums to 1: no dropped (zero) one matches it
    m, n = marginals.shape
    leader = np.tile(np.arange(n), (m, 1))  # each column's group, by its first column
    for j in range(1, n):
        for k in range(j):  # the groups so far, in order of creation
            x0 = conditionals[:, k]
            close = (np.abs(conditionals[:, j] - x0) <= 1e-12 + 1e-9 * np.abs(x0)).all(axis=1)
            leader[close & (leader[:, j] == j) & (leader[:, k] == k), j] = k
    same = (leader[:, :, None] == leader[:, None, :]) & kept[:, :, None] & kept[:, None, :]
    group = np.where(same, marginals[:, None, :], 0.0)  # [c, j]: the marginals of j's group
    return np.divide(group, _rowsum(group)[:, :, None], out=np.zeros(group.shape),
                     where=kept[:, :, None])


class BatchIC(BatchAgent):
    """The imitate-then-commit agent over E episodes of one policy, either
    seat.

    For the first ``tilde_T`` stages each episode plays the policy at its
    trie node.  At ``tilde_T`` it forms the commitment mixture of its
    empirical joint play (the frequencies of its action pairs) with
    ``commitment_mixtures``, the function the mixture check verifies, and
    draws a component with ``draws`` (E,), its ``commitment_draws``.  It
    holds that strategy to the end, so from ``tilde_T`` on ``held`` lets
    ``play_batch`` step the stages that its partner holds too as one
    stretch.  With ``tilde_T == T`` it is plain
    behaviour cloning: it imitates to the end and never commits.  ``roots``
    (E,) holds each episode's root node, its own type's (``policy.roots``)."""

    ROWS = ("draws", "node", "joint", "commitment")

    def __init__(self, policy: ImitationPolicy, tilde_T: int, T: int, roots, seat: str, draws):
        # The commitment divides by tilde_T.
        if not 0 < tilde_T <= T:
            raise GameError(f"need 0 < tilde_T <= T, got tilde_T={tilde_T}, T={T}")
        if seat != policy.seat:
            raise GameError(f"policy was fit for seat {policy.seat!r}, agent seated {seat!r}")
        self.policy = policy
        self.tilde_T = tilde_T
        self.seat = seat
        self.draws = np.asarray(draws, dtype=float)
        self.node = np.asarray(roots, dtype=np.intp)
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
        mixtures = commitment_mixtures(z)
        j = sample_actions(mixtures.weights, self.draws)
        return mixtures.conditionals[np.arange(len(j)), j]

    def observe(self, own, opp):
        if self.stage < self.tilde_T:
            a, b = (own, opp) if self.seat == "row" else (opp, own)
            self.joint[np.arange(len(a)), a, b] += 1.0
            self.node = self.policy.children[self.node, a * self.policy.num_actions + b]
        self.stage += 1

    def held(self, stages):
        return stages if self.stage >= self.tilde_T else 1


def commitment_draws(seeds) -> np.ndarray:
    """The commitment draw of IC agents with agent ``seeds`` in [0, 2**64),
    (E,): the first uniform of the stream keyed by each seed."""
    return stream_uniforms(seeds, 0, 1)[0]


def ImitateThenCommitAgent(policy: ImitationPolicy, tilde_T: int, T: int, own_type: str,
                           seat: str = "row", seed: int = 0) -> BatchIC:
    """The one-episode ``BatchIC`` of the own type named ``own_type``, with
    agent seed ``seed``."""
    return BatchIC(policy, tilde_T, T, [policy.roots.get(own_type, 0)], seat,
                   commitment_draws([seed]))


# Fits of dataset files keyed by (sha256 of the file, tilde_T, seat), oldest
# first: agents built from one file parse and fit it once per seat.  The key
# is the contents, not the modification time, which a same-size rewrite
# within one timestamp tick leaves unchanged.
_FITS: dict = {}
_FITS_KEPT = 8


def _fit_file(path, tilde_T: int, seat: str) -> ImitationPolicy:
    """The policy fit on the dataset file at ``path``, read once."""
    with open(path, "rb") as f:
        data = f.read()
    key = (hashlib.sha256(data).hexdigest(), tilde_T, seat)
    if key not in _FITS:
        dataset = parse_dataset(data, path)
        if len(_FITS) >= _FITS_KEPT:
            del _FITS[next(iter(_FITS))]
        _FITS[key] = fit_imitation(dataset, tilde_T, seat=seat)
    return _FITS[key]


def _build_ic(spec: AgentSpec, ctx: BuildContext) -> BatchIC:
    """IC agents of an in-memory ``policy`` or a ``dataset_path``, fit on this
    type space.  Only a policy in memory may have no ``type_space_hash``; its
    roots must then be exactly this type space's types."""
    tilde_T = _need(spec.params, "tilde_T", "IC")
    ts = ctx.type_space
    policy, path = spec.params.get("policy"), None
    if policy is None:
        path = _need(spec.params, "dataset_path", "IC")
        policy = _fit_file(path, tilde_T, ctx.seat)
    recorded = policy.type_space_hash
    if recorded is None and path is None:
        ours = set(policy.roots) == set(ts.types)
    else:
        ours = recorded == ts.content_hash()
    if not ours or policy.num_actions != ts.num_actions:
        raise GameError(f"{path or 'IC policy'}: dataset was generated on another type space")
    roots = ctx.per_type([policy.roots.get(t, 0) for t in ts.types])
    return BatchIC(policy, tilde_T, ctx.T, roots, ctx.seat, commitment_draws(ctx.seeds))


register_agent_kind("IC", _build_ic)


# ---------------------------------------------------------------------------
# Closed-form bounds


def delta_K(N: int, tilde_T: int, theta_count: int, K: int) -> float:
    """Total-variation imitation-error bound as a function of dataset size.

    Uses the natural logarithm of K; a log(N) variant of this constant is
    sometimes quoted, which the bound report surfaces as a discrepancy note.
    """
    bad = [f"{name}={value}" for name, value, least in
           (("N", N, 1), ("tilde_T", tilde_T, 1), ("theta_count", theta_count, 1), ("K", K, 0))
           if value < least]
    if bad:
        raise GameError("need N, tilde_T and theta_count >= 1 and dataset size K >= 0, got "
                        + ", ".join(bad))
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
    if k < 0 or N < 1:
        raise GameError(f"need handshake length k >= 0 and action count N >= 1, got k={k}, N={N}")
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
    auth = auth_failure_probability(N, k, M)
    dk = delta_K(N, tilde_T, theta_count, K)
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
