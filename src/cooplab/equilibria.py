"""Exact Nash and Pareto-optimal-Nash enumeration for small bimatrix games.

Support enumeration is used (rather than a path-following method) because the
games here are tiny and the Pareto filter needs *all* equilibria.  Degenerate
games (singular indifference systems, repeated profiles) are flagged instead of
guessed at, and the worst Pareto-optimal payoff refuses them.
"""
from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field

import numpy as np

from .game_core import BimatrixGame, GameError, CapacityError, check_mixed

EQ_TOL = 1e-9
MAX_ACTIONS = 5


class EquilibriumError(GameError):
    """Equilibrium machinery failed an invariant (e.g. empty PONE set)."""


@dataclass(frozen=True)
class EquilibriumProfile:
    sigma_row: np.ndarray
    sigma_col: np.ndarray
    value_row: float
    value_col: float

    def payoffs(self) -> tuple[float, float]:
        return (self.value_row, self.value_col)


@dataclass
class NashEnumeration:
    profiles: list[EquilibriumProfile]
    degenerate: bool = False


@dataclass
class PoneSet:
    profiles: list[EquilibriumProfile] = field(default_factory=list)
    degenerate: bool = False  # copied from the enumeration: the set may be incomplete

    def __len__(self) -> int:
        return len(self.profiles)


def _deviation_gain(game: BimatrixGame, p: np.ndarray, q: np.ndarray) -> float:
    """Largest pure-deviation gain of either player at profile (p, q)."""
    row_vals = game.payoff_row @ q
    col_vals = game.payoff_col @ p
    gain_row = row_vals.max() - p @ row_vals
    gain_col = col_vals.max() - q @ col_vals
    return float(max(gain_row, gain_col))


def is_nash(game: BimatrixGame, p, q, tol: float = EQ_TOL) -> bool:
    p = check_mixed(p, game.num_actions)
    q = check_mixed(q, game.num_actions)
    return _deviation_gain(game, p, q) <= tol


def _solve_stack(systems: np.ndarray) -> np.ndarray:
    """Solve every ``a x = e_last`` in the stack; rows of singular ones are NaN."""
    rhs = np.eye(systems.shape[-1])[-1]
    try:
        return np.linalg.solve(systems, rhs[:, None])[..., 0]
    except np.linalg.LinAlgError:  # one singular system fails the whole stack
        out = np.full(systems.shape[:-1], np.nan)
        for i, a in enumerate(systems):
            try:
                out[i] = np.linalg.solve(a, rhs)
            except np.linalg.LinAlgError:
                pass
        return out


@functools.cache
def _support_pairs(n: int, size: int) -> tuple:
    """Index arrays for one size's support pairs in canonical order, each support
    ending in the border index n: the gather of p's, then q's, systems and the
    flat scatter of the solutions into (2, pairs, n); read-only, being shared."""
    supports = np.array([s + (n,) for s in itertools.combinations(range(n), size)])
    k = len(supports)
    index = np.stack([np.repeat(supports, k, axis=0), np.tile(supports, (k, 1))])
    gather = (np.repeat([0, 1], k * k)[:, None, None],
              index[::-1].reshape(-1, size + 1, 1), index.reshape(-1, 1, size + 1))
    flat = index[..., :size] + n * np.arange(2 * k * k).reshape(2, -1, 1)
    for a in (*gather, flat):
        a.setflags(write=False)
    return gather, flat


def enumerate_nash(game: BimatrixGame) -> NashEnumeration:
    """All Nash equilibria of a nondegenerate game via support enumeration.

    Each support size k solves its C(n,k)^2 (row, column) support pairs in
    canonical order as one stack of both players' (k+1)x(k+1) indifference
    systems, p from the column player's and q from the row player's.  The
    valid candidates of every size, in size order, then go through one pass:
    normalisation, the deviation test and the duplicate check.  Valid
    distributions with no profitable outside deviation are kept; interior
    probabilities below ``EQ_TOL`` are rejected (the smaller support finds
    the same equilibrium).  Singular systems and repeated profiles set
    ``degenerate``: the set may then be incomplete.

    The deviation test is batched too and keeps exactly what ``_deviation_gain``
    keeps.  For p, q >= 0 summing to 1 + O(nu), u = 2^-53, a length-n dot
    product in any order errs by at most gamma_n max|A|, gamma_n = nu/(1 - nu)
    (Higham, *Accuracy and Stability of Numerical Algorithms*, 2nd ed., §3.1).
    A gain max(A q) - p.(A q) has three such errors plus u|gain| <= 2u max|A|,
    so two computations of the players' larger gain differ by about at most
    (3n + 2) 2^-52 (max|A| + max|B|).  The slack, 8 (n + 2) 2^-52 (max|A| +
    max|B|), is over 2.6 times that, with room for rounding EQ_TOL -+ slack.
    Gains at most EQ_TOL - slack pass and those above EQ_TOL + slack fail;
    only the band between and non-finite gains go to ``_deviation_gain``.
    """
    n = game.num_actions
    if n > MAX_ACTIONS:
        raise CapacityError(f"support enumeration capped at N={MAX_ACTIONS}, got N={n}")
    A, B = game.payoff_row, game.payoff_col
    # Each system is a submatrix of [[M, -1], [1, 0]]: M = B for p's, A for q's.
    systems = np.zeros((2, n + 1, n + 1))
    systems[:, :n, :n], systems[:, :n, n], systems[:, n, :n] = (B, A), -1.0, 1.0
    slack = 8 * (n + 2) * 2.0**-52 * (np.abs(A).max() + np.abs(B).max())
    result = NashEnumeration(profiles=[])
    candidates = []
    for size in range(1, n + 1):
        gather, flat = _support_pairs(n, size)
        sol = _solve_stack(systems[gather]).reshape(2, -1, size + 1)
        solved = np.isfinite(sol).all(axis=(0, 2))
        if size > 1 and not solved.all():
            result.degenerate = True
        pq = np.zeros((2, len(solved), n))
        pq.put(flat, sol[..., :size])
        candidates.append(pq[:, solved & (sol[..., :size].min(axis=(0, 2)) >= EQ_TOL)])
    pq = np.concatenate(candidates, axis=1)
    pq /= pq.sum(axis=2, keepdims=True)
    P, Q = pq
    rv, cv = Q @ A.T, P @ B.T
    gain = np.maximum(rv.max(1) - (P * rv).sum(1), cv.max(1) - (Q * cv).sum(1))
    passed = gain <= EQ_TOL - slack
    for i in (~passed & ~(gain > EQ_TOL + slack)).nonzero()[0]:
        passed[i] = _deviation_gain(game, P[i], Q[i]) <= EQ_TOL
    # Python floats hash and compare like the float64 scalars they come from.
    keys = np.round(np.concatenate([P, Q], axis=1)[passed], 9).tolist()
    seen = set()
    for i, key in zip(passed.nonzero()[0], map(tuple, keys)):
        if key in seen:
            result.degenerate = True
            continue
        seen.add(key)
        # expected_payoff's arithmetic; P[i] and Q[i] are valid by construction.
        result.profiles.append(EquilibriumProfile(
            P[i], Q[i], float(P[i] @ A @ Q[i]), float(Q[i] @ B @ P[i])))
    return result


def _strongly_dominates(a: EquilibriumProfile, b: EquilibriumProfile, tol: float) -> bool:
    return (a.value_row > b.value_row + tol) and (a.value_col > b.value_col + tol)


def pareto_optimal_nash(
    game: BimatrixGame, nash: NashEnumeration | None = None
) -> PoneSet:
    """Filter the Nash set down to profiles not strongly Pareto-dominated.

    Strong domination means a strict improvement for *both* players; weak
    domination is deliberately not used.
    """
    if nash is None:
        nash = enumerate_nash(game)
    kept = [
        p
        for p in nash.profiles
        if not any(
            _strongly_dominates(other, p, EQ_TOL)
            for other in nash.profiles
            if other is not p
        )
    ]
    return PoneSet(profiles=kept, degenerate=nash.degenerate)


def worst_pone_payoff(
    game: BimatrixGame, player: str, pone: PoneSet | None = None
) -> float:
    """Minimum payoff for ``player`` over the Pareto-optimal Nash set of a
    nondegenerate game; a degenerate one raises ``EquilibriumError``."""
    if pone is None:
        pone = pareto_optimal_nash(game)
    if pone.degenerate:
        raise EquilibriumError(
            f"degenerate game {game.joint_type}: its Nash set may be incomplete"
        )
    if not pone.profiles:
        raise EquilibriumError(
            f"empty PONE set for game {game.joint_type}; cannot take a minimum"
        )
    if player == "row":
        return min(p.value_row for p in pone.profiles)
    if player == "col":
        return min(p.value_col for p in pone.profiles)
    raise GameError(f"player must be 'row' or 'col', got {player!r}")
