"""Exact Nash and Pareto-optimal-Nash enumeration for small bimatrix games.

Support enumeration is used (rather than a path-following method) because the
games here are tiny and the Pareto filter needs *all* equilibria.  Degenerate
support pairs (singular indifference systems) are skipped and flagged on the
result instead of being guessed at.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .game_core import BimatrixGame, GameError, CapacityError, check_mixed, expected_payoff

BR_TOL = 1e-12
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

    def __len__(self) -> int:
        return len(self.profiles)


def best_response(game: BimatrixGame, opponent, player: str):
    """All actions within tolerance of the best payoff against ``opponent``.

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


def _solve_support(matrix: np.ndarray, own_support, opp_support):
    """Solve the indifference system: opponent mixes over ``opp_support`` so
    that every action in ``own_support`` earns the same value.

    ``matrix`` is the *own* player's [own, opp] payoff matrix.  Returns
    (opponent strategy over opp_support, common value) or None if singular.
    """
    s = len(own_support)
    sub = matrix[np.ix_(own_support, opp_support)]
    a = np.zeros((s + 1, s + 1))
    a[:s, :s] = sub
    a[:s, s] = -1.0
    a[s, :s] = 1.0
    b = np.zeros(s + 1)
    b[s] = 1.0
    try:
        sol = np.linalg.solve(a, b)
    except np.linalg.LinAlgError:
        return None
    if not np.all(np.isfinite(sol)):
        return None
    return sol[:s], float(sol[s])


def enumerate_nash(game: BimatrixGame, max_actions: int = MAX_ACTIONS) -> NashEnumeration:
    """All Nash equilibria of a nondegenerate game via support enumeration.

    Iterates over equal-size support pairs in canonical order, solves the two
    indifference systems, and keeps solutions that are valid distributions
    with no profitable outside deviation.  Interior probabilities below
    ``EQ_TOL`` are rejected (the same equilibrium is found at the smaller
    support); singular systems set the degeneracy flag.
    """
    n = game.num_actions
    if n > max_actions:
        raise CapacityError(
            f"support enumeration capped at N={max_actions}, got N={n}"
        )
    A, B = game.payoff_row, game.payoff_col
    result = NashEnumeration(profiles=[])
    seen = set()
    for size in range(1, n + 1):
        for support_row in itertools.combinations(range(n), size):
            for support_col in itertools.combinations(range(n), size):
                # Column strategy from the row player's indifference,
                # row strategy from the column player's indifference.
                sol_q = _solve_support(A, support_row, support_col)
                sol_p = _solve_support(B, support_col, support_row)
                if sol_q is None or sol_p is None:
                    if size > 1:
                        result.degenerate = True
                    continue
                q_sub, _ = sol_q
                p_sub, _ = sol_p
                if q_sub.min() < EQ_TOL or p_sub.min() < EQ_TOL:
                    continue
                p = np.zeros(n)
                q = np.zeros(n)
                p[list(support_row)] = p_sub
                q[list(support_col)] = q_sub
                p /= p.sum()
                q /= q.sum()
                if _deviation_gain(game, p, q) > EQ_TOL:
                    continue
                key = tuple(np.round(np.concatenate([p, q]), 9))
                if key in seen:
                    result.degenerate = True
                    continue
                seen.add(key)
                result.profiles.append(
                    EquilibriumProfile(
                        sigma_row=p,
                        sigma_col=q,
                        value_row=expected_payoff(p, q, game, "row"),
                        value_col=expected_payoff(p, q, game, "col"),
                    )
                )
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
    return PoneSet(profiles=kept)


def worst_pone_payoff(
    game: BimatrixGame, player: str, pone: PoneSet | None = None
) -> float:
    """Minimum payoff for ``player`` over the Pareto-optimal Nash set."""
    if pone is None:
        pone = pareto_optimal_nash(game)
    if not pone.profiles:
        raise EquilibriumError(
            f"empty PONE set for game {game.joint_type}; cannot take a minimum"
        )
    if player == "row":
        return min(p.value_row for p in pone.profiles)
    if player == "col":
        return min(p.value_col for p in pone.profiles)
    raise GameError(f"player must be 'row' or 'col', got {player!r}")
