"""The streamed self-play kernels of nash-selfplay and si-selfplay, checked
against the engine on the same episode streams and against whole-run
reference regrets, si-selfplay's count bound against the protocol agents'
own regret accumulator, and their sampler against the engine's; the batched
mixture check against its former per-case loop on the scalar oracle; and
the flatten-check rows against their former code."""
import functools
import hashlib
import math
import operator
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cooplab import harness
from cooplab.agents import AgentSpec, build_agent, build_convention_table, tree_act_fn
from cooplab.engine import (
    BatchFixedMixed,
    EpisodeStreams,
    RegretKernel,
    play_batch,
    sample_actions,
)
from cooplab.game_core import (
    BimatrixGame,
    GameError,
    TypeSpace,
    check_mixed,
    history_distribution,
    normalize_game,
)
from cooplab.harness import (
    STREAM_TAGS,
    ExperimentConfig,
    _choice,
    _at_least,
    _choice_cuts,
    _count_regrets,
    _iid_actions,
    _mixture_statistics,
    _random_joint,
    _selfplay_regrets,
    fixture_type_space,
    run_experiment,
)
from cooplab.equilibria import enumerate_nash
from cooplab.imitation_commit import COMPONENT_TOL, commitment_mixtures, partition_replies
from cooplab.population import Population, derive_episode_seeds, flatten_population, play_episodes
from scalar_agents import column_partition, joint_codes, mixture_from_joint


# ---------------------------------------------------------------------------
# Reference implementations: whole-run regrets, the per-component reply, the
# per-case mixture check and the flatten check's former rows


def engine_actions(sigma, z):
    """The engine's actions for the strategy ``sigma`` from the uniforms of
    the raw draws ``z``."""
    u = (z >> np.uint64(11)) * 2.0**-53
    return sample_actions(np.broadcast_to(sigma, (u.size, len(sigma))), u.ravel()).reshape(u.shape)


def selfplay_on_the_engine(p, q, keys, T):
    """The (episodes, T) row and column actions of two fixed mixed agents
    played by the engine on the streams with ``keys``, C-ordered as the
    kernel's: numpy sums their rows pairwise."""
    E = len(keys)
    row, col = (BatchFixedMixed(np.tile(sigma, (E, 1))) for sigma in (p, q))
    record = play_batch(row, col, T, EpisodeStreams(keys), record=True)
    return np.ascontiguousarray(record[:, 0].T), np.ascontiguousarray(record[:, 1].T)


def whole_run_selfplay_regrets(game, p, q, acts_row, acts_col):
    n = game.num_actions
    out = {}
    for player, own, opp, sigma, m in (
        ("row", acts_row, acts_col, p, game.payoff_row),
        ("col", acts_col, acts_row, q, game.payoff_col),
    ):
        opp_counts = np.stack(
            [(opp == j).sum(axis=1) for j in range(n)], axis=1
        ).astype(float)
        counterfactual = opp_counts @ m.T
        # Each (own, opp) pair's count times its payoff, added left to right
        # with the own action outermost.
        realized = functools.reduce(operator.add, [((own == a) & (opp == b)).sum(axis=1) * m[a, b]
                                                   for a in range(n) for b in range(n)])
        expected = opp_counts @ (sigma @ m)
        out[player] = (
            counterfactual.max(axis=1) - realized,
            counterfactual.max(axis=1) - expected,
        )
    return out


def per_component_reply(z, component_index):
    marginals = z.sum(axis=0)
    support = [j for j in range(z.shape[1]) if marginals[j] > COMPONENT_TOL]
    j = support[component_index]
    for grp in column_partition(z):
        if j in grp:
            y = np.zeros(z.shape[1])
            total = sum(marginals[l] for l in grp)
            for l in grp:
                y[l] = marginals[l] / total
            return y
    raise AssertionError("column not found in its own partition")


def per_case_random_joint(z, n, style):
    """The former per-case ``_random_joint``: one joint of ``style``."""
    u = (z[: n * n + 1] >> np.uint64(11)) * 2.0**-53
    if style == 0:
        joint = u[: n * n].reshape(n, n) + 1e-3
    elif style == 1:
        x, y = u[:n] + 1e-3, u[n : 2 * n] + 1e-3
        joint = np.outer(x / x.sum(), y / y.sum())
    elif style == 2:
        joint = u[: n * n].reshape(n, n) + 1e-3
        joint[:, 1] = joint[:, 0] * (0.25 + u[n * n])
    else:
        joint = np.zeros((n, n))
        cuts = _choice_cuts(np.full(n, 1 / n))
        joint[_choice(z[1 : n + 1], cuts), np.arange(n)] = u[n + 1 : 2 * n + 1] + 1e-3
        joint[:, _choice(z[0], cuts)] = 0.0
    return joint / joint.sum()


def per_case_mixture_statistics(joint, B):
    """The former per-case loop of the mixture check, on the scalar oracle:
    (identity error, best-response slack)."""
    n = len(joint)
    col_value = float(sum(joint[i, j] * B[j, i] for i in range(n) for j in range(n)))
    mixture = mixture_from_joint(joint)
    mix_value = 0.0
    br_value = 0.0
    for (x, w), y in zip(mixture.components, mixture.replies()):
        mix_value += w * float(y @ B @ x)
        br_value += w * float((B @ x).max())
    return abs(mix_value - col_value), br_value - col_value


def sorted_flatten_rows(mixture, flat_dist):
    rows = ["history,prob_population,prob_flattened"]
    for h in sorted(set(mixture) | set(flat_dist)):
        label = "".join(f"{a}{b}" for a, b in h)
        rows.append(
            f"{label},{float(mixture.get(h, 0.0))!r},{float(flat_dist.get(h, 0.0))!r}"
        )
    return "\n".join(rows) + "\n"


# ---------------------------------------------------------------------------
# Strategies


@st.composite
def mixed_strategy(draw, n):
    """A mixed strategy over n actions, often with zero entries."""
    w = draw(st.lists(st.sampled_from([0.0, 0.0, 0.05, 0.3, 0.5, 1.0, 2.7]), min_size=n, max_size=n))
    if sum(w) == 0.0:
        w[draw(st.integers(0, n - 1))] = 1.0
    w = np.asarray(w)
    return w / w.sum()


@st.composite
def game_and_profile(draw, max_n=4):
    n = draw(st.integers(2, max_n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    game = BimatrixGame(rng.random((n, n)), rng.random((n, n)))
    return game, draw(mixed_strategy(n)), draw(mixed_strategy(n))


# ---------------------------------------------------------------------------
# The sampler


@st.composite
def raw_strategy(draw, n):
    """A strategy as the sampler may meet it: often with zero entries,
    trailing ones too, tolerance-level negatives, and a sum of 1 up to
    rounding or of anything."""
    w = draw(st.lists(st.sampled_from([0.0, 0.0, -1e-13, 0.05, 0.3, 0.5, 1.0, 2.7]),
                      min_size=n, max_size=n))
    if max(w) <= 0.0:
        w[draw(st.integers(0, n - 1))] = 1.0
    w = np.asarray(w + [0.0] * draw(st.integers(0, 2)))
    return w / w.sum() if draw(st.booleans()) else w


def near_cuts(p):
    """Raw draws around every running sum of ``p`` below 1: the last draw
    whose uniform is below it, one unit below its threshold, the threshold
    and one unit above."""
    sums = np.maximum(p, 0.0).cumsum()
    thresholds = [math.ceil(c * 2**53) << 11 for c in sums.tolist() if 0.0 <= c < 1.0]
    near = {t + d for t in thresholds for d in (-(1 << 11), -1, 0, 1)}
    return np.array(sorted(z for z in near | {0, 2**64 - 1} if 0 <= z < 2**64), np.uint64)


@settings(max_examples=300, deadline=None)
@given(n=st.integers(2, 5), data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_choice_equals_the_engine_sampler(n, data, seed):
    p = data.draw(raw_strategy(n))
    random = np.random.default_rng(seed).integers(0, 2**64, size=50, dtype=np.uint64)
    z = np.concatenate([random, near_cuts(p)])
    acts = _choice(z, _choice_cuts(p))
    assert np.array_equal(acts, engine_actions(p, z))
    assert acts.dtype == np.uint8


@pytest.mark.parametrize("p", [(1.0, 1e-10), (0.6, 0.4 + 1e-10, 1e-10), (1.0, 0.0, 5e-10)],
                         ids=["cut at 1", "cut above 1", "cut at 1 before a zero"])
def test_choice_never_crosses_a_cut_at_or_above_one(p):
    # check_mixed passes these; a uniform is below 1, so the cut is never
    # crossed, and its threshold, 2**64 or more, must not wrap to a small one.
    p = check_mixed(p, len(p))
    z = np.concatenate([near_cuts(p), np.array([2**63, 2**64 - 2**11, 2**64 - 1], np.uint64)])
    acts = _choice(z, _choice_cuts(p))
    assert np.array_equal(acts, engine_actions(p, z))
    assert acts.max() == int(np.flatnonzero(np.maximum(p, 0.0).cumsum() >= 1.0)[0])


def test_choice_draws_on_a_cut_like_searchsorted():
    # A draw at a cut's threshold takes the action after it, as
    # searchsorted(side="right") does, and as the engine does; a draw one
    # unit below, or whose uniform is the one below, takes the action before.
    p = np.array([0.25, 0.0, 0.5, 0.25])
    cuts = _choice_cuts(p)
    assert cuts.tolist() == [math.ceil(c * 2**53) << 11 for c in (0.25, 0.25, 0.75)]
    z = np.concatenate([cuts - np.uint64(1 << 11), cuts - np.uint64(1), cuts, cuts + np.uint64(1)])
    assert np.array_equal(_choice(z, cuts), cuts.searchsorted(z, side="right"))
    assert np.array_equal(_choice(z, cuts), engine_actions(p, z))
    assert _choice(z, cuts).tolist() == [0, 0, 2] * 2 + [2, 2, 3] * 2


def test_choice_takes_the_engine_action_on_a_sum_short_of_one():
    # The strategy sums to 1 - 2**-53: a draw at its first running sum takes
    # the second action, where cuts normalized to a total of 1 would not.
    p = np.array([0.5, 0.5 - 2.0**-53])
    z = np.array([2**63, 2**64 - 2**11], np.uint64)  # the uniforms 0.5 and 1 - 2**-53
    assert _choice(z, _choice_cuts(p)).tolist() == engine_actions(p, z).tolist() == [1, 1]


def test_choice_never_draws_a_zero_probability_last_action():
    p = np.array([0.5, 0.5, 0.0])
    z = np.concatenate([near_cuts(p), np.random.default_rng(2).integers(0, 2**64, 5000, np.uint64)])
    acts = _choice(z, _choice_cuts(p))
    assert np.array_equal(acts, engine_actions(p, z))
    assert acts.max() == 1


def test_choice_never_draws_a_tolerance_level_negative_action():
    # check_mixed accepts -1e-13; counted as 0, it never wins a draw, even
    # one that falls between the cuts it would otherwise put out of order.
    p = np.array([0.5, -1e-13, 0.5 + 1e-13])
    z = np.concatenate([near_cuts(p), np.random.default_rng(3).integers(0, 2**64, 5000, np.uint64)])
    acts = _choice(z, _choice_cuts(p))
    assert np.array_equal(acts, engine_actions(p, z))
    assert 1 not in acts


# ---------------------------------------------------------------------------
# si-selfplay count bound


WORD = 64  # stages per packed word of _joint_counts: a block of the count bound

STAGE_COUNTS = st.one_of(
    st.integers(1, WORD - 1),
    st.sampled_from([WORD, 2 * WORD]),
    st.integers(WORD + 1, 3 * WORD + 5),
)


def block_counts(opp, n):
    """The opponent's action counts (episodes, blocks, n) in each WORD
    stages of its (episodes, stages) actions: the count bound's input, by
    one reduction per block."""
    starts = np.arange(0, opp.shape[1], WORD)
    return np.stack([np.add.reduceat(opp == j, starts, axis=1) for j in range(n)], axis=2)


def handshake_kernel(m, handshake, episodes):
    """The regret kernel of protocol agents in ``episodes`` episodes after a
    pure handshake of (own, opp) action pairs, as the agents accrue it."""
    kernel = RegretKernel(np.broadcast_to(m, (episodes, *m.shape)))
    eye = np.eye(len(m))
    for own, opp in handshake:
        kernel.update(np.tile(eye[own], (episodes, 1)), np.full(episodes, opp))
    return kernel


def agents_accumulators(kernel, sigma, opp):
    """The accumulator of ``kernel``'s agents after each stage (episodes,
    stages) while they announce ``sigma`` against the actions ``opp``."""
    announced = np.tile(sigma, (len(opp), 1))
    acc = np.empty(opp.shape)
    for s in range(opp.shape[1]):
        kernel.update(announced, opp[:, s])
        acc[:, s] = kernel.regret()
    return acc


def bound_covers_the_agents(bound, m, sigma, opp, h_cf):
    """Whether ``bound`` is at least the agents' accumulator at every stage,
    from the handshake sums ``h_cf`` and an expected payoff of 0."""
    kernel = handshake_kernel(m, [], len(opp))
    kernel.counterfactual[:] = h_cf
    return bool((bound >= agents_accumulators(kernel, sigma, opp).max(axis=1)).all())


def runs_of_actions(rng, n, episodes, stages, run):
    """(episodes, stages) actions in runs of one action, ``run`` stages long
    on average."""
    starts = rng.random((episodes, stages)) < 1.0 / run
    starts[:, 0] = True
    actions = rng.integers(0, n, size=(episodes, stages + 1))
    return np.take_along_axis(actions, starts.cumsum(axis=1), axis=1).astype(np.uint8)


@settings(max_examples=200, deadline=None)
@given(
    data=st.data(),
    n=st.integers(2, 5),
    episodes=st.integers(1, 8),
    stages=STAGE_COUNTS,
    scale=st.sampled_from([1.0, 30.0, 1e3]),
    run=st.sampled_from([1, 5, WORD, 10**9]),
    handshake=st.integers(0, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_trigger_bound_covers_every_accumulator(data, n, episodes, stages, scale, run, handshake,
                                                seed):
    # The protocol agents' RegretKernel, stepped through a pure handshake and
    # then along the opponent's actions, never exceeds the bound taken from
    # its handshake sums.  Runs of one action through a whole block make the
    # bound tight up to rounding, which the slack must cover.
    rng = np.random.default_rng(seed)
    m = (rng.random((n, n)) - 0.5) * scale  # signed payoffs
    sigma = data.draw(mixed_strategy(n))
    kernel = handshake_kernel(m, rng.integers(0, n, size=(handshake, 2)).tolist(), episodes)
    opp = runs_of_actions(rng, n, episodes, stages, run)
    bound = harness._trigger_bound(m, sigma, block_counts(opp, n),
                                   kernel.counterfactual[0].copy(), float(kernel.expected[0]))
    assert (bound >= agents_accumulators(kernel, sigma, opp).max(axis=1)).all()


def block_end_bound(m, sigma, opp, h_cf, h_exp):
    """A count bound that takes every count at its block's end only."""
    ends = np.append(np.arange(WORD, opp.shape[1], WORD), opp.shape[1]) - 1
    hi = np.stack([np.cumsum(opp == j, axis=1)[:, ends] for j in range(len(m))], axis=2)
    return (hi @ (m - sigma @ m).T + (h_cf - h_exp)).max(axis=(1, 2))


def test_a_bound_from_block_end_counts_alone_fails_the_cover_check():
    # With m = I and sigma = (1, 0) the accumulator is max(0, count_1 -
    # count_0).  In each block the opponent plays 1, then 0 as often, so it
    # is back at 0 at every block end, but WORD / 2 in between.
    m, sigma, h_cf = np.eye(2), np.array([1.0, 0.0]), np.zeros(2)
    half = WORD // 2
    opp = np.tile(np.repeat(np.array([1, 0], np.uint8), half), (3, 2))
    assert not bound_covers_the_agents(block_end_bound(m, sigma, opp, h_cf, 0.0), m, sigma, opp,
                                       h_cf)
    bound = harness._trigger_bound(m, sigma, block_counts(opp, 2), h_cf, 0.0)
    assert bound_covers_the_agents(bound, m, sigma, opp, h_cf)
    assert np.allclose(bound, half)


def test_count_bound_never_clears_a_handshake_over_the_threshold():
    # With payoffs [[-1, -1], [0, 0]], sigma = (0, 1) and handshake sums
    # (3, 0), the accumulator is 3 when the handshake ends and falls by 1 a
    # stage; the agents, which check it after each convention stage only,
    # never exceed 2.  The bound counts the handshake's end too.
    m, sigma, h_cf = np.array([[-1.0, -1.0], [0.0, 0.0]]), np.array([0.0, 1.0]), np.array([3.0, 0.0])
    opp = np.zeros((4, 100), dtype=np.uint8)
    bound = harness._trigger_bound(m, sigma, block_counts(opp, 2), h_cf, 0.0)
    assert bound_covers_the_agents(np.full(4, 2.0), m, sigma, opp, h_cf)
    assert (bound >= 3.0).all()


# ---------------------------------------------------------------------------
# nash-selfplay regrets


@settings(max_examples=60, deadline=None)
@given(
    gp=game_and_profile(),
    episodes=st.integers(1, 40),
    T=st.integers(1, 30),
    chunk=st.sampled_from([1, 7, 16, 500]),
    cells=st.sampled_from([1, 50, 1 << 16]),
    seed=st.integers(0, 2**32 - 1),
)
def test_selfplay_regrets_equal_whole_run(gp, episodes, T, chunk, cells, seed):
    # The kernel's regrets are those of the actions the engine samples for
    # two fixed mixed agents on the same streams, whatever its chunk and
    # block sizes.
    game, p, q = gp
    keys = np.random.default_rng(seed).integers(0, 2**64, size=episodes, dtype=np.uint64)
    with mock.patch.multiple(harness, SELFPLAY_CHUNK=chunk, ROW_BLOCK_CELLS=cells):
        got = _selfplay_regrets(game, p, q, keys, T)
    want = whole_run_selfplay_regrets(game, p, q, *selfplay_on_the_engine(p, q, keys, T))
    for player in ("row", "col"):
        for a, b in zip(got[player], want[player]):
            assert np.array_equal(a, b)


def test_selfplay_regrets_over_chunks_of_the_default_size():
    # 1234 episodes: two full chunks and a partial one.
    rng = np.random.default_rng(0)
    game = BimatrixGame(rng.random((3, 3)), rng.random((3, 3)))
    p, q = np.array([0.2, 0.0, 0.8]), np.array([0.5, 0.25, 0.25])
    assert 1234 % harness.SELFPLAY_CHUNK
    keys = rng.integers(0, 2**64, size=1234, dtype=np.uint64)
    got = _selfplay_regrets(game, p, q, keys, 50)
    want = whole_run_selfplay_regrets(game, p, q, *selfplay_on_the_engine(p, q, keys, 50))
    for player in ("row", "col"):
        for a, b in zip(got[player], want[player]):
            assert np.array_equal(a, b)


def test_count_regrets_do_not_depend_on_the_layout_of_the_counts():
    # BLAS may round a matrix product by its operand's strides, so the same
    # counts, C- and F-ordered, must give the same regrets bit for bit.  The
    # size is one at which F-ordered opponent counts rounded differently.
    rng = np.random.default_rng(5)
    game = BimatrixGame(rng.random((3, 3)), rng.random((3, 3)))
    p, q = np.array([0.2, 0.3, 0.5]), np.array([0.5, 0.25, 0.25])
    counts = rng.multinomial(77, np.full(9, 1 / 9), size=1234).reshape(1234, 3, 3)
    fortran = np.asfortranarray(counts)
    assert fortran.flags.f_contiguous and not fortran.flags.c_contiguous
    got, want = _count_regrets(game, p, q, fortran), _count_regrets(game, p, q, counts)
    for player in ("row", "col"):
        for a, b in zip(got[player], want[player]):
            assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("profile", [None, ([0.2, 0.8], [1.0, 0.0])], ids=["mixed", "given"])
def test_nash_selfplay_is_fixed_mixed_agents_on_play_episodes(profile):
    # 1234 episodes: two full chunks and a partial one.  Episode e is the one
    # play_episodes plays on its seed, and its regrets are that episode's.
    assert 1234 % harness.SELFPLAY_CHUNK
    ts = fixture_type_space("coordination_2x2.json")
    cfg = ExperimentConfig(kind="nash-selfplay", episodes=1234, horizon=50, seed=8, type_space=ts,
                           extra={} if profile is None else {"profile": profile})
    _, artifacts = run_experiment(cfg)
    game = normalize_game(ts.game("coord", "coord"))
    if profile is None:  # the full-support equilibrium, (1/3, 2/3) up to rounding
        [mixed] = [e for e in enumerate_nash(game).profiles
                   if min(e.sigma_row.min(), e.sigma_col.min()) > 0]
        p, q = mixed.sigma_row, mixed.sigma_col
    else:
        p, q = map(np.array, profile)
    tag = STREAM_TAGS["nash-selfplay episodes"]
    keys = derive_episode_seeds(cfg.seed, (tag << 32) + np.arange(cfg.episodes))
    fixed = lambda sigma: ([AgentSpec("FixedMixed", {"probs": sigma.tolist()})], [0] * len(keys))
    codes = joint_codes(ts, [("coord", "coord")] * len(keys))
    [(_, _, record)] = play_episodes(fixed(p), fixed(q), codes, ts, 50, keys, record=True)
    # The sampler's indicators are those of the record's actions, chunk by
    # chunk, and its chunks cover every episode in order.
    stop = 0
    for rows, row_ge, col_ge in _iid_actions(keys, p, q, 0, 50):
        assert rows.start == stop
        stop = rows.stop
        assert np.array_equal(row_ge, _at_least(record[:, 0, rows].T, 2))
        assert np.array_equal(col_ge, _at_least(record[:, 1, rows].T, 2))
    assert stop == cfg.episodes
    acts = [np.ascontiguousarray(record[:, seat].T) for seat in (0, 1)]
    regs = whole_run_selfplay_regrets(game, p, q, *acts)
    rows = [line.split(",") for line in artifacts["nash_selfplay.csv"].splitlines()[1:]]
    for r, (episode, player, realized, expected) in enumerate(rows):
        seat, e = divmod(r, cfg.episodes)
        assert (int(episode), player) == (e, ("row", "col")[seat])
        assert (float(realized), float(expected)) == (regs[player][0][e], regs[player][1][e])


def test_si_selfplay_csv_is_independent_of_block_sizes():
    cfg = dict(kind="si-selfplay", episodes=400, horizon=90, delta=0.9, k=2, seed=5,
               type_space=fixture_type_space("typespace_4.json"))
    results, want = run_experiment(ExperimentConfig(**cfg))
    assert "cleared by the count bound 0," not in results[0].detail
    with mock.patch.multiple(harness, SELFPLAY_CHUNK=7, ROW_BLOCK_CELLS=100):
        _, got = run_experiment(ExperimentConfig(**cfg))
    assert got == want
    # A count bound that clears nothing leaves every episode to the agents,
    # and each replayed episode is the one the sampler counted, so the CSV
    # does not depend on which episodes the bound clears either.
    clears_nothing = lambda m, sigma, blocks, h_cf, h_exp: np.full(len(blocks), np.inf)
    with mock.patch.object(harness, "_trigger_bound", clears_nothing):
        results, got = run_experiment(ExperimentConfig(**cfg))
    assert "cleared by the count bound 0, replayed by the agents 400," in results[0].detail
    assert got == want


def test_si_selfplay_detail_counts_its_episodes():
    ts = fixture_type_space("typespace_4.json")
    results, artifacts = run_experiment(
        ExperimentConfig(kind="si-selfplay", episodes=2000, horizon=60, delta=0.9, k=2,
                         seed=5, type_space=ts)
    )
    rows = [line.split(",") for line in artifacts["si_selfplay.csv"].splitlines()[1:]]
    fallbacks = sum(row[-1] == "1" for row in rows)
    assert fallbacks > 0
    table = build_convention_table(ts)
    pure = sum(
        min(table.profile((a, b)).sigma_row.max(), table.profile((a, b)).sigma_col.max()) > 1 - 1e-12
        for _, a, b, *_ in rows
    )
    detail = results[0].detail
    assert f"pure-convention episodes {pure}," in detail
    assert f"fallbacks {fallbacks}, first at stage " in detail
    assert int(detail.split("first at stage ")[1]) >= 2  # after the handshake
    replayed = int(detail.split("replayed by the agents ")[1].split(",")[0])
    assert fallbacks <= replayed <= len(rows) - pure
    # Each episode is cleared by the count bound or replayed by the agents.
    cleared = int(detail.split("cleared by the count bound ")[1].split(",")[0])
    assert cleared + replayed == len(rows)


# ---------------------------------------------------------------------------
# Boundary rejection of a nash-selfplay profile


@pytest.mark.parametrize(
    "profile",
    [
        ([float("nan"), 0.5], [0.5, 0.5]),
        ([0.5, 0.5], [1.2, -0.2]),
        ([0.5, 0.6], [0.5, 0.5]),
        ([0.5, 0.5], [0.2, 0.3, 0.5]),
    ],
    ids=["nan", "negative", "unnormalized", "wrong-length"],
)
def test_nash_selfplay_rejects_a_bad_profile(profile):
    with pytest.raises(GameError):
        run_experiment(
            ExperimentConfig(kind="nash-selfplay", episodes=5, horizon=10, extra={"profile": profile})
        )


# ---------------------------------------------------------------------------
# mixture-check replies and flatten-check rows


@settings(max_examples=80, deadline=None)
@given(n=st.integers(2, 5), style=st.integers(0, 3), cases=st.integers(1, 4),
       seed=st.integers(0, 2**32 - 1))
def test_response_functions_equal_per_component_replies(n, style, cases, seed):
    draws = np.random.default_rng(seed).integers(0, 2**64, size=(cases, n * n + 1),
                                                 dtype=np.uint64)
    z = _random_joint(draws, n, style)
    mixtures = commitment_mixtures(z)
    replies, weights = partition_replies(mixtures), mixtures.weights
    for case in range(cases):
        kept = np.flatnonzero(weights[case])
        assert len(kept) == len(mixture_from_joint(z[case]).components)
        for c, j in enumerate(kept):
            assert np.array_equal(replies[case, j], per_component_reply(z[case], c))
        assert not replies[case, weights[case] == 0].any()


def assert_mixture_matches_oracle(joint, B):
    """The batched components, weights, replies and both statistics equal
    the per-case oracle's, bit for bit."""
    conditionals, weights, marginals = mixtures = commitment_mixtures(joint)
    replies = partition_replies(mixtures)
    errors, slacks = _mixture_statistics(joint, B)
    for case, z in enumerate(joint):
        mixture = mixture_from_joint(z)
        kept = np.flatnonzero(weights[case])
        assert [j for j in range(len(z)) if z[:, j].sum() > COMPONENT_TOL] == kept.tolist()
        for (x, w), y, j in zip(mixture.components, mixture.replies(), kept, strict=True):
            assert np.array_equal(conditionals[case, j], x) and weights[case, j] == w
            assert marginals[case, j] == z.sum(axis=0)[j]
            assert np.array_equal(replies[case, j], y)
        expected = np.array(per_case_mixture_statistics(z, B[case]))
        got = np.array([errors[case], slacks[case]])
        assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))


def payoff_draws(draws, n):
    """The column payoff matrices the mixture check reads after each joint."""
    return ((draws[:, n * n + 1 : 2 * n * n + 1] >> np.uint64(11)) * 2.0**-53).reshape(-1, n, n)


@settings(max_examples=120, deadline=None)
@given(n=st.integers(2, 5), style=st.integers(0, 3), cases=st.integers(1, 12),
       seed=st.integers(0, 2**32 - 1))
def test_batched_mixture_check_equals_the_per_case_oracle(n, style, cases, seed):
    draws = np.random.default_rng(seed).integers(0, 2**64, size=(cases, 2 * n * n + 1),
                                                 dtype=np.uint64)
    joint = _random_joint(draws, n, style)
    expected = np.array([per_case_random_joint(z, n, style) for z in draws])
    assert np.array_equal(joint.view(np.uint64), expected.view(np.uint64))
    assert_mixture_matches_oracle(joint, payoff_draws(draws, n))


def test_mixture_check_drops_a_column_below_tolerance():
    # Column 1's mass is positive but below COMPONENT_TOL: no component.
    z = np.array([[0.4, 5e-13, 0.1], [0.2, 0.0, 0.1], [0.1, 0.0, 0.1 - 5e-13]])
    draws = np.random.default_rng(1).integers(0, 2**64, size=(2, 19), dtype=np.uint64)
    joint = np.stack([z, _random_joint(draws[1:], 3, 3)[0]])
    conditionals, weights, _ = commitment_mixtures(joint)
    assert weights[0, 1] == 0.0 and not conditionals[0, 1].any()
    assert (weights[1] == 0.0).sum() == 1  # the sparse style empties one column
    assert_mixture_matches_oracle(joint, payoff_draws(draws, 3))


def test_mixture_check_groups_every_column_of_a_product_joint():
    draws = np.random.default_rng(2).integers(0, 2**64, size=(5, 33), dtype=np.uint64)
    joint = _random_joint(draws, 4, 1)
    replies = partition_replies(commitment_mixtures(joint))
    for z, y in zip(joint, replies):
        assert column_partition(z) == [[0, 1, 2, 3]]
        assert (y == y[0]).all()
    assert_mixture_matches_oracle(joint, payoff_draws(draws, 4))


def test_mixture_check_partition_is_not_transitive():
    # Column 1 matches column 0's conditional and column 2 matches column 1's,
    # but not column 0's, the group's first column: column 2 starts a group.
    x0 = np.array([0.4, 0.3, 0.3])
    x1 = x0 + np.array([2e-10, -2e-10, 0.0])
    x2 = x1 + np.array([2e-10, -2e-10, 0.0])
    z = np.stack([x0, x1, x2], axis=1) * np.array([0.2, 0.3, 0.5])
    assert column_partition(z) == [[0, 1], [2]]
    replies = partition_replies(commitment_mixtures(z[None]))[0]
    assert np.array_equal(replies[0], replies[1]) and replies[2].tolist() == [0.0, 0.0, 1.0]
    assert replies[0] == pytest.approx([0.4, 0.6, 0.0])
    assert_mixture_matches_oracle(z[None], np.random.default_rng(3).random((1, 3, 3)))


# Eleven actions at horizon 1: labels such as "103" join multi-digit actions.
TS11 = TypeSpace(
    types=("a", "b"),
    payoff_table={t: np.random.default_rng(i).random((11, 11)) for i, t in enumerate("ab")},
)


def _flatten_case(case):
    """(type space, population, probe, horizon) of a flatten check."""
    ts = fixture_type_space("typespace_2.json")
    probe = AgentSpec("FixedMixed", {"probs": [0.6, 0.4]})
    if case == "default":
        return ts, harness._default_flatten_population(), probe, 3
    if case == "zero-weight member first":
        # The zero-weight member's leaves, all after the other's, come first in
        # the mixture and are missing from the flattened agent's leaves.
        pop = Population(
            members=[AgentSpec("FixedSequence", {"actions": [1, 1, 1]}),
                     AgentSpec("FixedSequence", {"actions": [0, 0, 0]})],
            weights=[0.0, 1.0],
        )
        return ts, pop, probe, 3
    probs = np.zeros(11)
    probs[[0, 3, 10]] = [0.5, 0.2, 0.3]
    # Three members share the leaves that end in action 10, so the order of
    # the mixture's sums shows; the zero-weight member's leaves are the
    # mixture's alone.
    pop = Population(
        members=[AgentSpec("FixedSequence", {"actions": [10]}),
                 AgentSpec("FixedMixed", {"probs": (np.arange(11) / 55).tolist()}),
                 AgentSpec("FixedMixed", {"probs": [0.0] + [0.1] * 10}),
                 AgentSpec("FixedSequence", {"actions": [0]})],
        weights=[0.3, 0.3, 0.4, 0.0],
    )
    return TS11, pop, AgentSpec("FixedMixed", {"probs": probs.tolist()}), 1


@pytest.mark.parametrize("case", ["default", "zero-weight member first", "N=11, T=1"])
def test_flatten_check_rows_equal_sorted_rows(case):
    ts, pop, probe_spec, horizon = _flatten_case(case)
    n = ts.num_actions
    [result], artifacts = run_experiment(
        ExperimentConfig(kind="flatten-check", type_space=ts, population=pop,
                         extra={"flatten_horizon": horizon, "probe": probe_spec})
    )
    probe = build_agent(probe_spec, ts, horizon, "row", ts.types[0])

    def walk(spec):
        col = build_agent(spec, ts, horizon, seat="col", own_type=ts.types[0])
        return history_distribution(tree_act_fn(probe, "row"), tree_act_fn(col, "col"), n, horizon)

    mixture = {}
    for member, weight in zip(pop.members, pop.weights):
        for h, pr in walk(member).items():
            mixture[h] = mixture.get(h, 0.0) + weight * pr
    flat = walk(flatten_population(pop))
    assert artifacts["flatten_check.csv"] == sorted_flatten_rows(mixture, flat)
    assert result.sample_count == len(mixture)
    assert result.detail.startswith(
        f"leaves: population mixture {len(mixture)}, flattened agent {len(flat)};")
    if case != "default":
        assert not mixture.keys() <= flat.keys()


def test_flatten_check_refuses_history_labels_that_collide():
    # Labels join actions with no separator: at N = 11 and horizon 2, the
    # histories ((0, 1), (0, 10)) and ((0, 10), (1, 0)) are both "01010".
    uniform = AgentSpec("UniformRandom")
    cfg = ExperimentConfig(kind="flatten-check", type_space=TS11,
                           population=Population(members=[uniform], weights=[1.0]),
                           extra={"flatten_horizon": 2, "probe": uniform})
    with pytest.raises(GameError, match="share a label"):
        run_experiment(cfg)


# Recorded from the dict-keyed flatten check this one replaced.
FLATTEN_H7_SHA256 = "219875f0d2dc568e541d3870905bfe79aadf212263046ec106fe95ff54008553"


def test_flatten_check_at_horizon_7_is_pinned():
    results, artifacts = run_experiment(ExperimentConfig(
        kind="flatten-check", episodes=1, seed=108,
        type_space=fixture_type_space("typespace_2.json"), extra={"flatten_horizon": 7},
    ))
    [r] = results
    csv = artifacts["flatten_check.csv"].encode()
    assert hashlib.sha256(csv).hexdigest() == FLATTEN_H7_SHA256
    assert (r.statistic, r.sample_count) == (1.3014495798439814e-16, 16384)
    assert r.detail == ("leaves: population mixture 16384, flattened agent 16384; "
                        "nodes walked 11176 in 4 walks")
