"""The one CSV writer of the experiment runners, checked against the
row-by-row f-string writers it replaced, and every runner's artifact pinned
at a small config."""
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cooplab.harness import ExperimentConfig, _csv, fixture_type_space, run_experiment

TS2 = fixture_type_space("typespace_2.json")
TS4 = fixture_type_space("typespace_4.json")


def rowwise_csv(header, *columns):
    """The former writers: each row one f-string, a float cell the repr of
    the Python float ``tolist`` gives, any other cell formatted as is."""
    lists = [col.tolist() if isinstance(col, np.ndarray) else list(col) for col in columns]
    rows = [header]
    for cells in zip(*lists):
        rows.append(",".join(f"{c!r}" if isinstance(c, float) else f"{c}" for c in cells))
    return "\n".join(rows) + "\n"


SPECIAL = [0.0, -0.0, float("nan"), -float("nan"), float("inf"), -float("inf"),
           5e-324, -5e-324, 2.225073858507201e-308, 1e-310, 0.1, 1 / 3, 1e16, -1.5]
# Any float64, NaN payloads included, as a raw bit pattern.
any_bits = st.integers(0, 2**64 - 1).map(lambda b: float(np.uint64(b).view(np.float64)))
float_pool = st.lists(st.sampled_from(SPECIAL) | any_bits
                      | st.floats(allow_nan=True, allow_infinity=True), min_size=1, max_size=4)


@st.composite
def columns(draw):
    """A header and 1 to 5 columns of one length: float64 arrays drawn from
    a pool of at most four values, so cells repeat heavily, mixed with int
    arrays, int lists and str lists."""
    length = draw(st.integers(1, 30))
    cols = []
    for kind in draw(st.lists(st.sampled_from(["float", "int", "ints", "str"]),
                              min_size=1, max_size=5)):
        if kind == "float":
            pool = draw(float_pool)
            picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=length, max_size=length))
            cols.append(np.array([pool[i] for i in picks], dtype=np.float64))
        elif kind == "int":
            cols.append(np.array(draw(st.lists(st.integers(-2**63, 2**63 - 1),
                                               min_size=length, max_size=length))))
        elif kind == "ints":
            cols.append(draw(st.lists(st.integers(), min_size=length, max_size=length)))
        else:
            cols.append(draw(st.lists(st.text("ab,_Z", max_size=4), min_size=length,
                                      max_size=length)))
    return ",".join(f"c{i}" for i in range(len(cols))), cols


@settings(max_examples=300, deadline=None)
@given(columns())
def test_csv_matches_the_row_by_row_writers(case):
    header, cols = case
    assert _csv(header, *cols) == rowwise_csv(header, *cols)


def test_csv_keeps_the_sign_of_zero_and_writes_nan_and_infinities():
    a = np.array([0.0, -0.0, -0.0, np.nan, np.inf, -np.inf, 0.0])
    assert _csv("x", a) == "x\n0.0\n-0.0\n-0.0\nnan\ninf\n-inf\n0.0\n"
    assert _csv("x,y", np.array([-0.0]), ["a"]) == "x,y\n-0.0,a\n"


def test_csv_writes_a_float_column_of_a_strided_view():
    a = np.array([[0.5, 1.0], [0.5, 2.0], [-0.0, 3.0]])
    assert _csv("x,y", a[:, 0], a[:, 1]) == rowwise_csv("x,y", a[:, 0], a[:, 1])


@pytest.mark.parametrize("cols", [
    (np.zeros(3), [1, 2]),
    ([1, 2], np.zeros(3)),
    (range(2), np.zeros(2), ["a", "b", "c"]),
    (np.zeros(1), np.zeros(2)),
])
def test_csv_refuses_columns_of_unequal_length(cols):
    with pytest.raises(ValueError):
        _csv(",".join("x" * len(cols)), *cols)


# sha256 of each runner's CSV at a small config, as ``_csv`` wrote them when
# every draw became a counter draw; before, they were pinned as the row-by-row
# writers made them.  The horizon-7 flatten check is pinned in
# test_selfplay_stream.py.  The agents replay 8 of si-selfplay's 200
# episodes, none of which falls back; test_harness.py checks the replays
# against play_episodes.  si-selfplay's digest changed once more when its
# payoffs came to be summed from joint action counts.  mw-regret's changed
# when the MW learner came to read Hedge's cumulative payoffs from its regret
# kernel's counterfactual sums, eta times a sum in place of a sum of eta
# times each payoff row: its regrets moved by rounding only.
PINNED = {
    "mw-regret": (dict(episodes=60, horizon=100, num_actions=3, seed=1),
                  "9f862bda0bf7187cbeb06004fee1032bfe34256ff79d77320e5efedc24daec5a"),
    "nash-selfplay": (dict(episodes=200, horizon=50, seed=2),
                      "0525d9143ac31763e1e57fd373442bdd5ae8cc96eabd5bacd4a9720447e5dc38"),
    "si-selfplay": (dict(episodes=200, horizon=100, delta=0.5, k=2, seed=3, type_space=TS4),
                    "0b2d7b1d34ad74438c8db2f0d93f3a209c15fba3484c1a34edb225699eb68375"),
    "si-consistency": (dict(episodes=40, horizon=60, delta=0.1, k=2, seed=4, type_space=TS4),
                       "6dc8fa6a9d42d03b57b974df2c895af62667cb4970b3719cfe9615eb67b20f0f"),
    "auth-failure": (dict(episodes=500, seed=5),
                     "8697d380f2c34740a4dedd397bf8a1e4b93bbd9bce29ecb22dc4a0aaf17fdd13"),
    "mixture-check": (dict(episodes=60, seed=6),
                      "983d2f24e51a82347dabd85644f83f3a33f57000c9fe6de1d0b15412f12a9ede"),
    "ic-eval": (dict(horizon=20, k=1, tilde_T=6, delta=0.1, seed=7, type_space=TS2,
                     extra={"K_values": [20, 60], "eval_episodes": 100}),
                "08e60cb32ff5cc1f818733bd0b50e1ccf25bd64c91fe4a636a60635470e1e14c"),
}


@pytest.mark.parametrize("kind", sorted(PINNED))
def test_runner_artifact_keeps_its_pinned_bytes(kind):
    kwargs, digest = PINNED[kind]
    _, artifacts = run_experiment(ExperimentConfig(kind=kind, **kwargs))
    [text] = artifacts.values()
    assert hashlib.sha256(text.encode()).hexdigest() == digest


# sha256 of mixture_check.csv at the acceptance size (1 000 cases), as the
# per-case loop wrote it before the check ran as array passes.
MIXTURE_CHECK_PINNED = {
    107: "3ef0fcfeff5ab8de8ecadb6c40ae3ad5a869463fe63fe8c203bc03a955a9080c",
    1107: "b928d962c0c0c7cd57d85f7925595a0e71d1353f643b1aa11250a15f9a90f678",
}


@pytest.mark.parametrize("seed", sorted(MIXTURE_CHECK_PINNED))
def test_mixture_check_keeps_its_pinned_bytes_at_the_acceptance_size(seed):
    _, artifacts = run_experiment(ExperimentConfig(kind="mixture-check", episodes=1000, seed=seed))
    text = artifacts["mixture_check.csv"]
    assert hashlib.sha256(text.encode()).hexdigest() == MIXTURE_CHECK_PINNED[seed]
