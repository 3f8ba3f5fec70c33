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


# sha256 of each runner's CSV at a small config, as the row-by-row writers
# made them before the runners shared ``_csv``.  The horizon-7 flatten check
# is pinned in test_selfplay_stream.py.  si-selfplay's config has one episode
# that the protocol agents finish and that falls back.
PINNED = {
    "mw-regret": (dict(episodes=60, horizon=100, num_actions=3, seed=1),
                  "2c34c29e5643d95d23485aa3795302c0f946c3e4e3065f290bdd811bc9198b11"),
    "nash-selfplay": (dict(episodes=200, horizon=50, seed=2),
                      "2b1c7f7d07f15fc73555b2788a7a814d0a1411257ff931b4f3c94ff0c28bce8b"),
    "si-selfplay": (dict(episodes=200, horizon=100, delta=0.5, k=2, seed=3, type_space=TS4),
                    "d9fe233ccdbf029be265344286c046972f3a80462d48c5ff90dbb2f135fc255b"),
    "si-consistency": (dict(episodes=40, horizon=60, delta=0.1, k=2, seed=4, type_space=TS4),
                       "65c17194a38be7d0cb3807fe1a5df2fe3ca0f28408c0b722ea2de3b6658bfc36"),
    "auth-failure": (dict(episodes=500, seed=5),
                     "f857d34c09eadf4cb50dae16433c1aa5082e46311022a1c5d52991991a402a19"),
    "mixture-check": (dict(episodes=60, seed=6),
                      "624d9289a0b18c0cb819f3209104ecee92cbb0ca7ed3d557f5b65f0ea60c52fd"),
    "ic-eval": (dict(horizon=20, k=1, tilde_T=6, delta=0.1, seed=7, type_space=TS2,
                     extra={"K_values": [20, 60], "eval_episodes": 100}),
                "4a2190e513fe390633ab215b7a8cec937fab3a1f7da00475ca1dd0834c7521ab"),
}


@pytest.mark.parametrize("kind", sorted(PINNED))
def test_runner_artifact_keeps_its_pinned_bytes(kind):
    kwargs, digest = PINNED[kind]
    _, artifacts = run_experiment(ExperimentConfig(kind=kind, **kwargs))
    [text] = artifacts.values()
    assert hashlib.sha256(text.encode()).hexdigest() == digest
