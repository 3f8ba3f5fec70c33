"""Every gate can fail: each claim's experiment, run once on its true input
and once on a false one built by patching a binding, passes on the first and
fails on the second.  The configs are small versions of the acceptance
configs.

Two gates are left out.  auth-failure's check simulates its own formula's
assumptions, so no false input of the agents reaches it.  ic-eval's final-K
upper bound is vacuous at this scale: it passes even at K = 0."""
import numpy as np
import pytest

from cooplab import agents, harness
from cooplab.agents import AgentSpec, ConventionTable
from cooplab.harness import ExperimentConfig, fixture_type_space, run_experiment

TS2 = fixture_type_space("typespace_2.json")
TS4 = fixture_type_space("typespace_4.json")


def gates(cfg):
    results, _ = run_experiment(cfg)
    return {r.label: r.passed for r in results}


def test_mw_regret_fails_with_a_step_size_twenty_times_too_large(monkeypatch):
    cfg = lambda: ExperimentConfig(kind="mw-regret", episodes=50, horizon=300, num_actions=2,
                                   seed=1)
    assert all(gates(cfg()).values())
    eta = harness.default_eta
    monkeypatch.setattr(harness, "default_eta", lambda n, T: 20 * eta(n, T))
    assert not any(gates(cfg()).values())


def test_nash_selfplay_fails_on_a_profile_that_is_no_equilibrium():
    cfg = lambda **kw: ExperimentConfig(kind="nash-selfplay", episodes=200, horizon=200, seed=1,
                                        **kw)
    assert all(gates(cfg()).values())
    # The seats miscoordinate, and each would gain by switching its action.
    false = gates(cfg(extra={"profile": ([1.0, 0.0], [0.0, 1.0])}))
    assert not false["realized regret (row) violation freq <= delta"]
    assert not false["realized regret (col) violation freq <= delta"]


def test_si_selfplay_fails_with_two_types_conventions_swapped(monkeypatch):
    cfg = lambda: ExperimentConfig(kind="si-selfplay", episodes=400, horizon=200, delta=0.1,
                                   k=2, seed=1, type_space=TS4)
    assert all(gates(cfg()).values())
    build = harness.build_convention_table

    def swapped(ts):
        # Each joint type gets the convention of the one with types 0 and 1
        # exchanged.
        a, b = ts.types[:2]
        rename = {a: b, b: a}
        return ConventionTable({
            (rename.get(r, r), rename.get(c, c)): profile
            for (r, c), profile in build(ts).table.items()
        })

    monkeypatch.setattr(harness, "build_convention_table", swapped)
    false = gates(cfg())
    assert not all(false.values())
    # Only the payoffs of joint types that hold type 0 or 1 can miss.
    assert all(
        passed or any(repr(t) in label for t in TS4.types[:2])
        for label, passed in false.items()
    )


def test_si_consistency_fails_with_the_tripwire_switched_off(monkeypatch):
    cfg = lambda: ExperimentConfig(kind="si-consistency", episodes=40, horizon=300, delta=0.1,
                                   k=2, seed=1, type_space=TS4)
    assert all(gates(cfg()).values())
    # The protocol never falls back to MW, so an adversary that leaves the
    # convention makes it regret more than the bound allows.
    monkeypatch.setattr(agents, "protocol_threshold", lambda *args: float("inf"))
    assert not any(gates(cfg()).values())


def test_flatten_check_fails_with_perturbed_weights(monkeypatch):
    cfg = lambda: ExperimentConfig(kind="flatten-check", episodes=1, seed=1)
    assert all(gates(cfg()).values())
    flatten = harness.flatten_population

    def moved(pop):
        spec = flatten(pop)
        weights = list(spec.params["weights"])
        weights[0] += 0.01
        weights[1] -= 0.01
        return AgentSpec(spec.kind, dict(spec.params, weights=weights))

    monkeypatch.setattr(harness, "flatten_population", moved)
    assert not any(gates(cfg()).values())


def test_mixture_check_fails_with_a_component_dropped(monkeypatch):
    cfg = lambda: ExperimentConfig(kind="mixture-check", episodes=12, seed=1)
    assert all(gates(cfg()).values())
    commitment_mixtures = harness.commitment_mixtures

    def dropped(z):
        # Each case's last kept component goes, and the rest keep their weights.
        mixtures = commitment_mixtures(z)
        weights = mixtures.weights
        last = weights.shape[1] - 1 - np.argmax(weights[:, ::-1] > 0, axis=1)
        weights[np.arange(len(weights)), last] = 0.0
        return mixtures

    monkeypatch.setattr(harness, "commitment_mixtures", dropped)
    assert not gates(cfg())["mixture response-function payoff identity"]


@pytest.mark.parametrize("K_values, monotone", [([0, 30, 300], True), ([300, 30, 0], False)])
def test_ic_eval_monotonicity_fails_when_the_data_shrink(K_values, monotone):
    cfg = ExperimentConfig(kind="ic-eval", horizon=40, k=1, tilde_T=10, delta=0.1, seed=6,
                           type_space=TS2, extra={"K_values": K_values, "eval_episodes": 200})
    results, _ = run_experiment(cfg)
    assert results[0].label.startswith("mean avg altruistic regret nonincreasing")
    assert results[0].passed is monotone
    # The final-K bound holds either way, even at K = 0: it is vacuous here.
    assert results[1].passed
