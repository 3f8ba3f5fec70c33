"""Desk-scale acceptance battery.

One test per verified claim, each printing a single PASS/FAIL line.  The
shared experiment runs are module-scoped so the determinism check can rerun
every configuration once and compare artifacts byte for byte.
"""
import numpy as np
import pytest

from cooplab.equilibria import enumerate_nash, pareto_optimal_nash
from cooplab.harness import (
    ExperimentConfig,
    _ci99_mean,
    fixture_type_space,
    run_experiment,
)

TS4 = fixture_type_space("typespace_4.json")
TS2 = fixture_type_space("typespace_2.json")

CONFIGS = {
    "mw_N2": dict(kind="mw-regret", episodes=500, horizon=1000, num_actions=2, seed=101),
    "mw_N5": dict(kind="mw-regret", episodes=500, horizon=1000, num_actions=5, seed=102),
    "nash_selfplay": dict(
        kind="nash-selfplay", episodes=10_000, horizon=500, delta=0.05, seed=103
    ),
    "si_selfplay": dict(
        kind="si-selfplay", episodes=10_000, horizon=1000, delta=0.1, k=2, seed=104
    ),
    "si_consistency": dict(
        kind="si-consistency", episodes=1000, horizon=1000, delta=0.1, k=2, seed=105
    ),
    "auth_failure": dict(kind="auth-failure", episodes=100_000, seed=106),
    "mixture_check": dict(kind="mixture-check", episodes=1000, seed=107),
    "flatten_check": dict(kind="flatten-check", episodes=1, seed=108),
    "ic_eval": dict(
        kind="ic-eval", horizon=40, k=1, tilde_T=10, delta=0.1, seed=109,
        extra={"K_values": [100, 1000, 10_000], "eval_episodes": 2000},
    ),
}


def make_config(name) -> ExperimentConfig:
    kw = dict(CONFIGS[name])
    if name in ("si_selfplay", "si_consistency"):
        kw["type_space"] = TS4
    if name == "ic_eval":
        kw["type_space"] = TS2
        kw["extra"] = dict(kw["extra"])
    return ExperimentConfig(**kw)


_CACHE = {}


def run(name):
    if name not in _CACHE:
        _CACHE[name] = run_experiment(make_config(name))
    return _CACHE[name]


def report(label, results):
    ok = all(r.passed for r in results)
    print(f"\n[{'PASS' if ok else 'FAIL'}] {label}")
    for r in results:
        if not r.passed:
            print("   ", r.render())
    return ok


def test_criterion_1_equilibrium_oracle():
    # Coordination game: exactly the two pure profiles plus the (1/3, 2/3)
    # mixed profile; only the high-payoff pure profile survives the Pareto
    # filter.  Defection dilemma: a single equilibrium that is its own PONE.
    coord = fixture_type_space("coordination_2x2.json").game("coord", "coord")
    nash = enumerate_nash(coord)
    got = sorted((round(p.sigma_row[0], 12), round(p.sigma_col[0], 12)) for p in nash.profiles)
    want = [(0.0, 0.0), (1 / 3, 1 / 3), (1.0, 1.0)]
    assert len(got) == 3
    for (gp, gq), (wp, wq) in zip(got, want):
        assert abs(gp - wp) <= 1e-9 and abs(gq - wq) <= 1e-9
    pone = pareto_optimal_nash(coord, nash=nash)
    assert len(pone) == 1
    assert abs(pone.profiles[0].sigma_row[0] - 1.0) <= 1e-9
    assert pone.profiles[0].payoffs() == (pytest.approx(2.0), pytest.approx(2.0))

    dilemma = fixture_type_space("prisoners_dilemma.json").game("pd", "pd")
    nash_d = enumerate_nash(dilemma)
    pone_d = pareto_optimal_nash(dilemma, nash=nash_d)
    assert len(nash_d.profiles) == 1 and len(pone_d) == 1
    assert abs(nash_d.profiles[0].sigma_row[1] - 1.0) <= 1e-9
    print("\n[PASS] criterion 1: equilibrium and Pareto-filter oracle")


def test_criterion_2_mw_regret_bound_holds_surely():
    results = [r for name in ("mw_N2", "mw_N5") for r in run(name)[0]]
    assert report("criterion 2: MW expected regret within sqrt((T/2) ln N) in all runs", results)


def test_criterion_3_selfplay_concentration():
    results, _ = run("nash_selfplay")
    realized = [r for r in results if r.label.startswith("realized regret")]
    assert len(realized) == 2
    assert report("criterion 3: realized regret concentration at a mixed equilibrium", results)


def test_criterion_4_protocol_compatibility():
    results, _ = run("si_selfplay")
    assert any("without fallback" in r.label for r in results)
    assert report(
        "criterion 4: handshake protocol self-play reaches convention payoffs", results
    )


def test_criterion_5_protocol_consistency():
    results, _ = run("si_consistency")
    assert report(
        "criterion 5: protocol regret bound against the adversary zoo", results
    )


def test_criterion_6_authentication_failure_frequency():
    results, _ = run("auth_failure")
    exact = [r for r in results if r.bound == 0.0]
    assert exact and all(r.statistic == 0.0 for r in exact)
    assert report("criterion 6: authentication-failure frequency matches the product form", results)


def test_criterion_7_commitment_mixture_identity():
    results, _ = run("mixture_check")
    assert report(
        "criterion 7: commitment-mixture payoff identity and best-response inequality",
        results,
    )


def test_criterion_8_population_flattening_equivalence():
    results, _ = run("flatten_check")
    assert results[0].statistic <= 1e-9
    assert report("criterion 8: flattened agent reproduces the population mixture", results)


def test_criterion_9_imitate_then_commit_end_to_end():
    results, _ = run("ic_eval")
    assert report(
        "criterion 9: IC altruistic regret nonincreasing in K and within the bound",
        results,
    )


def test_ic_eval_monotonicity_detail_carries_each_paired_step():
    # Each K step, as a paired difference over the same evaluation episodes,
    # recomputed from the CSV, with its 99% CI; the gate's statistic stays
    # the step of the means.
    results, artifacts = run("ic_eval")
    gate = results[0]
    values = {}
    for line in artifacts["ic_eval.csv"].splitlines()[1:]:
        K, *_, v = line.split(",")
        values.setdefault(int(K), []).append(float(v))
    Ks = CONFIGS["ic_eval"]["extra"]["K_values"]
    for K1, K2 in zip(Ks, Ks[1:]):
        d = np.array(values[K2]) - np.array(values[K1])
        assert (f"; paired step K={K1}->{K2}: {float(d.mean()):+.5f} "
                f"ci {_ci99_mean(d):.2g}") in gate.detail
    means = [float(np.mean(values[K])) for K in Ks]
    assert gate.statistic == float(np.diff(means).max())
    assert gate.detail.count("paired step") == len(Ks) - 1 == 2


def test_criterion_10_byte_identical_reruns():
    mismatched = []
    for name in CONFIGS:
        _, first = run(name)
        _, second = run_experiment(make_config(name))
        if first != second:
            mismatched.append(name)
    ok = not mismatched
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion 10: byte-identical CSV artifacts on rerun")
    assert ok, f"non-deterministic artifacts: {mismatched}"
