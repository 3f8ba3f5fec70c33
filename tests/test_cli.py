import json

import pytest
from click.testing import CliRunner

from cooplab.cli import main
from cooplab.harness import EXPERIMENT_KINDS


def test_enumerate_eq_reports_worst_pareto_payoffs():
    result = CliRunner().invoke(main, ["enumerate-eq", "--fixture", "coordination"])
    assert result.exit_code == 0, result.output
    assert "Nash equilibria: 3\n" in result.output
    assert "worst Pareto-optimal payoffs: row=2, col=2" in result.output


def test_enumerate_eq_on_a_degenerate_game_lists_equilibria_without_worst_payoffs(tmp_path):
    # Against the flat type every column action pays the same, so the game is
    # degenerate: its equilibrium set is a continuum.
    path = tmp_path / "ts.json"
    path.write_text(json.dumps({
        "num_actions": 2,
        "types": ["coord", "flat"],
        "payoffs": {"coord": [2, 0, 0, 1], "flat": [1, 1, 1, 1]},
    }))
    result = CliRunner().invoke(
        main, ["enumerate-eq", "--type-space", str(path), "--theta1", "coord", "--theta2", "flat"]
    )
    assert result.exit_code == 0, result.output
    assert "(degenerate game)" in result.output
    assert "row=[1, 0] col=[1, 0]" in result.output
    assert "worst Pareto-optimal payoffs: undefined for a degenerate game" in result.output


def test_gen_data_reports_a_bad_population_member_in_one_line(tmp_path):
    pop = tmp_path / "pop.json"
    pop.write_text(json.dumps({"members": [{"kind": "FixedMixed", "params": {"probs": [1.0]}}],
                               "weights": [1.0]}))
    result = CliRunner().invoke(main, ["gen-data", "--fixture", "two-types", "--population",
                                       str(pop), "--out", str(tmp_path / "ds.jsonl")])
    assert result.exit_code == 1
    assert result.output == "Error: mixed strategy has length 1, expected 2\n"


def test_an_unknown_fixture_is_a_one_line_error(tmp_path):
    for args in (["gen-data", "--out", str(tmp_path / "ds.jsonl")], ["enumerate-eq"]):
        result = CliRunner().invoke(main, [*args, "--fixture", "nope"])
        assert result.exit_code == 1
        assert result.output == (
            "Error: unknown fixture 'nope'; choose from "
            "['coordination', 'four-types', 'pd', 'two-types']\n"
        )


def test_verify_bounds_refuses_a_negative_k_and_no_actions():
    # A negative k or no actions is a one-line error, with or without --eps,
    # not an auth failure "probability" of -1 or a math domain error.
    need = "need handshake length k >= 0 and action count N >= 1"
    for args, message in ((["--k", "-1"], f"{need}, got k=-1, N=2"),
                          (["--num-actions", "0"], f"{need}, got k=2, N=0")):
        for eps in ([], ["--eps", "0.5"]):
            result = CliRunner().invoke(main, ["verify-bounds", *args, *eps])
            assert result.exit_code == 1, result.output
            assert result.output == f"Error: {message}\n"


def test_verify_bounds_names_the_argument_delta_K_refuses():
    need = "need N, tilde_T and theta_count >= 1 and dataset size K >= 0"
    for args, got in ((["--tilde-t", "0"], "tilde_T=0"), (["--theta-count", "0"], "theta_count=0"),
                      (["--dataset-size", "-1"], "K=-1")):
        result = CliRunner().invoke(main, ["verify-bounds", *args])
        assert result.exit_code == 1, result.output
        assert result.output == f"Error: {need}, got {got}\n"


def test_run_experiment_refuses_a_negative_k(tmp_path):
    result = CliRunner().invoke(main, ["--out-dir", str(tmp_path), "run-experiment", "--kind",
                                       "si-selfplay", "--episodes", "10", "-T", "20", "--k", "-1"])
    assert result.exit_code == 1, result.output
    assert result.output == ("Error: need handshake length k >= 0 and action count N >= 1, "
                             "got k=-1, N=2\n")


@pytest.mark.parametrize("n", ["0", "-1", "1"])
def test_mw_regret_refuses_fewer_than_two_actions(tmp_path, n):
    # ln N is taken only after the step size's check refuses N < 2.
    result = CliRunner().invoke(main, ["--out-dir", str(tmp_path), "run-experiment", "--kind",
                                       "mw-regret", "--num-actions", n])
    assert result.exit_code == 1, result.output
    assert result.output == f"Error: need N >= 2 and T >= 1, got N={n}, T=1000\n"


def test_ic_eval_on_one_type_needs_a_joint_type_distribution(tmp_path):
    # The default joint-type distribution pairs the first two types; with one
    # type ic-eval asks for --mu, and runs with it.
    ts, mu = tmp_path / "one.json", tmp_path / "mu.json"
    ts.write_text(json.dumps({"num_actions": 2, "types": ["only"],
                              "payoffs": {"only": [[1, 0], [0, 2]]}}))
    mu.write_text(json.dumps({"support": [["only", "only"]], "weights": [1.0]}))
    args = ["--out-dir", str(tmp_path), "run-experiment", "--kind", "ic-eval", "-T", "12",
            "--type-space", str(ts)]
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 1, result.output
    assert result.output == ("Error: ic-eval's default joint-type distribution needs two types, "
                             "the type space has 1; give one with --mu\n")
    result = CliRunner().invoke(main, [*args, "--mu", str(mu)])
    assert result.exit_code == 0, result.output


def test_emit_curves_skips_a_csv_with_a_short_row(tmp_path):
    # A truncated ic_eval.csv is skipped, as a missing column or a cell that
    # is no number is; alone, it leaves nothing to aggregate.
    truncated = "K,episode,theta1,theta2,avg_altruistic_regret\n100,0,a,b,0.5\n100,1\n"
    (tmp_path / "ic_eval.csv").write_text(truncated)
    (tmp_path / "mw_regret_N2.csv").write_text(
        "run,adversary,expected_regret,bound\n0,constant,1.5,9.0\n1,constant,2.5,9.0\n"
    )
    result = CliRunner().invoke(main, ["emit-curves", "--results-dir", str(tmp_path)])
    assert result.exit_code == 0, result.output
    assert result.stdout == "wrote mw_regret_N2_curve.tsv\n"
    assert result.stderr == "skipped ic_eval.csv: malformed or without rows\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "ic_eval.csv", "mw_regret_N2.csv", "mw_regret_N2_curve.tsv"]

    alone = tmp_path / "alone"
    alone.mkdir()
    (alone / "ic_eval.csv").write_text(truncated)
    result = CliRunner().invoke(main, ["emit-curves", "--results-dir", str(alone)])
    assert result.exit_code == 1
    assert result.stdout == ""
    assert result.stderr == ("skipped ic_eval.csv: malformed or without rows\n"
                             f"Error: no aggregatable CSV files found in {alone}\n")


def test_flatten_check_walks_the_horizon_given_by_T(tmp_path):
    # flatten-check reads its horizon from the kind option flatten_horizon;
    # -T given on the command line sets it, and without -T the default
    # horizon 3 stands.
    args = ["--out-dir", str(tmp_path), "run-experiment", "--kind", "flatten-check"]
    for flags, horizon in (([], 3), (["-T", "5"], 5)):
        result = CliRunner().invoke(main, [*args, *flags])
        assert result.exit_code == 0, result.output
        assert f"TV, horizon={horizon}: " in result.output
        rows = (tmp_path / "flatten_check.csv").read_text().splitlines()[1:]
        assert [len(row.split(",")[0]) for row in rows] == [2 * horizon] * 4 ** horizon
    # -T given at its default value is given too: the tree cap refuses it.
    result = CliRunner().invoke(main, [*args, "-T", "1000"])
    assert result.exit_code == 1, result.output
    assert result.output == ("Error: history tree has 2^2000 leaves, above the cap 600000; "
                             "use Monte-Carlo estimation instead\n")


def test_ic_eval_evaluates_the_episodes_given_by_episodes(tmp_path):
    # ic-eval reads its evaluation episode count from the kind option
    # eval_episodes; --episodes given on the command line sets it, and
    # without it the default 2 000 stands.
    args = ["--out-dir", str(tmp_path), "run-experiment", "--kind", "ic-eval", "-T", "12"]
    for flags, n in ((["--episodes", "7"], 7), ([], 2000)):
        result = CliRunner().invoke(main, [*args, *flags])
        assert result.exit_code == 0, result.output
        assert result.output.count(f"(n={n}") == 2
        assert len((tmp_path / "ic_eval.csv").read_text().splitlines()) == 3 * n + 1


@pytest.mark.parametrize("args, unread", [
    (["--kind", "mixture-check", "--episodes", "50", "-T", "5"], "-T/--horizon"),
    (["--kind", "nash-selfplay", "-T", "20", "--k", "3", "--tilde-t", "4"], "--k, --tilde-t"),
    (["--kind", "flatten-check", "--num-actions", "5"], "--num-actions"),
    (["--kind", "flatten-check", "--episodes", "1"], "--episodes"),
    (["--kind", "auth-failure", "-T", "5", "--k", "7"], "-T/--horizon, --k"),
    (["--kind", "si-consistency", "--fixture", "four-types", "--mu", "MU"], "--mu"),
    # Given at its default value, a flag is given too.
    (["--kind", "mw-regret", "--delta", "0.05"], "--delta"),
])
def test_run_experiment_refuses_a_flag_its_kind_does_not_read(tmp_path, args, unread):
    # One line naming every such flag, and no run.
    mu = tmp_path / "mu.json"
    mu.write_text(json.dumps({"support": [["alpha", "beta"]], "weights": [1.0]}))
    out = tmp_path / "out"
    result = CliRunner().invoke(main, ["--out-dir", str(out), "run-experiment",
                                       *[str(mu) if a == "MU" else a for a in args]])
    assert result.exit_code == 1, result.output
    assert result.output == f"Error: --kind {args[1]} does not read {unread}\n"
    assert not out.exists()  # refused before the run


def test_run_experiment_accepts_every_flag_its_kind_reads(tmp_path):
    # Every kind, with every run-experiment flag it reads given, runs and
    # passes its gates.
    mu = tmp_path / "mu.json"
    mu.write_text(json.dumps({"support": [["g", "g"], ["g", "d"]], "weights": [0.5, 0.5]}))
    ts = tmp_path / "ts.json"
    ts.write_text(json.dumps({"num_actions": 2, "types": ["g", "d"],
                              "payoffs": {"g": [[1, 0], [0, 0.5]], "d": [[0.5, 0], [0, 1]]}}))
    fixture = ["--type-space", str(ts)]
    given = {
        "mw-regret": ["--episodes", "5", "-T", "20", "--num-actions", "3"],
        "nash-selfplay": ["--episodes", "50", "-T", "20", "--delta", "0.1", "--fixture", "pd"],
        "si-selfplay": ["--episodes", "50", "-T", "20", "--delta", "0.1", "--k", "1", *fixture,
                        "--mu", str(mu)],
        "si-consistency": ["--episodes", "10", "-T", "20", "--delta", "0.1", "--k", "1",
                           *fixture],
        "auth-failure": ["--episodes", "20000", "--num-actions", "2"],
        "mixture-check": ["--episodes", "20"],
        "flatten-check": ["-T", "2", *fixture],
        "ic-eval": ["--episodes", "50", "-T", "12", "--delta", "0.1", "--k", "1", "--tilde-t",
                    "4", *fixture, "--mu", str(mu)],
    }
    assert sorted(given) == sorted(EXPERIMENT_KINDS)
    for kind, args in given.items():
        result = CliRunner().invoke(main, ["--out-dir", str(tmp_path / kind), "run-experiment",
                                           "--kind", kind, *args])
        assert result.exit_code == 0, (kind, result.output)
