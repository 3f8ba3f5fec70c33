"""Command-line entry points.

Subcommands: ``gen-data`` (population self-play datasets), ``run-experiment``
(seeded experiment batches with bound verification), ``verify-bounds``
(closed-form bound report), ``enumerate-eq`` (equilibrium report for one
joint game), and ``emit-curves`` (aggregate per-episode CSVs into curves).
``run-experiment`` exits nonzero when any verification fails.
"""
from __future__ import annotations

import json
import sys

import click
import numpy as np
from click.core import ParameterSource

from .game_core import GameError, TypeSpace
from .equilibria import enumerate_nash, pareto_optimal_nash, worst_pone_payoff
from .agents import (
    AgentSpec,
    build_convention_table,
    default_handshake_length,
    theorem26_params,
)
from .population import Population, TypeDistribution, generate_dataset, write_dataset
from .imitation_commit import bound_report
from .harness import (
    EXPERIMENT_KINDS,
    ExperimentConfig,
    emit_curves,
    fixture_type_space,
    run_experiment,
)

FIXTURES = {
    "coordination": "coordination_2x2.json",
    "pd": "prisoners_dilemma.json",
    "two-types": "typespace_2.json",
    "four-types": "typespace_4.json",
}


def _load_type_space(path: str | None, fixture: str | None) -> TypeSpace:
    if path is not None:
        return TypeSpace.from_file(path)
    name = fixture or "two-types"
    if name not in FIXTURES:
        raise GameError(f"unknown fixture {name!r}; choose from {sorted(FIXTURES)}")
    return fixture_type_space(FIXTURES[name])


def _load_population(path: str | None, ts: TypeSpace, T: int, k: int, delta: float) -> Population:
    if path is not None:
        with open(path) as f:
            return Population.from_dict(json.load(f))
    params = theorem26_params(delta, T, k, ts.num_actions)
    return Population(
        members=[AgentSpec("Protocol", {"eps1": params.eps1, "k": k})],
        weights=[1.0],
    )


def _load_mu(path: str | None, ts: TypeSpace) -> TypeDistribution:
    if path is None:
        return TypeDistribution.uniform(ts)
    with open(path) as f:
        return TypeDistribution.from_dict(json.load(f))


class _Main(click.Group):
    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except GameError as exc:  # "Error: ..." and exit status 1, not a traceback
            raise click.ClickException(str(exc)) from exc


@click.group(cls=_Main)
@click.option("--seed", default=0, show_default=True, help="Master random seed.")
@click.option("--out-dir", default="results", show_default=True, help="Directory for CSV artifacts.")
@click.pass_context
def main(ctx, seed, out_dir):
    """Repeated-game cooperation toolkit."""
    ctx.ensure_object(dict)
    ctx.obj.update(seed=seed, out_dir=out_dir)


@main.command("gen-data")
@click.option("--type-space", "ts_path", type=click.Path(exists=True), default=None)
@click.option("--fixture", default=None, help=f"Built-in type space: {sorted(FIXTURES)}.")
@click.option("--population", "pop_path", type=click.Path(exists=True), default=None,
              help="Population JSON ({members, weights}); default is a coordination-protocol population.")
@click.option("--mu", "mu_path", type=click.Path(exists=True), default=None,
              help="Joint-type distribution JSON ({support, weights}); default uniform.")
@click.option("-n", "--episodes", default=1000, show_default=True)
@click.option("-T", "--horizon", default=100, show_default=True)
@click.option("--delta", default=0.05, show_default=True)
@click.option("--out", "out_path", required=True, type=click.Path())
@click.pass_context
def gen_data(ctx, ts_path, fixture, pop_path, mu_path, episodes, horizon, delta, out_path):
    """Generate a population self-play dataset (line-delimited JSON)."""
    ts = _load_type_space(ts_path, fixture)
    k = default_handshake_length(len(ts.types), ts.num_actions)
    pop = _load_population(pop_path, ts, horizon, k, delta)
    mu = _load_mu(mu_path, ts)
    ds = generate_dataset(
        pop, mu, ts, episodes, horizon,
        master_seed=ctx.obj["seed"],
        convention_table=build_convention_table(ts),
    )
    write_dataset(ds, out_path)
    click.echo(f"wrote {len(ds)} episodes (T={horizon}) to {out_path}")


@main.command("run-experiment")
@click.option("--kind", required=True, type=click.Choice(EXPERIMENT_KINDS))
@click.option("--episodes", default=1000, show_default=True)
@click.option("-T", "--horizon", default=1000, show_default=True)
@click.option("--delta", default=0.05, show_default=True)
@click.option("--num-actions", default=2, show_default=True)
@click.option("--k", type=int, default=None, help="Handshake length (kind-dependent default).")
@click.option("--tilde-t", "tilde_T", type=int, default=None, help="Imitation cutoff stage.")
@click.option("--type-space", "ts_path", type=click.Path(exists=True), default=None)
@click.option("--fixture", default=None)
@click.option("--mu", "mu_path", type=click.Path(exists=True), default=None)
@click.pass_context
def run_experiment_cmd(ctx, kind, episodes, horizon, delta, num_actions, k,
                       tilde_T, ts_path, fixture, mu_path):
    """Run one experiment batch, write its CSVs, and verify its bounds."""
    ts = None
    if ts_path is not None or fixture is not None:
        ts = _load_type_space(ts_path, fixture)
    mu = None
    if mu_path is not None:
        if ts is None:
            raise GameError("--mu requires --type-space or --fixture")
        mu = _load_mu(mu_path, ts)
        mu.validate_types(ts)
    # flatten-check reads its horizon and ic-eval its evaluation episode count
    # from ``extra``: -T or --episodes, given on the command line, goes there.
    option, key = {"flatten-check": ("horizon", "flatten_horizon"),
                   "ic-eval": ("episodes", "eval_episodes")}.get(kind, (None, None))
    given = option and ctx.get_parameter_source(option) is not ParameterSource.DEFAULT
    cfg = ExperimentConfig(
        kind=kind,
        episodes=episodes,
        horizon=horizon,
        delta=delta,
        num_actions=num_actions,
        k=k,
        tilde_T=tilde_T,
        seed=ctx.obj["seed"],
        type_space=ts,
        mu=mu,
        out_dir=ctx.obj["out_dir"],
        extra={key: ctx.params[option]} if given else {},
    )
    results, artifacts = run_experiment(cfg)
    for r in results:
        click.echo(r.render())
    click.echo(f"artifacts: {', '.join(sorted(artifacts))} -> {ctx.obj['out_dir']}")
    if not all(r.passed for r in results):
        sys.exit(1)


@main.command("verify-bounds")
@click.option("--num-actions", "N", default=2, show_default=True)
@click.option("--k", default=2, show_default=True, help="Handshake length.")
@click.option("--m", "M", default=0, show_default=True, help="Unique observed handshake histories.")
@click.option("--dataset-size", "K", default=1000, show_default=True)
@click.option("--tilde-t", "tilde_T", default=10, show_default=True)
@click.option("-T", "--horizon", default=100, show_default=True)
@click.option("--theta-count", default=2, show_default=True)
@click.option("--delta", default=0.05, show_default=True)
@click.option("--eps", type=float, default=None,
              help="Consistency slack; computed from (delta, T, k, N) when omitted.")
def verify_bounds(N, k, M, K, tilde_T, horizon, theta_count, delta, eps):
    """Print the closed-form bound report for one parameter set."""
    if eps is None:
        eps = theorem26_params(delta, horizon, k, N).eps
    report = bound_report(
        N=N, k=k, M=M, K=K, tilde_T=tilde_T, T=horizon,
        theta_count=theta_count, delta=delta, eps=eps,
    )
    click.echo(report.render())


@main.command("enumerate-eq")
@click.option("--type-space", "ts_path", type=click.Path(exists=True), default=None)
@click.option("--fixture", default=None)
@click.option("--theta1", default=None, help="Row player's type (defaults to the first type).")
@click.option("--theta2", default=None, help="Column player's type (defaults to theta1).")
def enumerate_eq(ts_path, fixture, theta1, theta2):
    """Enumerate Nash equilibria and the Pareto-optimal subset of one joint game."""
    ts = _load_type_space(ts_path, fixture)
    theta1 = theta1 or ts.types[0]
    theta2 = theta2 or theta1
    game = ts.game(theta1, theta2)
    enumeration = enumerate_nash(game)
    pone = pareto_optimal_nash(game, nash=enumeration)
    click.echo(f"joint type ({theta1}, {theta2}), N={game.num_actions}")
    click.echo(f"Nash equilibria: {len(enumeration.profiles)}"
               + (" (degenerate game)" if enumeration.degenerate else ""))

    def fmt(v):
        return "[" + ", ".join(f"{x:.6g}" for x in np.asarray(v)) + "]"

    pone_set = {id(p) for p in pone.profiles}
    for prof in enumeration.profiles:
        tag = "  *" if id(prof) in pone_set else "   "
        click.echo(
            f"{tag} row={fmt(prof.sigma_row)} col={fmt(prof.sigma_col)} "
            f"values=({prof.value_row:.6g}, {prof.value_col:.6g})"
        )
    click.echo("  (* = Pareto-optimal)")
    if pone.degenerate:
        click.echo("worst Pareto-optimal payoffs: undefined for a degenerate game, "
                   "whose equilibrium set may be incomplete")
        return
    click.echo(
        "worst Pareto-optimal payoffs: "
        f"row={worst_pone_payoff(game, 'row', pone=pone):.6g}, "
        f"col={worst_pone_payoff(game, 'col', pone=pone):.6g}"
    )


@main.command("emit-curves")
@click.option("--results-dir", default=None, help="Defaults to --out-dir.")
@click.pass_context
def emit_curves_cmd(ctx, results_dir):
    """Aggregate per-episode CSVs in a results directory into curve TSVs."""
    src = results_dir or ctx.obj["out_dir"]
    emitted = emit_curves(src)
    for name in sorted(emitted):
        click.echo(f"wrote {name}")


if __name__ == "__main__":
    main()
