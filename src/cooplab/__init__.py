"""Finitely-repeated bimatrix games with private types: equilibrium
enumeration, regret accounting, handshake-coordination and
imitate-then-commit agents, population datasets, and a verification harness
for the associated concentration and performance bounds.
"""

from .game_core import (
    BimatrixGame,
    CapacityError,
    EpisodeTrace,
    GameError,
    GameFormatError,
    History,
    HistoryDistribution,
    TypeSpace,
    exact_episode_value,
    expected_payoff,
    history_distribution,
    normalize_game,
)
from .equilibria import (
    EquilibriumProfile,
    NashEnumeration,
    PoneSet,
    enumerate_nash,
    is_nash,
    pareto_optimal_nash,
    worst_pone_payoff,
)
from .regret import (
    AzumaThresholds,
    azuma_thresholds,
    expected_external_regret,
)
from .agents import (
    AgentSpec,
    ConventionTable,
    SocialParams,
    build_agent,
    build_agents,
    build_convention_table,
    default_eta,
    default_handshake_length,
    handshake_encode,
    protocol_threshold,
    register_agent_kind,
    theorem26_params,
)
from .population import (
    Dataset,
    Population,
    TypeDistribution,
    derive_episode_seed,
    derive_episode_seeds,
    flatten_population,
    generate_dataset,
    play_episode,
    read_dataset,
    run_episode,
    write_dataset,
)
from .imitation_commit import (
    ImitateThenCommitAgent,
    ImitationPolicy,
    auth_failure_probability,
    bound_report,
    delta_K,
    fit_imitation,
    theorem42_bound,
)
from .harness import (
    ExperimentConfig,
    VerificationResult,
    emit_curves,
    run_experiment,
)

__version__ = "0.1.0"
