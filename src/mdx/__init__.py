"""mdx: metric-distortion toolkit for ranked voting.

Social choice rules with worst-case metric-distortion guarantees, exact
weighted-tournament analysis, an LP evaluator for worst-case distortion over
consistent metrics, and an exhaustive verifier for the cycle-matching
property on small elections.
"""

from mdx.conjecture import Verdict, check_cycle_condition, count_canonical, verify_conjecture
from mdx.instances import INSTANCE_BUILDERS, NamedInstance
from mdx.matching import (
    build_cover_graph,
    hall_violator,
    interval_test,
    matching_uncovered_set,
    max_matching,
    rank_sum_test,
)
from mdx.metriclp import (
    InconsistentMetricError,
    Metric,
    check_consistent,
    instance_distortion,
    max_distortion,
    pairwise_distortion_lp,
    parse_metric,
    serialize_metric,
)
from mdx.profile import (
    ProfileParseError,
    VotingProfile,
    pairwise_counts,
    parse_profile,
    prefer_at_least,
    prefer_at_most,
    restrict_profile,
    serialize_profile,
    triple_count,
)
from mdx.rules import RULE_IDS, RuleOutcome, Threshold, apply_rule
from mdx.tournament import (
    WeightedTournamentGraph,
    build_tournament,
    find_cyclic_symmetry,
    parse_graph,
    serialize_graph,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "INSTANCE_BUILDERS",
    "InconsistentMetricError",
    "Metric",
    "NamedInstance",
    "ProfileParseError",
    "RULE_IDS",
    "RuleOutcome",
    "Threshold",
    "Verdict",
    "VotingProfile",
    "WeightedTournamentGraph",
    "apply_rule",
    "build_cover_graph",
    "build_tournament",
    "check_consistent",
    "check_cycle_condition",
    "count_canonical",
    "find_cyclic_symmetry",
    "hall_violator",
    "instance_distortion",
    "interval_test",
    "matching_uncovered_set",
    "max_distortion",
    "max_matching",
    "pairwise_counts",
    "pairwise_distortion_lp",
    "parse_graph",
    "parse_metric",
    "parse_profile",
    "prefer_at_least",
    "prefer_at_most",
    "rank_sum_test",
    "restrict_profile",
    "serialize_graph",
    "serialize_metric",
    "serialize_profile",
    "triple_count",
    "verify_conjecture",
]
