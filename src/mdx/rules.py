"""Social choice rules over weighted tournaments and profiles.

Classic rules (Copeland, uncovered set, ranked pairs, Schulze), the
lambda-weighted uncovered set with its golden-ratio instantiation, the
matching uncovered set rule, and the LP-optimal rule that minimizes the
per-candidate worst-case distortion value.

Tournament rules decide on the graph's integer counts |XY|: comparing a
weight |XY|/m with 1/2, a rational or another weight compares integers.
Against the irrational golden ratio phi = (sqrt(5)-1)/2, since sqrt(5)*m
is never an integer, inequalities are decided exactly by squaring.  Every
rule breaks remaining ties by the lexicographically smallest candidate
name, so outcomes are fully deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from mdx.matching import matching_uncovered_set
from mdx.metriclp import DEFAULT_LP_CAP, lps_against
from mdx.metriclp import pairwise_distortion_lp  # not called here; bench/tracing.py patches this name
from mdx.profile import VotingProfile, iter_set
from mdx.tournament import WeightedTournamentGraph, build_tournament

__all__ = [
    "RULE_IDS",
    "Threshold",
    "RuleOutcome",
    "copeland_winner",
    "uncovered_set",
    "uncovered_winner",
    "weighted_uncovered_set",
    "weighted_uncovered_winner",
    "matching_uncovered_winner",
    "ranked_pairs_winner",
    "schulze_winner",
    "optimal_lp_winner",
    "apply_rule",
]

# optimal-lp treats worst-case values within this of the minimum as tied: the
# float simplex can split an exact tie in its last digits (rotational n=5
# gives D 2.999999999999999 and E 3.000000000000001).
LP_TIE_TOL = 1e-9


@dataclass(frozen=True)
class Threshold:
    """A comparison threshold lambda: rational p/q in [0,1], or golden phi.

    Provides the two tests the weighted uncovered set needs, both exact:
    ``count >= lambda*m`` and ``count >= (1-lambda)*m``.
    """

    num: int | None = None
    den: int | None = None

    def __post_init__(self):
        if (self.num is None) != (self.den is None):
            raise ValueError("rational threshold needs numerator and denominator")
        if self.num is not None:
            if self.den <= 0 or not 0 <= self.num <= self.den:
                raise ValueError("rational threshold must lie in [0,1]")

    @classmethod
    def golden(cls) -> "Threshold":
        return cls(None, None)

    @classmethod
    def rational(cls, num: int, den: int) -> "Threshold":
        return cls(num, den)

    @classmethod
    def parse(cls, text: str) -> "Threshold":
        if text.strip().lower() in ("phi", "golden"):
            return cls.golden()
        frac = Fraction(text.strip())
        return cls(frac.numerator, frac.denominator)

    @property
    def is_golden(self) -> bool:
        return self.num is None

    def __str__(self) -> str:
        return "phi" if self.is_golden else f"{self.num}/{self.den}"

    def below_half(self) -> bool:
        if self.is_golden:
            return False
        return 2 * self.num < self.den

    def at_least_lam(self, count: int, m: int) -> bool:
        """count >= lambda * m, exactly."""
        if self.is_golden:
            # count >= phi*m <=> 2*count + m >= sqrt(5)*m; both sides >= 0.
            return (2 * count + m) ** 2 >= 5 * m * m
        return count * self.den >= self.num * m

    def at_least_complement(self, count: int, m: int) -> bool:
        """count >= (1 - lambda) * m, exactly."""
        if self.is_golden:
            # count >= (1-phi)*m <=> 2*count - 3*m >= -sqrt(5)*m.
            lhs = 3 * m - 2 * count
            return lhs <= 0 or lhs * lhs <= 5 * m * m
        return count * self.den >= (self.den - self.num) * m


@dataclass(frozen=True)
class RuleOutcome:
    """winner: candidate index; support: rule-specific reproducible evidence."""

    winner: int
    rule: str
    support: dict


def _alphabetical_min(names: tuple[str, ...], indices) -> int:
    return min(indices, key=lambda i: names[i])


def copeland_winner(g: WeightedTournamentGraph) -> RuleOutcome:
    """Most pairwise wins; a weight of exactly 1/2 counts as a win for both."""
    scores = [
        sum(1 for y in range(g.n) if y != x and 2 * g.counts[x][y] >= g.m)
        for x in range(g.n)
    ]
    top = max(scores)
    winner = _alphabetical_min(g.names, [x for x in range(g.n) if scores[x] == top])
    support = {"scores": {g.names[x]: scores[x] for x in range(g.n)}}
    return RuleOutcome(winner, "copeland", support)


def uncovered_set(g: WeightedTournamentGraph) -> int:
    """Candidates reaching everyone by a one- or two-step majority path.

    That is the weighted uncovered set at lambda = 1/2: both of its tests
    then read a weight of at least 1/2.
    """
    return weighted_uncovered_set(g, Threshold.rational(1, 2))


def uncovered_winner(g: WeightedTournamentGraph) -> RuleOutcome:
    members = uncovered_set(g)
    winner = _alphabetical_min(g.names, iter_set(members))
    support = {"set": [g.names[c] for c in iter_set(members)]}
    return RuleOutcome(winner, "uncovered", support)


def weighted_uncovered_set(g: WeightedTournamentGraph, lam: Threshold) -> int:
    """The lambda-weighted uncovered set, decided by exact integer tests.

    For lambda >= 1/2, A is in the set when, against every B, either
    |AB| >= (1-lambda)m or some C gives |AC| >= (1-lambda)m and
    |CB| >= lambda*m.  For lambda < 1/2 the direct clause tightens to
    |AB| >= lambda*m; the two-step clause is unchanged.
    """
    n, m, counts = g.n, g.m, g.counts
    direct = lam.at_least_lam if lam.below_half() else lam.at_least_complement
    members = 0
    for a in range(n):
        ok = True
        for b in range(n):
            if a == b or direct(counts[a][b], m):
                continue
            if not any(
                lam.at_least_complement(counts[a][c], m) and lam.at_least_lam(counts[c][b], m)
                for c in range(n)
                if c != a and c != b
            ):
                ok = False
                break
        if ok:
            members |= 1 << a
    return members


def weighted_uncovered_winner(g: WeightedTournamentGraph) -> RuleOutcome:
    """Alphabetically smallest member of the phi-weighted uncovered set."""
    members = weighted_uncovered_set(g, Threshold.golden())
    if not members:
        raise AssertionError("phi-weighted uncovered set is provably nonempty")
    winner = _alphabetical_min(g.names, iter_set(members))
    support = {"set": [g.names[c] for c in iter_set(members)], "lambda": "phi"}
    return RuleOutcome(winner, "weighted-uncovered", support)


def matching_uncovered_winner(p: VotingProfile) -> RuleOutcome:
    """Alphabetically smallest member of the matching uncovered set.

    The set is never empty: Gkatzelis, Halpern & Shah ("Resolving the
    Optimal Metric Distortion Conjecture", FOCS 2020) show that every
    profile has a candidate A whose G(A, B) has a perfect matching for
    every B.
    """
    members = matching_uncovered_set(p)
    if not members:
        raise AssertionError("matching uncovered set is provably nonempty")
    winner = _alphabetical_min(p.candidates, iter_set(members))
    support = {"set": [p.candidates[c] for c in iter_set(members)], "empty": False}
    return RuleOutcome(winner, "matching-uncovered", support)


def ranked_pairs_winner(g: WeightedTournamentGraph) -> RuleOutcome:
    """Lock majority edges by decreasing weight unless they close a cycle.

    Only strict majorities (2 * count > m) are edges; exact ties contribute
    nothing.  Equal-count edges are considered in order of (source name,
    target name).  The winner is the alphabetically smallest vertex with no
    locked incoming edge.
    """
    n, m = g.n, g.m
    edges = [
        (g.counts[x][y], x, y)
        for x in range(n)
        for y in range(n)
        if x != y and 2 * g.counts[x][y] > m
    ]
    edges.sort(key=lambda e: (-e[0], g.names[e[1]], g.names[e[2]]))
    locked: list[list[bool]] = [[False] * n for _ in range(n)]

    def reaches(src: int, dst: int) -> bool:
        seen = {src}
        stack = [src]
        while stack:
            u = stack.pop()
            if u == dst:
                return True
            for w in range(n):
                if locked[u][w] and w not in seen:
                    seen.add(w)
                    stack.append(w)
        return False

    trail = []
    for count, x, y in edges:
        accepted = not reaches(y, x)
        if accepted:
            locked[x][y] = True
        trail.append(
            {"from": g.names[x], "to": g.names[y], "weight": Fraction(count, m), "accepted": accepted}
        )
    sources = [x for x in range(n) if not any(locked[y][x] for y in range(n))]
    winner = _alphabetical_min(g.names, sources)
    return RuleOutcome(winner, "ranked-pairs", {"edges": trail})


def schulze_winner(g: WeightedTournamentGraph) -> RuleOutcome:
    """Widest-path strengths; winner defends p(X,Y) >= p(Y,X) against all Y.

    Paths widen over counts.  No index is skipped: an update with x == k
    or y == k is a no-op, one with y == x touches only the unread diagonal.
    """
    n = g.n
    strength = [list(row) for row in g.counts]
    for k, row_k in enumerate(strength):
        for row_x in strength:
            sxk = row_x[k]
            for y in range(n):
                if sxk > row_x[y] and row_k[y] > row_x[y]:
                    row_x[y] = min(sxk, row_k[y])
    winners = [
        x
        for x in range(n)
        if all(strength[x][y] >= strength[y][x] for y in range(n) if y != x)
    ]
    winner = _alphabetical_min(g.names, winners)
    support = {
        "strength": {
            g.names[x]: {g.names[y]: Fraction(strength[x][y], g.m) for y in range(n) if y != x}
            for x in range(n)
        }
    }
    return RuleOutcome(winner, "schulze", support)


def optimal_lp_winner(
    p: VotingProfile, cap: int = DEFAULT_LP_CAP, workers: int = 1
) -> RuleOutcome:
    """argmin over A of max over B of the pairwise distortion LP value.

    Values within LP_TIE_TOL of the minimum tie; the alphabetically first
    tied candidate wins.  The LPs are solved per opponent (``lps_against``).
    """
    n = p.n

    def against(b: int) -> dict:
        return lps_against(p, b, [a for a in range(n) if a != b], cap)

    if workers > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            columns = list(pool.map(against, range(n)))
    else:
        columns = [against(b) for b in range(n)]
    max_value = {a: max((columns[b][a].ratio for b in range(n) if b != a), default=1.0) for a in range(n)}
    # An infinite minimum leaves every candidate tied (inf <= inf + tol).
    best = min(max_value.values())
    winner = _alphabetical_min(
        p.candidates, [a for a in range(n) if max_value[a] <= best + LP_TIE_TOL]
    )
    support = {
        "values": {
            p.candidates[a]: {p.candidates[b]: columns[b][a].ratio for b in range(n) if b != a}
            for a in range(n)
        },
        "max_values": {p.candidates[a]: max_value[a] for a in range(n)},
    }
    return RuleOutcome(winner, "optimal-lp", support)


def apply_rule(
    rule_id: str, p: VotingProfile, cap: int = DEFAULT_LP_CAP, workers: int = 1
) -> RuleOutcome:
    """Run a rule by its identifier on a profile."""
    if rule_id == "matching-uncovered":
        return matching_uncovered_winner(p)
    if rule_id == "optimal-lp":
        return optimal_lp_winner(p, cap=cap, workers=workers)
    graph_rules = {
        "copeland": copeland_winner,
        "uncovered": uncovered_winner,
        "ranked-pairs": ranked_pairs_winner,
        "schulze": schulze_winner,
        "weighted-uncovered": weighted_uncovered_winner,
    }
    if rule_id not in graph_rules:
        raise KeyError(f"unknown rule {rule_id!r}; valid: {sorted(RULE_IDS)}")
    return graph_rules[rule_id](build_tournament(p))


RULE_IDS = (
    "copeland",
    "uncovered",
    "ranked-pairs",
    "schulze",
    "weighted-uncovered",
    "matching-uncovered",
    "optimal-lp",
)
