"""Winner rules: thresholds, set rules, path rules, and the LP rule."""

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings

from conftest import profiles, random_profile, strict_condorcet_winner
from mdx import metriclp
from mdx.instances import counterexample_relax2, lower_left, rotational_profile
from mdx.metriclp import LpOutcome, pairwise_distortion_lp
from mdx.profile import VotingProfile, mask_names, parse_profile, serialize_profile
from mdx.rules import (
    LP_TIE_TOL,
    RULE_IDS,
    Threshold,
    apply_rule,
    copeland_winner,
    matching_uncovered_winner,
    optimal_lp_winner,
    ranked_pairs_winner,
    schulze_winner,
    uncovered_set,
    uncovered_winner,
    weighted_uncovered_set,
    weighted_uncovered_winner,
)
from mdx.tournament import build_tournament, parse_graph

THREE_CYCLE = "A > B > C\nB > C > A\nC > A > B\n"

PENTA_GRAPH = """\
names: A,B,C,D,E
0   0.3 0.4 0.6 0.7
0.7 0   0.3 0.4 0.6
0.6 0.7 0   0.3 0.4
0.4 0.6 0.7 0   0.3
0.3 0.4 0.6 0.7 0
"""


class TestThreshold:
    def test_golden_boundaries_at_five_voters(self):
        # phi*5 ~ 3.09 and (1-phi)*5 ~ 1.91; the integer tests must agree.
        phi = Threshold.golden()
        assert phi.at_least_lam(4, 5) and not phi.at_least_lam(3, 5)
        assert phi.at_least_complement(2, 5) and not phi.at_least_complement(1, 5)

    def test_golden_never_hits_exactly(self):
        # sqrt(5)*m is irrational, so equality in the squared tests would be
        # a contradiction; scan a range for accidental equalities.
        for m in range(1, 50):
            for c in range(m + 1):
                assert (2 * c + m) ** 2 != 5 * m * m
                assert (3 * m - 2 * c) ** 2 != 5 * m * m

    def test_half_matches_doubling(self):
        half = Threshold.rational(1, 2)
        for m in range(1, 12):
            for c in range(m + 1):
                assert half.at_least_lam(c, m) == (2 * c >= m)
                assert half.at_least_complement(c, m) == (2 * c >= m)

    def test_parse(self):
        assert Threshold.parse("phi").is_golden
        assert Threshold.parse(" GOLDEN ").is_golden
        lam = Threshold.parse("382/1000")
        assert (lam.num, lam.den) == (191, 500)
        assert str(lam) == "191/500" and str(Threshold.golden()) == "phi"

    def test_validation(self):
        with pytest.raises(ValueError):
            Threshold.rational(3, 2)
        with pytest.raises(ValueError):
            Threshold(num=1, den=None)

    def test_below_half(self):
        assert Threshold.rational(191, 500).below_half()
        assert not Threshold.rational(1, 2).below_half()
        assert not Threshold.golden().below_half()


class TestCopeland:
    def test_unanimous(self):
        g = build_tournament(parse_profile("3: B > A > C"))
        out = copeland_winner(g)
        assert out.support["scores"] == {"A": 1, "B": 2, "C": 0}
        assert g.names[out.winner] == "B"

    def test_three_cycle_tie_breaks_alphabetically(self):
        g = build_tournament(parse_profile(THREE_CYCLE))
        out = copeland_winner(g)
        assert out.support["scores"] == {"A": 1, "B": 1, "C": 1}
        assert g.names[out.winner] == "A"

    def test_exact_tie_counts_for_both(self):
        g = build_tournament(parse_profile("X > Y\nY > X"))
        out = copeland_winner(g)
        assert out.support["scores"] == {"X": 1, "Y": 1}

    def test_hundred_voter_counterexample(self):
        g = build_tournament(counterexample_relax2().profile)
        out = copeland_winner(g)
        assert out.support["scores"] == {"A": 2, "B": 1, "C": 2, "D": 2}
        assert g.names[out.winner] == "A"


class TestUncovered:
    def test_three_cycle_everyone(self):
        g = build_tournament(parse_profile(THREE_CYCLE))
        out = uncovered_winner(g)
        assert out.support["set"] == ["A", "B", "C"]
        assert g.names[out.winner] == "A"

    def test_unanimous_singleton(self):
        g = build_tournament(parse_profile("3: B > A > C"))
        assert uncovered_winner(g).support["set"] == ["B"]

    @settings(max_examples=60)
    @given(profiles(min_n=2))
    def test_two_step_reach_definition(self, p):
        g = build_tournament(p)
        members = uncovered_set(g)
        half = Fraction(1, 2)
        for a in range(g.n):
            reach_all = all(
                g.weight[a][b] >= half
                or any(
                    g.weight[a][c] >= half and g.weight[c][b] >= half
                    for c in range(g.n)
                    if c not in (a, b)
                )
                for b in range(g.n)
                if b != a
            )
            assert bool(members >> a & 1) == reach_all


class TestWeightedUncovered:
    def test_three_cycle_golden_set(self):
        g = build_tournament(parse_profile(THREE_CYCLE))
        out = weighted_uncovered_winner(g)
        assert out.support == {"set": ["A", "B", "C"], "lambda": "phi"}
        assert g.names[out.winner] == "A"

    def test_unanimous_contains_top_for_every_lambda(self):
        g = build_tournament(parse_profile("3: B > A > C"))
        top = g.index("B")
        for lam in (Threshold.golden(), Threshold.rational(1, 2),
                    Threshold.rational(191, 500), Threshold.rational(9, 10)):
            assert weighted_uncovered_set(g, lam) >> top & 1

    def test_lambda_one_admits_everyone(self):
        g = build_tournament(parse_profile(THREE_CYCLE))
        assert weighted_uncovered_set(g, Threshold.rational(1, 1)) == 0b111

    def test_hundred_voter_counterexample(self):
        g = build_tournament(counterexample_relax2().profile)
        out = weighted_uncovered_winner(g)
        assert out.support["set"] == ["A", "B", "C", "D"]
        assert g.names[out.winner] == "A"

    def test_two_candidate_boundary(self):
        # 2 of 5 voters prefer A: exactly the (1-phi) direct-clause boundary.
        g = build_tournament(parse_profile("2: A > B\n3: B > A"))
        assert mask_names_of(g, weighted_uncovered_set(g, Threshold.golden())) == ("A", "B")
        g = build_tournament(parse_profile("1: A > B\n4: B > A"))
        assert mask_names_of(g, weighted_uncovered_set(g, Threshold.golden())) == ("B",)

    def test_skewed_instance_keeps_majority_loser(self):
        inst = lower_left(382, 1000, 1000)
        g = build_tournament(inst.profile)
        members = weighted_uncovered_set(g, Threshold.golden())
        assert members >> g.index("A") & 1


def mask_names_of(g, mask):
    return tuple(g.names[c] for c in range(g.n) if mask >> c & 1)


class TestMatchingRule:
    def test_three_cycle(self):
        out = matching_uncovered_winner(parse_profile(THREE_CYCLE))
        assert out.support == {"set": ["A", "B", "C"], "empty": False}
        assert out.winner == 0

    def test_single_candidate(self):
        out = matching_uncovered_winner(parse_profile("A"))
        assert out.winner == 0 and out.support["set"] == ["A"]

    def test_hundred_voter_counterexample(self):
        p = counterexample_relax2().profile
        out = matching_uncovered_winner(p)
        assert out.support == {"set": ["C", "D"], "empty": False}
        assert p.candidates[out.winner] == "C"

    def test_empty_set_is_an_internal_error(self, monkeypatch):
        monkeypatch.setattr("mdx.rules.matching_uncovered_set", lambda p: 0)
        with pytest.raises(AssertionError, match="provably nonempty"):
            matching_uncovered_winner(parse_profile(THREE_CYCLE))


class TestRankedPairs:
    def test_unanimous(self):
        g = build_tournament(parse_profile("3: B > A > C"))
        out = ranked_pairs_winner(g)
        assert g.names[out.winner] == "B"
        assert all(e["accepted"] for e in out.support["edges"])

    def test_three_cycle_drops_weakest_lexicographically(self):
        g = build_tournament(parse_profile(THREE_CYCLE))
        out = ranked_pairs_winner(g)
        trail = [(e["from"], e["to"], e["accepted"]) for e in out.support["edges"]]
        assert trail == [("A", "B", True), ("B", "C", True), ("C", "A", False)]
        assert g.names[out.winner] == "A"

    def test_hundred_voter_counterexample_trail(self):
        g = build_tournament(counterexample_relax2().profile)
        out = ranked_pairs_winner(g)
        trail = [
            (e["from"], e["to"], e["weight"], e["accepted"])
            for e in out.support["edges"]
        ]
        assert trail == [
            ("A", "D", Fraction(7, 10), True),
            ("B", "A", Fraction(7, 10), True),
            ("C", "B", Fraction(13, 20), True),
            ("D", "C", Fraction(13, 20), False),
            ("D", "B", Fraction(11, 20), False),
        ]
        assert g.names[out.winner] == "C"

    def test_exact_ties_are_not_edges(self):
        g = build_tournament(parse_profile("X > Y\nY > X"))
        out = ranked_pairs_winner(g)
        assert out.support["edges"] == []
        assert g.names[out.winner] == "X"


class TestSchulze:
    def test_unanimous(self):
        g = build_tournament(parse_profile("3: B > A > C"))
        assert g.names[schulze_winner(g).winner] == "B"

    def test_three_cycle_strengths(self):
        g = build_tournament(parse_profile(THREE_CYCLE))
        out = schulze_winner(g)
        assert g.names[out.winner] == "A"
        # Indirect paths lift every reverse strength up to 2/3.
        strength = out.support["strength"]
        for x in "ABC":
            for y in "ABC":
                if x != y:
                    assert strength[x][y] == Fraction(2, 3)

    def test_circulant_graph_full_tie(self):
        g = parse_graph(PENTA_GRAPH)
        out = schulze_winner(g)
        assert g.names[out.winner] == "A"
        # The 7/10 edges form a pentagon that links every ordered pair, so
        # every widest path has exactly that width and all five tie.
        strength = out.support["strength"]
        values = {strength[x][y] for x in "ABCDE" for y in "ABCDE" if x != y}
        assert values == {Fraction(7, 10)}


class TestOptimalLp:
    def test_single_candidate(self):
        out = optimal_lp_winner(parse_profile("A"))
        assert out.winner == 0 and out.support["max_values"] == {"A": 1.0}

    def test_two_candidate_split(self):
        out = optimal_lp_winner(parse_profile("A > B\nB > A"))
        assert out.support["values"]["A"]["B"] == pytest.approx(3.0)
        assert out.support["values"]["B"]["A"] == pytest.approx(3.0)
        assert out.winner == 0

    def test_three_cycle_symmetric_values(self):
        p = parse_profile(THREE_CYCLE)
        out = optimal_lp_winner(p)
        assert p.candidates[out.winner] == "A"
        values = out.support["values"]
        # Beating your opponent caps the LP at 2; losing to them at 3.
        for x, nxt, prv in (("A", "B", "C"), ("B", "C", "A"), ("C", "A", "B")):
            assert values[x][nxt] == pytest.approx(2.0, abs=1e-6)
            assert values[x][prv] == pytest.approx(3.0, abs=1e-6)
        for v in out.support["max_values"].values():
            assert v == pytest.approx(3.0, abs=1e-6)

    def test_float_tie_goes_to_the_alphabetical_first(self):
        # Every candidate's worst-case value is 3; the simplex reads some of
        # them a few ulps off it.
        out = optimal_lp_winner(rotational_profile("ABCDE", 5).profile)
        assert out.winner == 0

    def test_infinite_minimum_ties_everyone(self, monkeypatch):
        # Unpatched, B wins: its value is 1 and A's is unbounded.
        unbounded = LpOutcome("unbounded", None, None)
        monkeypatch.setattr("mdx.rules.lps_against", lambda p, b, rivals, cap: dict.fromkeys(rivals, unbounded))
        p = parse_profile("B > A")
        assert p.candidates[optimal_lp_winner(p).winner] == "A"

    def test_one_row_build_per_profile(self, monkeypatch):
        solve, seen = metriclp.solve_lp, []

        def recording(objective, a_ub, *args, **kwargs):
            seen.append(a_ub)
            return solve(objective, a_ub, *args, **kwargs)

        monkeypatch.setattr(metriclp, "solve_lp", recording)
        p = rotational_profile("ABCDE", 5).profile
        metriclp._inequalities.cache_clear()
        optimal_lp_winner(p)
        assert len(seen) == 20
        assert metriclp._inequalities.cache_info().misses == 1
        # Each LP's rows are the shared ones plus its normalisation row.
        shared = metriclp._inequalities(p.n, tuple(order for order, _ in p.types))[2]
        for a_ub in seen:
            assert a_ub.shape == (len(shared) + 1, shared.shape[1])
            assert np.array_equal(a_ub[: len(shared)], shared)

    @pytest.mark.parametrize(
        "instance, winner, pivots",
        [(lambda: rotational_profile("ABCDE", 5), "A", 337), (counterexample_relax2, "C", 310)],
    )
    def test_pivot_totals(self, monkeypatch, instance, winner, pivots):
        # Pinned: a change to the simplex's pivoting or to the warm start of
        # each opponent's LPs must update these on purpose.
        solve, seen = metriclp.solve_lp, []

        def recording(*args, **kwargs):
            result = solve(*args, **kwargs)
            seen.append(result.iterations)
            return result

        monkeypatch.setattr(metriclp, "solve_lp", recording)
        p = instance().profile
        assert p.candidates[optimal_lp_winner(p).winner] == winner
        assert sum(seen) == pivots

    @pytest.mark.parametrize(
        "text",
        [THREE_CYCLE, serialize_profile(rotational_profile("ABCDE", 5).profile), "A > B > C\nA > C > B\n"],
        ids=["three-cycle", "rotational-5", "unbounded-pair"],
    )
    def test_workers_match_serial(self, text):
        # Each thread task chains one opponent's LPs, as the serial loop does.
        p = parse_profile(text)
        serial = optimal_lp_winner(p, workers=1)
        threaded = optimal_lp_winner(p, workers=2)
        assert serial.winner == threaded.winner
        assert serial.support == threaded.support

    def test_matches_cold_pairwise_lps(self):
        # Every warm-started LP against the cold one-pair LP on random profiles.
        rng = random.Random(25)
        statuses = set()
        for _ in range(200):
            p = random_profile(rng, max_n=5, max_m=6, min_n=3)
            out = optimal_lp_winner(p)
            cold = {a: {b: pairwise_distortion_lp(p, a, b) for b in range(p.n) if b != a} for a in range(p.n)}
            for a, row in cold.items():
                for b, lp in row.items():
                    warm = out.support["values"][p.candidates[a]][p.candidates[b]]
                    statuses.add(lp.status)
                    assert warm == pytest.approx(lp.ratio, rel=1e-12)
            worst = {a: max(lp.ratio for lp in row.values()) for a, row in cold.items()}
            best = min(worst.values())
            tied = [a for a in worst if worst[a] <= best + LP_TIE_TOL]
            assert out.winner == min(tied, key=lambda a: p.candidates[a])
        assert statuses == {"optimal", "unbounded"}


class TestApplyRule:
    def test_dispatch_tags_outcomes(self):
        p = parse_profile(THREE_CYCLE)
        for rule_id in RULE_IDS:
            out = apply_rule(rule_id, p)
            assert out.rule == rule_id
            assert p.candidates[out.winner] == "A"

    def test_unknown_rule(self):
        with pytest.raises(KeyError):
            apply_rule("borda", parse_profile(THREE_CYCLE))

    def test_unanimous_consensus(self):
        p = parse_profile("4: B > C > A")
        for rule_id in RULE_IDS:
            assert p.candidates[apply_rule(rule_id, p).winner] == "B"


class TestCondorcetBehaviour:
    """A strict pairwise-majority champion and how each rule treats it."""

    PROVABLY_CONSISTENT = ("copeland", "uncovered", "ranked-pairs", "schulze")

    def _condorcet_samples(self, count, seed):
        rng = random.Random(seed)
        found = []
        while len(found) < count:
            p = random_profile(rng, max_n=4, max_m=5)
            x = strict_condorcet_winner(p)
            if x is not None:
                found.append((p, x))
        return found

    def test_consistent_rules_elect_the_champion(self):
        for p, x in self._condorcet_samples(120, seed=5):
            for rule_id in self.PROVABLY_CONSISTENT:
                assert apply_rule(rule_id, p).winner == x

    def test_lp_rule_elects_the_champion_empirically(self):
        for p, x in self._condorcet_samples(25, seed=6):
            assert apply_rule("optimal-lp", p).winner == x

    def test_champion_joins_both_sets(self):
        for p, x in self._condorcet_samples(80, seed=7):
            g = build_tournament(p)
            assert weighted_uncovered_set(g, Threshold.golden()) >> x & 1
            assert apply_rule("matching-uncovered", p).support["set"].count(
                p.candidates[x]
            ) == 1

    def test_weighted_rule_can_pass_over_the_champion(self):
        # Frozen minimal example: B beats everyone, yet A stays in the
        # golden-ratio set (2 of 5 voters clear the (1-phi) direct bar) and
        # wins the alphabetical tie-break.
        p = parse_profile("2: A > B > C\n3: B > A > C")
        assert p.candidates[strict_condorcet_winner(p)] == "B"
        out = apply_rule("weighted-uncovered", p)
        assert out.support["set"] == ["A", "B"]
        assert p.candidates[out.winner] == "A"

    def test_matching_rule_can_pass_over_the_champion(self):
        p = parse_profile("A > B > C\nB > A > C\nC > B > A")
        assert p.candidates[strict_condorcet_winner(p)] == "B"
        out = apply_rule("matching-uncovered", p)
        assert out.support["set"] == ["A", "B"]
        assert p.candidates[out.winner] == "A"


class TestInvariances:
    def _renamed(self, p: VotingProfile) -> VotingProfile:
        # Suffixing preserves the relative alphabetical order of the names.
        return VotingProfile(tuple(name + "x" for name in p.candidates), p.orderings)

    def test_order_preserving_rename(self):
        rng = random.Random(99)
        for _ in range(8):
            p = random_profile(rng, max_n=4, max_m=4)
            q = self._renamed(p)
            for rule_id in RULE_IDS:
                assert apply_rule(rule_id, q).winner == apply_rule(rule_id, p).winner

    def test_voter_order_invariance(self):
        rng = random.Random(100)
        for _ in range(8):
            p = random_profile(rng, max_n=4, max_m=5)
            shuffled = list(p.orderings)
            rng.shuffle(shuffled)
            q = VotingProfile(p.candidates, tuple(shuffled))
            for rule_id in RULE_IDS:
                assert apply_rule(rule_id, q).winner == apply_rule(rule_id, p).winner
