"""The cycle-matching condition and its exhaustive verifier."""

import itertools
import random

import pytest

from conftest import random_profile
from mdx.conjecture import (
    CycleCheck,
    check_cycle_condition,
    count_canonical,
    enumerate_profiles,
    verify_conjecture,
)
from mdx.instances import counterexample_relax1
from mdx.matching import MatchingResult, build_cover_graph, max_matching
from mdx.profile import VotingProfile, pairwise_counts, parse_profile

THREE_CYCLE = "A > B > C\nB > C > A\nC > A > B\n"


def rotations_of(p: VotingProfile):
    """All simultaneous cyclic relabelings c -> c+k of a profile."""
    n = p.n
    for k in range(n):
        orders = tuple(tuple((c + k) % n for c in order) for order in p.orderings)
        yield VotingProfile(p.candidates, orders)


class TestCycleCondition:
    def test_three_cycle_all_edges_by_interval(self):
        check = check_cycle_condition(parse_profile(THREE_CYCLE))
        assert [e.pair for e in check.edges] == [("A", "B"), ("B", "C"), ("C", "A")]
        assert all(e.found and e.method == "interval" for e in check.edges)
        assert check.satisfied

    def test_single_voter(self):
        check = check_cycle_condition(parse_profile("A > B > C"))
        assert [e.found for e in check.edges] == [True, True, False]
        assert check.satisfied

    def test_five_voter_counterexample_pattern(self):
        check = check_cycle_condition(counterexample_relax1().profile)
        assert [e.pair for e in check.edges] == [
            ("A", "B"), ("B", "C"), ("C", "D"), ("D", "A"),
        ]
        assert [e.found for e in check.edges] == [False, False, False, True]
        assert check.satisfied
        # Absence can only be established by an actual matching run.
        assert all(e.method == "matching" for e in check.edges if not e.found)

    def test_single_candidate_trivial(self):
        check = check_cycle_condition(parse_profile("A"))
        assert check.edges == () and check.satisfied

    def test_fast_paths_do_not_change_the_verdicts(self):
        rng = random.Random(13)
        for _ in range(40):
            p = random_profile(rng, max_n=4, max_m=4, min_n=2)
            fast = check_cycle_condition(p, use_fast_paths=True)
            slow = check_cycle_condition(p, use_fast_paths=False)
            assert [e.found for e in fast.edges] == [e.found for e in slow.edges]
            assert all(e.method == "matching" for e in slow.edges)

    def test_empty_cycle_check_is_satisfied(self):
        assert CycleCheck(()).satisfied


class TestMajorityShortcut:
    def test_weak_majority_forces_a_perfect_matching(self):
        # Soundness of the verifier's cheap skip: whenever at least half
        # the voters prefer a to b, G(a, b) has a perfect matching.
        rng = random.Random(14)
        hits = 0
        for _ in range(300):
            p = random_profile(rng, max_n=4, max_m=5, min_n=2)
            counts = pairwise_counts(p)
            for a in range(p.n):
                for b in range(p.n):
                    if a != b and 2 * counts[a, b] >= p.m:
                        assert max_matching(build_cover_graph(p, a, b)).perfect
                        hits += 1
        assert hits > 100


class TestCanonicalCounting:
    def test_frozen_small_counts(self):
        # (3, 2) by orbit counting: the identity fixes C(7, 2) = 21
        # voter multisets, the two 3-rotations fix none, 21 / 3 = 7.
        assert count_canonical(2, 1) == 1
        assert count_canonical(3, 1) == 2
        assert count_canonical(3, 2) == 7
        assert count_canonical(4, 2) == 78

    def test_arguments_validated(self):
        for n, m in ((1, 3), (0, 1), (3, 0)):
            with pytest.raises(ValueError):
                count_canonical(n, m)
            with pytest.raises(ValueError):
                list(enumerate_profiles(n, m))
            with pytest.raises(ValueError):
                verify_conjecture(n, m)

    @pytest.mark.parametrize(
        "n, m",
        [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3), (4, 1), (4, 2)],
    )
    def test_enumeration_matches_orbit_count(self, n, m):
        assert sum(1 for _ in enumerate_profiles(n, m)) == count_canonical(n, m)

    def test_enumerated_profiles_are_canonical(self):
        # Independent canonicality check: each representative's sorted rank
        # tuple is lexicographically minimal among its rotations.
        n, m = 3, 3
        perms = list(itertools.permutations(range(n)))
        rank = {s: i for i, s in enumerate(perms)}

        def ranks_of(p):
            return tuple(sorted(rank[order] for order in p.orderings))

        seen = set()
        for p in enumerate_profiles(n, m):
            seq = ranks_of(p)
            for q in rotations_of(p):
                assert ranks_of(q) >= seq
            seen.add(seq)
        assert len(seen) == count_canonical(n, m)

    def test_every_orbit_has_exactly_one_representative(self):
        n, m = 3, 2
        perms = list(itertools.permutations(range(n)))
        rank = {s: i for i, s in enumerate(perms)}

        def orbit_key(orders):
            best = None
            for k in range(n):
                rotated = tuple(
                    sorted(rank[tuple((c + k) % n for c in order)] for order in orders)
                )
                best = rotated if best is None or rotated < best else best
            return best

        all_keys = {
            orbit_key(orders)
            for orders in itertools.combinations_with_replacement(perms, m)
        }
        reps = {
            tuple(sorted(rank[o] for o in p.orderings)) for p in enumerate_profiles(n, m)
        }
        assert reps == all_keys
        assert len(reps) == 7

    def test_quotient_preserves_the_condition(self):
        # Rotating labels and shuffling voters never changes satisfaction.
        rng = random.Random(15)
        for _ in range(25):
            p = random_profile(rng, max_n=4, max_m=4, min_n=2)
            expected = check_cycle_condition(p).satisfied
            for q in rotations_of(p):
                assert check_cycle_condition(q).satisfied == expected
            shuffled = list(p.orderings)
            rng.shuffle(shuffled)
            q = VotingProfile(p.candidates, tuple(shuffled))
            assert check_cycle_condition(q).satisfied == expected


class TestVerifier:
    @pytest.mark.parametrize("n, m", [(2, 5), (2, 6), (3, 1), (3, 2), (3, 3), (3, 4), (4, 3)])
    def test_small_grids_verified(self, n, m):
        verdict = verify_conjecture(n, m)
        assert verdict.status == "verified"
        assert verdict.counterexample is None
        assert verdict.profiles_checked == count_canonical(n, m)
        assert verdict.elapsed >= 0.0

    def test_verdict_matches_direct_enumeration(self):
        for n, m in ((3, 3), (4, 2)):
            all_good = all(
                check_cycle_condition(p).satisfied for p in enumerate_profiles(n, m)
            )
            verdict = verify_conjecture(n, m)
            assert all_good == (verdict.status == "verified")

    def test_worker_count_does_not_change_the_verdict(self):
        for n, m in ((3, 3), (4, 3)):
            serial = verify_conjecture(n, m, workers=1)
            parallel = verify_conjecture(n, m, workers=2)
            assert (serial.status, serial.profiles_checked) == (
                parallel.status,
                parallel.profiles_checked,
            )

    def test_fast_paths_do_not_change_the_verdict(self):
        fast = verify_conjecture(3, 3, use_fast_paths=True)
        slow = verify_conjecture(3, 3, use_fast_paths=False)
        assert (fast.status, fast.profiles_checked) == (slow.status, slow.profiles_checked)

    def test_budget_refusal_is_upfront(self):
        verdict = verify_conjecture(4, 4, budget=1)
        assert verdict.status == "budget-exceeded"
        assert verdict.profiles_checked == 0
        assert verdict.counterexample is None

    def test_counterexample_is_the_first_failing_profile(self, monkeypatch):
        # With a matcher that never finds a perfect matching, the first
        # canonical profile fails, provided the exact check calls that matcher.
        never = MatchingResult(0, (), False)
        monkeypatch.setattr("mdx.conjecture.max_matching", lambda g: never)
        verdict = verify_conjecture(3, 2, use_fast_paths=False)
        assert verdict.status == "counterexample"
        assert verdict.profiles_checked == 1
        assert verdict.counterexample == next(enumerate_profiles(3, 2))
