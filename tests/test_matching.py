"""Cover graphs, matchings, the Hall oracle, and the two sufficient tests."""

import itertools
import random
import warnings
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_bipartite_matching

from conftest import clone_heavy_cases, profiles, random_profile, repeated_ballot_profiles
from mdx.instances import (
    counterexample_relax1,
    counterexample_relax2,
    rotational_profile,
    three_cycle,
)
from mdx.matching import (
    HALL_ORACLE_LIMIT,
    BipartiteCoverGraph,
    OracleLimitError,
    RatInterval,
    build_cover_graph,
    hall_violator,
    interval_test,
    is_perfect_matching,
    matching_uncovered_set,
    max_matching,
    rank_sum_test,
    subtract_intervals,
)
from mdx.profile import (
    VotingProfile,
    iter_set,
    mask_names,
    pairwise_counts,
    parse_profile,
    prefer_at_least,
    prefer_at_most,
    set_of,
)
from mdx.tournament import build_tournament

THREE_CYCLE = "A > B > C\nB > C > A\nC > A > B\n"


def interval(lo, hi, lo_open=False, hi_open=False):
    return RatInterval(Fraction(lo), Fraction(hi), lo_open, hi_open)


def brute_force_max_matching(g: BipartiteCoverGraph) -> int:
    best = 0
    for rights in itertools.permutations(range(g.m)):
        size = sum(1 for v, r in enumerate(rights) if g.has_edge(v, r))
        best = max(best, size)
    return best


def random_cover_graph(rng: random.Random, m: int) -> BipartiteCoverGraph:
    rows = tuple(rng.randrange(1 << m) for _ in range(m))
    return BipartiteCoverGraph(m, rows, 0, 1)


def scipy_max_matching(g: BipartiteCoverGraph) -> int:
    lefts, rights = [], []
    for v, row in enumerate(g.rows):
        for r in iter_set(row):
            lefts.append(v)
            rights.append(r)
    adjacency = csr_matrix(([1] * len(lefts), (lefts, rights)), shape=(g.m, g.m))
    return int((maximum_bipartite_matching(adjacency, perm_type="column") >= 0).sum())


class TestCoverGraph:
    def test_three_cycle_adjacency(self):
        g = build_cover_graph(parse_profile(THREE_CYCLE), "A", "B")
        assert g.rows == (0b111, 0b101, 0b111)

    def test_three_cycle_demonstration_matchings(self):
        p = parse_profile(THREE_CYCLE)
        g_ab = build_cover_graph(p, "A", "B")
        assert is_perfect_matching(g_ab, [(0, 1), (1, 0), (2, 2)])
        assert is_perfect_matching(g_ab, [(0, 0), (1, 2), (2, 1)])
        g_ac = build_cover_graph(p, "A", "C")
        assert is_perfect_matching(g_ac, [(0, 1), (1, 2), (2, 0)])
        # Left 2 only reaches right 0 in G(A,C).
        assert g_ac.rows[2] == 0b001

    def test_five_voter_counterexample_rows(self):
        p = counterexample_relax1().profile
        g = build_cover_graph(p, "D", "A")
        assert g.rows[2] == set_of([0, 1, 4])
        assert is_perfect_matching(g, [(0, 0), (1, 2), (2, 1), (3, 4), (4, 3)])

    def test_rejects_identical_candidates(self):
        with pytest.raises(ValueError):
            build_cover_graph(parse_profile(THREE_CYCLE), "A", "A")

    def test_non_matchings_rejected(self):
        g = build_cover_graph(parse_profile(THREE_CYCLE), "A", "B")
        assert not is_perfect_matching(g, [(0, 0), (1, 2)])            # too short
        assert not is_perfect_matching(g, [(0, 0), (1, 0), (2, 2)])    # reused right
        assert not is_perfect_matching(g, [(0, 0), (1, 1), (2, 2)])    # (1,1) not an edge

    @settings(max_examples=60)
    @given(profiles(min_n=2))
    def test_self_loops_match_pairwise_counts(self, p):
        counts = pairwise_counts(p)
        a, b = 0, 1
        g = build_cover_graph(p, a, b)
        loops = sum(1 for v in range(p.m) if g.has_edge(v, v))
        assert loops == counts[a][b]

    @settings(max_examples=100, deadline=None)
    @given(clone_heavy_cases(size=40))
    def test_run_build_matches_definition(self, case):
        p, a, b = case
        g = build_cover_graph(p, a, b)
        assert (g.m, g.a, g.b) == (p.m, a, b)
        lefts = [prefer_at_least(p, v, b) for v in range(p.m)]
        rights = [prefer_at_most(p, v, a) for v in range(p.m)]
        for v in range(p.m):
            for vp in range(p.m):
                assert g.has_edge(v, vp) == (lefts[v] & rights[vp] != 0)

    def test_build_keeps_counts_unexpanded(self):
        p = parse_profile("400: A > B > C\n3: C > B > A\n250: B > A > C")
        g = build_cover_graph(p, "A", "C")
        full = (1 << 653) - 1
        # P = {C} for C > B > A misses only its own clones' Q = {A}.
        assert g.rows[:400] == (full,) * 400
        assert g.rows[400:403] == (full ^ 0b111 << 400,) * 3
        assert g.rows[403:] == (full,) * 250
        assert max_matching(g).perfect
        assert "orderings" not in vars(p)

    @settings(max_examples=40, deadline=None)
    @given(repeated_ballot_profiles())
    def test_warm_table_builds_match_fresh_builds_and_definition(self, p):
        # One profile object serves every ordered pair from its cached table.
        voters = VotingProfile(p.candidates, runs=p.runs)  # expands orderings
        for a, b in itertools.permutations(range(p.n), 2):
            g = build_cover_graph(p, a, b)
            assert g == build_cover_graph(VotingProfile(p.candidates, runs=p.runs), a, b)
            lefts = [prefer_at_least(voters, v, b) for v in range(p.m)]
            rights = [prefer_at_most(voters, v, a) for v in range(p.m)]
            assert g.rows == tuple(
                sum(1 << vp for vp in range(p.m) if lefts[v] & rights[vp]) for v in range(p.m)
            )
        assert "orderings" not in vars(p)


class TestMatchingAlgorithms:
    def test_unanimous_reverse_graph_has_no_edges(self):
        p = parse_profile("3: A > B > C")
        g = build_cover_graph(p, "B", "A")
        assert g.rows == (0, 0, 0)
        assert max_matching(g).size == 0

    def test_matching_result_shape(self):
        g = build_cover_graph(parse_profile(THREE_CYCLE), "A", "B")
        result = max_matching(g)
        assert result.perfect and result.size == 3
        assert is_perfect_matching(g, result.pairs())

    def test_five_voter_counterexample_gap(self):
        p = counterexample_relax1().profile
        assert not max_matching(build_cover_graph(p, "A", "B")).perfect
        assert not max_matching(build_cover_graph(p, "B", "C")).perfect
        assert not max_matching(build_cover_graph(p, "C", "D")).perfect
        assert max_matching(build_cover_graph(p, "D", "A")).perfect

    def test_hall_violator_three_cycle_none(self):
        g = build_cover_graph(parse_profile(THREE_CYCLE), "A", "B")
        assert hall_violator(g) is None

    def test_hall_violator_finds_starved_pair(self):
        p = counterexample_relax1().profile
        g = build_cover_graph(p, "A", "B")
        s = hall_violator(g)
        assert s is not None
        neighborhood = 0
        for v in range(g.m):
            if s >> v & 1:
                neighborhood |= g.rows[v]
        assert neighborhood.bit_count() < s.bit_count()

    def test_hall_oracle_limit(self):
        m = HALL_ORACLE_LIMIT + 1
        g = BipartiteCoverGraph(m, tuple((1 << m) - 1 for _ in range(m)), 0, 1)
        with pytest.raises(OracleLimitError):
            hall_violator(g)

    def test_max_matching_against_brute_force(self):
        rng = random.Random(1702)
        for _ in range(150):
            g = random_cover_graph(rng, rng.randint(1, 5))
            assert max_matching(g).size == brute_force_max_matching(g)

    def test_perfect_iff_no_hall_violator(self):
        rng = random.Random(2024)
        for _ in range(300):
            g = random_cover_graph(rng, rng.randint(1, 8))
            assert max_matching(g).perfect == (hall_violator(g) is None)

    def test_max_matching_against_scipy(self):
        rng = random.Random(1973)
        for trial in range(300):
            m = rng.randint(1, 90)
            if trial % 3 == 0:  # dense
                rows = [rng.getrandbits(m) for _ in range(m)]
            elif trial % 3 == 1:  # sparse: at most three edges per row
                rows = [set_of(rng.randrange(m) for _ in range(rng.randint(0, 3))) for _ in range(m)]
            else:  # grouped: clone voters share a row, as in cover graphs
                pool = [set_of(rng.sample(range(m), rng.randint(0, min(m, 8)))) for _ in range(4)]
                rows = [rng.choice(pool) for _ in range(m)]
            g = BipartiteCoverGraph(m, tuple(rows), 0, 1)
            result = max_matching(g)
            assert result.size == scipy_max_matching(g)
            pairs = result.pairs()
            assert len(pairs) == result.size
            assert len({r for _, r in pairs}) == len(pairs)
            assert all(g.has_edge(v, r) for v, r in pairs)

    def test_long_augmenting_path(self):
        # Every row has two neighbours, so the seed takes them in voter
        # order: left v gets right v for v < m - 1, and the last left vertex,
        # row {0, 2}, stays free.  Its only augmenting paths run along the
        # chain of rows {v, v + 1} to the free right vertex m - 1, through
        # about m vertices.
        m = 3000
        g = BipartiteCoverGraph(m, tuple(0b11 << v for v in range(m - 1)) + (0b101,), 0, 1)
        result = max_matching(g)
        assert result.perfect
        assert is_perfect_matching(g, result.pairs())


class TestIntervalSubtraction:
    def test_disjoint_subtrahend_is_a_no_op(self):
        # Regression: subtracting an interval that ends below the base once
        # stretched the base's lower endpoint.
        base = interval(Fraction(13, 20), Fraction(7, 10), True, True)
        assert subtract_intervals(base, [interval(Fraction(3, 10), Fraction(11, 20))]) == (base,)

    def test_split_keeps_endpoint_openness(self):
        remainder = subtract_intervals(
            interval(0, 1), [interval(Fraction(1, 4), Fraction(1, 2))]
        )
        assert remainder == (
            interval(0, Fraction(1, 4), False, True),
            interval(Fraction(1, 2), 1, True, False),
        )

    def test_cover_empties(self):
        assert subtract_intervals(
            interval(Fraction(1, 4), Fraction(1, 2)), [interval(0, 1)]
        ) == ()

    def test_touching_closed_pieces_empty_a_closed_base(self):
        remainder = subtract_intervals(
            interval(0, 1),
            [interval(0, Fraction(1, 2)), interval(Fraction(1, 2), 1)],
        )
        assert remainder == ()

    def test_open_base_unaffected_by_touching_subtrahends(self):
        base = interval(Fraction(1, 4), Fraction(1, 2), True, True)
        assert subtract_intervals(base, [interval(Fraction(1, 2), 1)]) == (base,)
        assert subtract_intervals(base, [interval(0, Fraction(1, 4))]) == (base,)

    def test_empty_inputs(self):
        base = interval(0, 1)
        assert subtract_intervals(base, [interval(1, 0)]) == (base,)
        empty = interval(Fraction(1, 2), Fraction(1, 2), True, False)
        assert subtract_intervals(empty, []) == ()


class TestIntervalTest:
    def test_hundred_voter_counterexample_remainders(self):
        g = build_tournament(counterexample_relax2().profile)
        expected = {
            ("A", "B"): (Fraction(13, 20), Fraction(7, 10)),
            ("B", "C"): (Fraction(1, 2), Fraction(11, 20)),
            ("C", "D"): (Fraction(9, 20), Fraction(1, 2)),
            ("D", "A"): (Fraction(3, 10), Fraction(7, 20)),
        }
        for (a, b), (lo, hi) in expected.items():
            diff = interval_test(g, a, b)
            assert not diff.remainder_empty
            assert diff.remainder == (RatInterval(lo, hi, True, True),)

    def test_majority_edge_gives_empty_base(self):
        g = build_tournament(counterexample_relax2().profile)
        diff = interval_test(g, "B", "A")  # w(B,A) = 7/10 >= 1/2
        assert diff.remainder_empty

    def test_three_cycle_all_pairs_certified(self):
        # Around the cycle the base is empty (majority edges); against the
        # cycle the lone subtrahend covers the whole open base exactly.
        g = build_tournament(parse_profile(THREE_CYCLE))
        for a in "ABC":
            for b in "ABC":
                if a != b:
                    assert interval_test(g, a, b).remainder_empty

    def test_unanimous_reverse_pair_remainder(self):
        g = build_tournament(parse_profile("3: A > B > C"))
        diff = interval_test(g, "B", "A")
        # base (0, 1) loses only the point 0 to the subtrahend [0, 0].
        assert diff.remainder == (RatInterval(Fraction(0), Fraction(1), True, True),)

    def test_rejects_identical_candidates(self):
        g = build_tournament(parse_profile(THREE_CYCLE))
        with pytest.raises(ValueError):
            interval_test(g, "A", "A")


class TestRankSumTest:
    def test_five_voter_counterexample_fires(self):
        p = counterexample_relax1().profile
        # Sorted prefix sizes [4,4,2,2,2] against suffix sizes [2,2,2,4,4]:
        # the third pair sums to 4 <= n = 4.
        assert rank_sum_test(p, "D", "A") == 3

    def test_three_cycle_never_fires(self):
        p = parse_profile(THREE_CYCLE)
        assert rank_sum_test(p, "A", "B") is None

    def test_unanimous(self):
        p = parse_profile("3: A > B > C")
        assert rank_sum_test(p, "A", "B") is None
        assert rank_sum_test(p, "B", "A") == 1

    def test_rejects_identical_candidates(self):
        with pytest.raises(ValueError):
            rank_sum_test(parse_profile(THREE_CYCLE), "B", "B")

    def test_counts_stay_unexpanded(self):
        p = parse_profile("1000000: A > B > C\n1000000: C > B > A")
        assert rank_sum_test(p, "A", "B") == 1
        assert rank_sum_test(p, "A", "C") is None
        assert rank_sum_test(p, "B", "A") == 1000001
        assert "orderings" not in vars(p)

    @settings(max_examples=200, deadline=None)
    @given(clone_heavy_cases(size=40))
    def test_matches_voter_level_formula(self, case):
        p, a, b = case
        n = p.n
        p_sizes = sorted((p.rank(v, b) + 1 for v in range(p.m)), reverse=True)
        q_sizes = sorted(n - p.rank(v, a) for v in range(p.m))
        expect = next((k + 1 for k in range(p.m) if p_sizes[k] + q_sizes[k] <= n), None)
        assert rank_sum_test(p, a, b) == expect

    def test_silent_outcome_implies_perfect_matching(self):
        # The quiet direction is the guarantee; violations are reported as
        # warnings rather than hard failures so a systematic break surfaces
        # without masking the rest of the suite.
        rng = random.Random(77)
        violations = []
        for _ in range(300):
            p = random_profile(rng)
            a, b = rng.sample(range(p.n), 2)
            if rank_sum_test(p, a, b) is None:
                if not max_matching(build_cover_graph(p, a, b)).perfect:
                    violations.append((p, a, b))
        if violations:
            warnings.warn(f"{len(violations)} silent rank-sum cases lacked a perfect matching")


class TestMatchingUncoveredSet:
    def test_three_cycle_everyone(self):
        p = parse_profile(THREE_CYCLE)
        assert matching_uncovered_set(p) == 0b111

    def test_single_candidate(self):
        assert matching_uncovered_set(parse_profile("A")) == 1

    def test_unanimous_top_only(self):
        p = parse_profile("3: B > A > C")
        assert mask_names(p, matching_uncovered_set(p)) == ("B",)

    def test_five_voter_counterexample_singleton(self):
        inst = counterexample_relax1()
        members = matching_uncovered_set(inst.profile)
        assert mask_names(inst.profile, members) == ("D",)

    def test_hundred_voter_counterexample(self):
        # Both cycle edges the interval test cannot certify, (C,D) and (D,A),
        # do have perfect matchings; A and B fail against their successors.
        inst = counterexample_relax2()
        p = inst.profile
        assert set(mask_names(p, matching_uncovered_set(p))) == {"C", "D"}
        assert not max_matching(build_cover_graph(p, "A", "B")).perfect
        assert not max_matching(build_cover_graph(p, "B", "C")).perfect
        assert max_matching(build_cover_graph(p, "C", "D")).perfect
        assert max_matching(build_cover_graph(p, "D", "A")).perfect

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_rotational_profiles_include_everyone(self, n):
        p = rotational_profile(range(n), n).profile
        assert matching_uncovered_set(p) == (1 << n) - 1

    def test_three_cycle_instance_wrapper(self):
        inst = three_cycle()
        assert mask_names(inst.profile, matching_uncovered_set(inst.profile)) == ("A", "B", "C")

    def test_pairwise_counts_tallied_once(self, monkeypatch):
        calls = []

        def counting(p):
            calls.append(p)
            return pairwise_counts(p)

        monkeypatch.setattr("mdx.matching.pairwise_counts", counting)
        monkeypatch.setattr("mdx.tournament.pairwise_counts", counting)
        p = counterexample_relax2().profile
        assert set(mask_names(p, matching_uncovered_set(p))) == {"C", "D"}
        assert len(calls) == 1

    def test_cover_table_computed_once_per_profile(self, cover_tables):
        p = counterexample_relax2().profile
        assert set(mask_names(p, matching_uncovered_set(p))) == {"C", "D"}
        assert set(mask_names(p, matching_uncovered_set(p))) == {"C", "D"}
        q = counterexample_relax1().profile
        assert mask_names(q, matching_uncovered_set(q)) == ("D",)
        assert cover_tables == [p, q]

    @settings(max_examples=50, deadline=None)
    @given(profiles(max_n=4, max_m=5, min_n=2))
    def test_membership_matches_definition(self, p):
        members = matching_uncovered_set(p)
        for a in range(p.n):
            expect = all(
                max_matching(build_cover_graph(p, a, b)).perfect
                for b in range(p.n)
                if b != a
            )
            assert bool(members >> a & 1) == expect
