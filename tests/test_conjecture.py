"""The cycle-matching condition and its exhaustive verifier."""

import importlib.util
import itertools
import math
import os
import random
import sys
from concurrent.futures import Future
from pathlib import Path

import numpy as np
import pytest

from conftest import random_profile
from mdx.conjecture import (
    CycleCheck,
    Verdict,
    _blocks,
    _cycle_edges_match,
    _hall_table,
    _packed_tally,
    _profile_from_ranks,
    _tables,
    check_cycle_condition,
    count_canonical,
    enumerate_profiles,
    verify_conjecture,
)
from mdx.instances import counterexample_relax1
from mdx.matching import build_cover_graph, hall_violator, max_matching
from mdx.profile import VotingProfile, pairwise_counts, parse_profile, serialize_profile

THREE_CYCLE = "A > B > C\nB > C > A\nC > A > B\n"


def rotations_of(p: VotingProfile):
    """All simultaneous cyclic relabelings c -> c+k of a profile."""
    n = p.n
    for k in range(n):
        orders = tuple(tuple((c + k) % n for c in order) for order in p.orderings)
        yield VotingProfile(p.candidates, orders)


class TestCycleCondition:
    def test_three_cycle_all_edges_found(self):
        check = check_cycle_condition(parse_profile(THREE_CYCLE))
        assert [e.pair for e in check.edges] == [("A", "B"), ("B", "C"), ("C", "A")]
        assert all(e.found for e in check.edges)
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

    def test_single_candidate_trivial(self):
        check = check_cycle_condition(parse_profile("A"))
        assert check.edges == () and check.satisfied

    def test_fast_paths_do_not_change_the_verdicts(self):
        # Every edge verdict agrees with the brute-force Hall oracle.
        rng = random.Random(13)
        for _ in range(40):
            p = random_profile(rng, max_n=4, max_m=4, min_n=2)
            check = check_cycle_condition(p)
            for i, e in enumerate(check.edges):
                g = build_cover_graph(p, i, (i + 1) % p.n)
                assert e.found == (hall_violator(g) is None)

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
                    if a != b and 2 * counts[a][b] >= p.m:
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


class TestTables:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_tables_match_the_loop_definition(self, n):
        perms, rot, fwd = _tables(n)
        assert perms == list(itertools.permutations(range(n)))
        rank = {s: i for i, s in enumerate(perms)}
        for k in range(n):
            for r, s in enumerate(perms):
                assert rot[k, r] == rank[tuple((c + k) % n for c in s)]
        for r, s in enumerate(perms):
            pos = {c: i for i, c in enumerate(s)}
            for j in range(n):
                assert fwd[j, r] == (1 if pos[j] < pos[(j + 1) % n] else 0)


    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_only_the_first_factorial_n_minus_1_ranks_lead_a_class(self, n):
        # Every rotation moves a rank below (n-1)! (an ordering that starts
        # with candidate 0) upwards and every other rank downwards, so only
        # those ranks can be the least rank of a canonical profile.
        _, rot, _ = _tables(n)
        lowest = rot[1:].min(axis=0)
        lead = math.factorial(n - 1)
        assert all(lowest[r0] > r0 for r0 in range(lead))
        assert all(lowest[r0] < r0 for r0 in range(lead, math.factorial(n)))


def no_weak_majority_edge(p: VotingProfile) -> bool:
    counts = pairwise_counts(p)
    return all(2 * counts[j][(j + 1) % p.n] < p.m for j in range(p.n))


def never_matches(n, rows):
    return np.zeros((len(rows), n), dtype=bool)


def every_tuple(n, m):
    """Every nondecreasing m-tuple of the n! ordering ranks, one per row."""
    return np.array(list(itertools.combinations_with_replacement(range(math.factorial(n)), m)))


# Every nondecreasing rank tuple of these cells is checked: 10,645 in all.
SMALL_CELLS = [(3, 1), (3, 2), (3, 3), (3, 4), (3, 5), (4, 1), (4, 2), (4, 3), (5, 2)]


class TestRankTables:
    def test_hall_test_agrees_with_the_matcher_per_edge(self):
        # The exact check reads Hall's condition over candidate sets from
        # a rank table; Hopcroft-Karp on the voter-level cover graph is the
        # independent oracle.
        for n, m in SMALL_CELLS:
            rows = every_tuple(n, m)
            matched = _cycle_edges_match(n, rows)
            assert matched.shape == (len(rows), n)
            for row, got in zip(rows.tolist(), matched.tolist()):
                check = check_cycle_condition(_profile_from_ranks(n, row))
                assert got == [e.found for e in check.edges], (n, row)

    @pytest.mark.parametrize(
        "n, m",
        SMALL_CELLS + [(n, m) for n in (2, 3) for m in (1, 2, 3, 4, 7, 8, 15, 16)],
    )
    def test_packed_tally_opens_exactly_the_rows_without_a_weak_majority(self, n, m):
        # m in {1, 2, 3, 4, 7, 8, 15, 16} sits on both sides of each change
        # of the field width m.bit_length() + 1.
        code, bias, high = _packed_tally(n, m)
        rows = every_tuple(n, m)
        opened = ((code[rows].sum(axis=1) + bias) & high) == 0
        expected = [no_weak_majority_edge(_profile_from_ranks(n, row)) for row in rows.tolist()]
        assert opened.tolist() == expected

    def test_the_hall_table_waits_for_a_survivor(self):
        # (3, 4) and (6, 2) have no canonical profile without a weak-majority
        # edge, so their scans build no table over candidate sets.
        _hall_table.cache_clear()
        assert verify_conjecture(3, 4).status == verify_conjecture(6, 2).status == "verified"
        assert _hall_table.cache_info().currsize == 0
        assert verify_conjecture(3, 3).status == "verified"
        assert _hall_table.cache_info().currsize == 1

    def test_too_many_voters_for_the_tally_is_refused_before_scanning(self):
        # n * (m.bit_length() + 1) bits must fit in an int64's 63: 2 * 42,
        # 2 * 32 and 7 * 10 do not, so these cells raise instead of summing
        # with a carry between fields (each would also scan for ages).
        for n, m in ((2, 2**40), (2, 2**30), (7, 256)):
            with pytest.raises(ValueError, match="overflow"):
                verify_conjecture(n, m, budget=10**1000)


class TestBlockScan:
    @pytest.mark.parametrize("cap", [1, 2, 7, 50])
    @pytest.mark.parametrize("size, length", [(1, 3), (5, 0), (5, 1), (6, 3), (9, 4)])
    def test_blocks_tile_the_tuples_in_order(self, monkeypatch, cap, size, length):
        # Concatenated, the blocks are every nondecreasing tuple in
        # lexicographic order, and none holds more than the cap (a single
        # row when the whole tuple is fixed by the head).
        monkeypatch.setattr("mdx.conjecture._BLOCK_ROWS", cap)
        tuples = []
        for head, tails in _blocks(size, length):
            assert len(tails) <= cap and tails.shape[1] == length - len(head)
            tuples += [(*head, *row) for row in tails.tolist()]
        assert tuples == list(itertools.combinations_with_replacement(range(size), length))

    @pytest.mark.parametrize("cap", [1, 5, 60])
    @pytest.mark.parametrize("n, m", [(3, 5), (4, 3), (5, 2)])
    def test_split_blocks_count_every_class(self, monkeypatch, cap, n, m):
        monkeypatch.setattr("mdx.conjecture._BLOCK_ROWS", cap)
        verdict = verify_conjecture(n, m)
        assert (verdict.status, verdict.profiles_checked) == ("verified", count_canonical(n, m))

    @pytest.mark.parametrize("cap", [1, 5, None])
    @pytest.mark.parametrize("n, m", [(3, 3), (3, 5), (4, 3)])
    def test_counterexample_follows_enumeration_order(self, monkeypatch, cap, n, m):
        # With an exact check that never matches, the counterexample is the
        # first enumerated profile without a weak-majority cycle edge, however
        # the scan is split into blocks (None keeps the module's cap).
        if cap is not None:
            monkeypatch.setattr("mdx.conjecture._BLOCK_ROWS", cap)
        monkeypatch.setattr("mdx.conjecture._cycle_edges_match", never_matches)
        expected = next(
            (position, p)
            for position, p in enumerate(enumerate_profiles(n, m), start=1)
            if no_weak_majority_edge(p)
        )
        verdict = verify_conjecture(n, m)
        assert verdict.status == "counterexample"
        assert (verdict.profiles_checked, verdict.counterexample) == expected


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

    @pytest.mark.parametrize("cpus, expected", [(64, 6), (2, 2), (None, 1)])
    def test_pool_is_capped_by_shards_and_cpus(self, monkeypatch, cpus, expected):
        # An inline stand-in for the process pool records its size and runs
        # each shard in this process, so no process is started.
        sizes = []

        class InlinePool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                future = Future()
                future.set_result(fn(*args))
                return future

        monkeypatch.setattr("mdx.conjecture.ProcessPoolExecutor", InlinePool)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        verdict = verify_conjecture(4, 3, workers=64)
        assert sizes == [expected]  # 3! = 6 ranks can lead a 4-candidate profile: 6 shards
        assert (verdict.status, verdict.profiles_checked) == ("verified", count_canonical(4, 3))

    def test_budget_refusal_is_upfront(self):
        verdict = verify_conjecture(4, 4, budget=1)
        assert verdict.status == "budget-exceeded"
        assert verdict.profiles_checked == 0
        assert verdict.counterexample is None

    def test_counterexample_is_the_first_failing_profile(self, monkeypatch):
        # With an exact check that never finds a perfect matching, the first
        # canonical profile the majority shortcut leaves open fails.
        monkeypatch.setattr("mdx.conjecture._cycle_edges_match", never_matches)
        verdict = verify_conjecture(3, 3)
        expected = next(
            (position, p)
            for position, p in enumerate(enumerate_profiles(3, 3), start=1)
            if no_weak_majority_edge(p)
        )
        assert verdict.status == "counterexample"
        assert (verdict.profiles_checked, verdict.counterexample) == expected
        assert expected[0] == 20
        assert serialize_profile(expected[1]) == "A > C > B\nB > A > C\nC > B > A\n"


class TestGridScript:
    def test_exit_code_cross_checks_the_orbit_count(self, monkeypatch, capsys):
        path = Path(__file__).resolve().parents[1] / "scripts" / "verify_grid.py"
        spec = importlib.util.spec_from_file_location("verify_grid", path)
        script = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, "verify_grid", script)  # for its dataclass
        spec.loader.exec_module(script)
        argv = ["--max-n", "3", "--max-m", "2"]
        assert script.main(argv) == 0
        short = lambda n, m, **kw: Verdict("verified", n, m, count_canonical(n, m) - 1, 0.0)
        monkeypatch.setattr(script, "verify_conjecture", short)
        assert script.main(argv) == 1
        assert "orbit count" in capsys.readouterr().out
