"""Hand-worked cases for the benchmark's oracles.

    python3 -m pytest bench/test_oracles.py -q
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

import oracles
import workloads

CYCLE = [(0, 1, 2), (1, 2, 0), (2, 0, 1)]
# 2: A > B > C, 1: B > C > A.  A beats B and C 2-1; B beats C 3-0.
CONDORCET = ([(0, 1, 2), (1, 2, 0)], [2, 1])


def rotational(n):
    return [tuple((c + k) % n for c in range(n)) for k in range(n)]


def test_tally_three_cycle():
    c = oracles.tally(CYCLE, [1, 1, 1], 3)
    assert c.tolist() == [[0, 2, 1], [1, 0, 2], [2, 1, 0]]


def test_rules_on_a_condorcet_profile():
    c = oracles.tally(*CONDORCET, 3)
    assert c.tolist() == [[0, 2, 2], [1, 0, 3], [1, 0, 0]]
    assert oracles.copeland(c, 3) == (0, [2, 1, 0])
    assert oracles.uncovered(c, 3) == [0]
    assert oracles.phi_uncovered(c, 3) == [0]
    assert oracles.schulze(c)[0] == 0
    assert oracles.ranked_pairs(c, 3) == 0
    assert oracles.smith_set(c, 3) == [0]
    assert oracles.condorcet_winner(c, 3) == 0
    assert not oracles.cyclic_symmetry(c)


def test_rules_on_the_three_cycle():
    c = oracles.tally(CYCLE, [1, 1, 1], 3)
    assert oracles.copeland(c, 3) == (0, [1, 1, 1])
    assert oracles.uncovered(c, 3) == [0, 1, 2]
    # A->B and B->C lock; C->A would close the cycle, so A has no incoming edge.
    assert oracles.ranked_pairs(c, 3) == 0
    winner, strength = oracles.schulze(c)
    assert winner == 0 and strength[1, 0] == 2
    assert oracles.smith_set(c, 3) == [0, 1, 2]
    assert oracles.condorcet_winner(c, 3) is None
    assert oracles.cyclic_symmetry(c)


def test_phi_thresholds_at_m_100():
    # phi*100 = 61.80..., (1-phi)*100 = 38.19...
    assert oracles._at_least_phi(62, 100) and not oracles._at_least_phi(61, 100)
    assert oracles._at_least_one_minus_phi(39, 100)
    assert not oracles._at_least_one_minus_phi(38, 100)


def test_smith_set_is_undefined_under_a_pairwise_tie():
    c = oracles.tally([(0, 1), (1, 0)], [1, 1], 2)
    assert oracles.smith_set(c, 2) is None


def test_cyclic_symmetry_of_rotational_profiles():
    for n in (4, 5, 6):
        c = oracles.tally(rotational(n), [1] * n, n)
        assert oracles.cyclic_symmetry(c)
        assert oracles.preserves(c, list(range(n)))
    c = oracles.tally(*CONDORCET, 3)
    assert not oracles.preserves(c, [0, 1, 2])


def test_cover_graph_of_one_voter():
    # A > B: G(A,B) has the edge v-v through A; G(B,A) has none.
    assert oracles.perfect_cover_matching([(0, 1)], [0], 2, 0, 1)
    assert not oracles.perfect_cover_matching([(0, 1)], [0], 2, 1, 0)


def test_matching_set_of_reference_instances():
    assert oracles.matching_set(CYCLE, [0, 1, 2], 3) == [0, 1, 2]
    relax1 = [(3, 2, 1, 0), (1, 0, 3, 2), (2, 0, 3, 1)]
    voters = [0, 0, 1, 1, 2]
    # G(A,B), G(B,C), G(C,D) lack perfect matchings; G(D,A) has one.
    assert not oracles.perfect_cover_matching(relax1, voters, 4, 0, 1)
    assert not oracles.perfect_cover_matching(relax1, voters, 4, 1, 2)
    assert not oracles.perfect_cover_matching(relax1, voters, 4, 2, 3)
    assert oracles.perfect_cover_matching(relax1, voters, 4, 3, 0)


def test_plurality_veto_three_cycle():
    # Scores 1,1,1.  A>B>C vetoes C, B>C>A vetoes A, C>A>B vetoes B last.
    assert oracles.plurality_veto(CYCLE, [0, 1, 2], 3) == 1


def test_pairwise_lp_two_candidates():
    # One voter A > B: cost(A) <= cost(B), so P(A,B) = 1; d(A,B) is free,
    # so P(B,A) is unbounded.
    assert oracles.pairwise_lp([(0, 1)], [0], 2, 0, 1) == pytest.approx(1.0, abs=1e-9)
    assert math.isinf(oracles.pairwise_lp([(0, 1)], [0], 2, 1, 0))


@pytest.mark.parametrize("n", [3, 4, 5])
def test_every_candidate_of_cyclic_profiles_has_distortion_3(n):
    types = rotational(n)
    voters = list(range(n))
    for a in range(n):
        worst = max(oracles.pairwise_lp(types, voters, n, a, b) for b in range(n) if b != a)
        assert worst == pytest.approx(3.0, abs=1e-7)


def test_lp_close_and_tie_break():
    assert oracles.lp_close(3.0000000001, 3.0)
    assert not oracles.lp_close(3.001, 3.0)
    assert oracles.lp_close("unbounded", math.inf)
    assert not oracles.lp_close(5.0, math.inf)
    assert oracles.tie_break_winner([3 + 1e-12, 3.0, 3.5]) == 0
    assert oracles.tie_break_winner([3.1, 3.0, 3.0]) == 1


def test_burnside_small_cells():
    # n=2: the swap fixes a multiset iff both orderings appear equally often.
    for m in range(1, 7):
        assert oracles.burnside_classes(2, m) == (m + 1 + (m % 2 == 0)) // 2
    # n=3: rotations move every ordering, so only the identity fixes
    # multisets of size 1 or 2: C(6,1)/3 = 2 and C(7,2)/3 = 7.
    assert oracles.burnside_classes(3, 1) == 2
    assert oracles.burnside_classes(3, 2) == 7


def test_reference_profiles_match_mdx_instances():
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    from mdx import instances

    built = {
        "three-cycle.prof": instances.three_cycle(),
        "rotational-4.prof": instances.rotational_profile("ABCD", 4),
        "rotational-5.prof": instances.rotational_profile("ABCDE", 5),
        "counterexample-relax1.prof": instances.counterexample_relax1(),
    }
    for p in workloads._reference_lp_profiles():
        ref = built[p.name].profile
        order = [workloads.NAMES.index(x) for x in ref.candidates]
        expanded = sorted(tuple(order[c] for c in o) for o in ref.orderings)
        assert expanded == sorted(p.types[t] for t in p.voters())


def test_generated_profiles_have_the_scheduled_sizes():
    for name in workloads.WORKLOADS:
        wl = workloads.build(name, 7)
        assert wl.ops
        for p in wl.profiles:
            c = oracles.tally(p.types, p.counts, p.n)
            assert np.all(c + c.T + np.eye(p.n, dtype=int) * p.m == p.m)
            assert p.text() == workloads.build(name, 7).profiles[wl.profiles.index(p)].text()
    for (n, m, _, _), p in zip(workloads.ELECT_SCHEDULE, workloads.build("elect", 3).profiles):
        assert (p.n, p.m) == (n, m)
