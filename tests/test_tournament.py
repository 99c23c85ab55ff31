"""Weighted tournament graphs, the matrix file format, and cyclic symmetry."""

from fractions import Fraction

import pytest
from hypothesis import given, settings

from conftest import profiles
from mdx.instances import counterexample_relax2, rotational_profile
from mdx.profile import pairwise_counts, parse_profile
from mdx.tournament import (
    GraphParseError,
    SymmetrySearchError,
    WeightedTournamentGraph,
    build_tournament,
    check_cyclic_symmetry,
    find_cyclic_symmetry,
    parse_graph,
    serialize_graph,
)

THREE_CYCLE = "A > B > C\nB > C > A\nC > A > B\n"

# Five candidates on a circulant: every candidate beats its successor with
# weight 3/5 ... the full row pattern 0, 0.3, 0.4, 0.6, 0.7 repeats shifted.
PENTA_GRAPH = """\
names: A,B,C,D,E
0   0.3 0.4 0.6 0.7
0.7 0   0.3 0.4 0.6
0.6 0.7 0   0.3 0.4
0.4 0.6 0.7 0   0.3
0.3 0.4 0.6 0.7 0
"""


class TestBuildTournament:
    def test_three_cycle_exact_thirds(self):
        g = build_tournament(parse_profile(THREE_CYCLE))
        assert g.names == ("A", "B", "C") and g.m == 3
        two_thirds = Fraction(2, 3)
        assert g.weight[0][1] == g.weight[1][2] == g.weight[2][0] == two_thirds
        assert g.weight[1][0] == g.weight[2][1] == g.weight[0][2] == 1 - two_thirds
        assert g.counts[0][1] == 2 and g.counts[1][0] == 1

    def test_unanimous_row_of_ones(self):
        g = build_tournament(parse_profile("4: A > B > C"))
        assert g.weight[0][1] == g.weight[0][2] == g.weight[1][2] == 1
        assert g.weight[1][0] == 0 and g.m == 4

    def test_hundred_voter_counterexample_weights(self):
        g = build_tournament(counterexample_relax2().profile)
        idx = {name: g.index(name) for name in "ABCD"}
        expected = {
            ("B", "A"): Fraction(7, 10),
            ("C", "B"): Fraction(13, 20),
            ("D", "C"): Fraction(13, 20),
            ("A", "D"): Fraction(7, 10),
            ("C", "A"): Fraction(1, 2),
            ("D", "B"): Fraction(11, 20),
        }
        for (x, y), w in expected.items():
            assert g.weight[idx[x]][idx[y]] == w

    @settings(max_examples=60)
    @given(profiles(min_n=2))
    def test_weights_complementary(self, p):
        g = build_tournament(p)
        for x in range(g.n):
            assert g.weight[x][x] == 0
            for y in range(g.n):
                if x != y:
                    assert g.weight[x][y] + g.weight[y][x] == 1
                    assert g.counts[x][y] + g.counts[y][x] == p.m


@settings(max_examples=60)
@given(profiles(min_n=2, max_n=5, max_m=6))
def test_weight_view_is_counts_over_m(p):
    g = build_tournament(p)
    counts = pairwise_counts(p)
    assert all(
        g.weight[x][y] == Fraction(counts[x][y], p.m) for x in range(p.n) for y in range(p.n)
    )
    assert parse_graph(serialize_graph(g)).weight == g.weight


class TestGraphFiles:
    def test_parse_penta(self):
        g = parse_graph(PENTA_GRAPH)
        assert g.names == ("A", "B", "C", "D", "E")
        assert g.m == 10
        assert g.weight[0][1] == Fraction(3, 10)
        assert g.weight[0][2] == Fraction(2, 5)
        assert g.weight[4][0] == Fraction(3, 10)

    def test_rational_entries_and_comments(self):
        g = parse_graph("# demo\nnames: X,Y\n0 1/3\n2/3 0\n")
        assert g.weight[0][1] == Fraction(1, 3) and g.m == 3

    @pytest.mark.parametrize(
        "text, line",
        [
            ("0 1\n1 0", 1),                      # missing header
            ("names: A,,B", 1),                   # empty name in header
            ("names: A,B\n0 1 2", 2),             # wrong entry count
            ("names: A,B\n0 x\nx 0", 2),          # unparsable entry
            ("names: A,B\n0 1", 2),               # too few rows
        ],
    )
    def test_parse_errors_carry_line_numbers(self, text, line):
        with pytest.raises(GraphParseError) as err:
            parse_graph(text)
        assert err.value.line == line

    def test_inconsistent_weights_rejected(self):
        with pytest.raises(ValueError, match="sum to 1"):
            parse_graph("names: A,B\n0 1/3\n1/3 0")

    def test_round_trip_preserves_weights(self):
        g = build_tournament(parse_profile(THREE_CYCLE))
        g2 = parse_graph(serialize_graph(g))
        assert g2.names == g.names and g2.weight == g.weight

    def test_round_trip_m_is_reduced_lcm(self):
        # Weights 0 and 1 have denominator 1, so the reparsed m collapses.
        g = build_tournament(parse_profile("4: A > B > C"))
        g2 = parse_graph(serialize_graph(g))
        assert g2.weight == g.weight and g2.m == 1

    @settings(max_examples=40)
    @given(profiles(min_n=2))
    def test_round_trip_any_profile(self, p):
        g = build_tournament(p)
        g2 = parse_graph(serialize_graph(g))
        assert g2.names == g.names and g2.weight == g.weight
        assert g.m % g2.m == 0


class TestCyclicSymmetry:
    def test_three_cycle_witness(self):
        g = build_tournament(parse_profile(THREE_CYCLE))
        witness = find_cyclic_symmetry(g)
        assert witness.found and witness.tau == (1, 2, 0)

    def test_penta_rotation_found(self):
        witness = find_cyclic_symmetry(parse_graph(PENTA_GRAPH))
        assert witness.tau == (1, 2, 3, 4, 0)

    def test_penta_double_step_also_valid(self):
        # The cycle A -> C -> E -> B -> D also preserves the circulant.
        g = parse_graph(PENTA_GRAPH)
        assert check_cyclic_symmetry(g, (2, 3, 4, 0, 1))

    def test_identity_is_not_a_cycle(self):
        g = build_tournament(parse_profile(THREE_CYCLE))
        assert not check_cyclic_symmetry(g, (0, 1, 2))

    def test_weight_breaking_cycle_rejected(self):
        g = build_tournament(parse_profile("4: A > B > C"))
        assert not check_cyclic_symmetry(g, (1, 2, 0))
        assert not find_cyclic_symmetry(g).found

    def test_invalid_tau_raises(self):
        g = build_tournament(parse_profile(THREE_CYCLE))
        with pytest.raises(ValueError):
            check_cyclic_symmetry(g, (0, 0, 1))
        with pytest.raises(ValueError):
            check_cyclic_symmetry(g, (0, 1))

    def test_hundred_voter_counterexample_has_none(self):
        g = build_tournament(counterexample_relax2().profile)
        assert not find_cyclic_symmetry(g).found

    def test_single_candidate_trivial_witness(self):
        g = build_tournament(parse_profile("A"))
        assert find_cyclic_symmetry(g).tau == (0,)

    def test_search_limit(self):
        g = build_tournament(rotational_profile(range(9), 9).profile)
        with pytest.raises(SymmetrySearchError):
            find_cyclic_symmetry(g)
        # An explicit tau can still be checked above the search limit.
        rotation = tuple((i + 1) % 9 for i in range(9))
        assert check_cyclic_symmetry(g, rotation)

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_rotational_profiles_are_symmetric(self, n):
        g = build_tournament(rotational_profile(range(n), n).profile)
        witness = find_cyclic_symmetry(g)
        assert witness.found
        assert check_cyclic_symmetry(g, witness.tau)

    @settings(max_examples=40)
    @given(profiles(min_n=2))
    def test_found_witness_always_checks(self, p):
        g = build_tournament(p)
        witness = find_cyclic_symmetry(g)
        if witness.found:
            assert check_cyclic_symmetry(g, witness.tau)


def test_graph_validation():
    with pytest.raises(ValueError):
        WeightedTournamentGraph(("A", "A"), ((0,),) * 2, 1)
    with pytest.raises(ValueError):
        WeightedTournamentGraph(("A",), ((1,),), 1)
    with pytest.raises(ValueError):
        # 1 + 2 voters on one pair is not m = 2.
        WeightedTournamentGraph(("A", "B"), ((0, 1), (2, 0)), 2)
    with pytest.raises(ValueError):
        # A negative count, even one that sums to m with its complement.
        WeightedTournamentGraph(("A", "B"), ((0, -1), (3, 0)), 2)
