"""Profile parsing, pairwise statistics, and candidate-set operations."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import candidate_names, profiles
from mdx.instances import counterexample_relax1, counterexample_relax2
from mdx.profile import (
    ProfileParseError,
    VotingProfile,
    default_candidates,
    iter_set,
    mask_names,
    pairwise_counts,
    parse_profile,
    prefer_at_least,
    prefer_at_most,
    restrict_profile,
    serialize_profile,
    set_of,
    triple_count,
)
from mdx.rules import apply_rule

THREE_CYCLE = "A > B > C\nB > C > A\nC > A > B\n"


def names_of(p, mask):
    return set(mask_names(p, mask))


class TestParsing:
    def test_three_cycle(self):
        p = parse_profile(THREE_CYCLE)
        assert p.candidates == ("A", "B", "C")
        assert p.n == 3 and p.m == 3
        assert p.orderings == ((0, 1, 2), (1, 2, 0), (2, 0, 1))

    def test_single_voter(self):
        p = parse_profile("A > B")
        assert p.n == 2 and p.m == 1

    def test_multiplicities_expand(self):
        p = parse_profile("2: X > Y\n1: Y > X")
        assert p.m == 3
        counts = pairwise_counts(p)
        assert counts[p.index("X")][p.index("Y")] == 2
        assert counts[p.index("Y")][p.index("X")] == 1

    def test_comments_and_blank_lines(self):
        p = parse_profile("# header\n\nA > B  # trailing note\n\nB > A\n")
        assert p.m == 2

    @pytest.mark.parametrize(
        "text, line",
        [
            ("A > A", 1),                 # duplicate inside one ordering
            ("A > B\nA", 2),              # incomplete ordering
            ("A > B\nA > C", 2),          # unknown candidate
            ("", 1),                      # empty profile
            ("A > > B", 1),               # malformed
            ("0: A > B", 1),              # multiplicity must be >= 1
            ("x: A > B", 1),              # multiplicity must be an integer
        ],
    )
    def test_errors_carry_line_numbers(self, text, line):
        with pytest.raises(ProfileParseError) as err:
            parse_profile(text)
        assert err.value.line == line

    def test_serialize_one_voter_per_line(self):
        p = counterexample_relax2().profile
        text = serialize_profile(p)
        assert len(text.strip().splitlines()) == p.m == 100

    @settings(max_examples=60)
    @given(profiles())
    def test_serialize_round_trip(self, p):
        # Re-parsing adopts the first ballot's candidate order, so compare
        # the canonical text forms rather than the index-level tuples.
        text = serialize_profile(p)
        q = parse_profile(text)
        assert serialize_profile(q) == text
        assert set(q.candidates) == set(p.candidates)
        assert q.m == p.m


class TestPairwiseCounts:
    def test_three_cycle_margins(self):
        counts = pairwise_counts(parse_profile(THREE_CYCLE))
        assert counts[0][1] == 2 and counts[1][2] == 2 and counts[2][0] == 2
        assert counts[1][0] == 1 and counts[2][1] == 1 and counts[0][2] == 1

    def test_unanimous(self):
        p = parse_profile("4: A > B > C")
        counts = pairwise_counts(p)
        assert counts[0][1] == counts[0][2] == counts[1][2] == 4

    def test_hundred_voter_counterexample(self):
        # Counted from the seven voter blocks, not from any figure.
        p = counterexample_relax2().profile
        counts = pairwise_counts(p)
        idx = {name: p.index(name) for name in "ABCD"}
        expected = {
            ("B", "A"): 70,
            ("C", "B"): 65,
            ("D", "C"): 65,
            ("A", "D"): 70,
            ("C", "A"): 50,
            ("D", "B"): 55,
        }
        for (x, y), want in expected.items():
            assert counts[idx[x]][idx[y]] == want
            assert counts[idx[y]][idx[x]] == 100 - want


class TestTripleCount:
    def test_three_cycle(self):
        p = parse_profile(THREE_CYCLE)
        assert triple_count(p, "A", "B", "C") == 1

    def test_unanimous_reversed(self):
        p = parse_profile("3: A > B > C")
        assert triple_count(p, "C", "B", "A") == 0

    def test_big_counterexample_block(self):
        # 35 voters B>A>D>C plus 10 voters C>B>A>D rank B, A, D in that order.
        p = counterexample_relax2().profile
        assert triple_count(p, "B", "A", "D") == 45

    def test_distinct_required(self):
        p = parse_profile(THREE_CYCLE)
        with pytest.raises(ValueError):
            triple_count(p, "A", "A", "B")


class TestPreferenceSets:
    def test_three_cycle_prefix(self):
        p = parse_profile(THREE_CYCLE)
        assert names_of(p, prefer_at_least(p, 0, "B")) == {"A", "B"}

    def test_top_choice_prefix_is_singleton(self):
        p = parse_profile(THREE_CYCLE)
        for v, order in enumerate(p.orderings):
            top = order[0]
            assert prefer_at_least(p, v, top) == 1 << top

    def test_three_cycle_suffix(self):
        p = parse_profile(THREE_CYCLE)
        assert names_of(p, prefer_at_most(p, 1, "A")) == {"A"}

    def test_bottom_choice_suffix_is_singleton(self):
        p = parse_profile(THREE_CYCLE)
        for v, order in enumerate(p.orderings):
            bottom = order[-1]
            assert prefer_at_most(p, v, bottom) == 1 << bottom

    def test_five_voter_counterexample_sets(self):
        p = counterexample_relax1().profile
        assert names_of(p, prefer_at_least(p, 4, "A")) == {"A", "C"}
        assert names_of(p, prefer_at_most(p, 2, "D")) == {"C", "D"}

    @settings(max_examples=60)
    @given(profiles())
    def test_prefix_suffix_partition(self, p):
        full = (1 << p.n) - 1
        for v in range(p.m):
            for x in range(p.n):
                hi = prefer_at_least(p, v, x)
                lo = prefer_at_most(p, v, x)
                assert hi | lo == full
                assert hi & lo == 1 << x
                assert bin(hi).count("1") == p.rank(v, x) + 1


class TestRestriction:
    def test_identity(self):
        p = parse_profile(THREE_CYCLE)
        assert restrict_profile(p, (1 << p.n) - 1) == p

    def test_three_cycle_to_pair(self):
        p = parse_profile(THREE_CYCLE)
        q = restrict_profile(p, set_of([p.index("A"), p.index("B")]))
        assert q.candidates == ("A", "B")
        assert q.orderings == ((0, 1), (1, 0), (0, 1))

    def test_five_voter_counterexample_to_pair(self):
        p = counterexample_relax1().profile
        q = restrict_profile(p, set_of([p.index("A"), p.index("D")]))
        a, d = q.index("A"), q.index("D")
        assert [order.index(d) < order.index(a) for order in q.orderings] == [
            True, True, False, False, False,
        ]

    def test_empty_keep_rejected(self):
        with pytest.raises(ValueError):
            restrict_profile(parse_profile(THREE_CYCLE), 0)

    @settings(max_examples=60)
    @given(profiles(min_n=2))
    def test_counts_commute_with_restriction(self, p):
        keep = set_of(range(0, p.n, 2)) or 1
        q = restrict_profile(p, keep)
        before = pairwise_counts(p)
        after = pairwise_counts(q)
        kept = list(iter_set(keep))
        for i, x in enumerate(kept):
            for j, y in enumerate(kept):
                if x != y:
                    assert after[i][j] == before[x][y]


@settings(max_examples=60)
@given(profiles(min_n=2))
def test_counts_are_complementary(p):
    counts = pairwise_counts(p)
    for x in range(p.n):
        assert counts[x][x] == 0
        for y in range(x + 1, p.n):
            assert counts[x][y] + counts[y][x] == p.m


def test_default_candidates_wrap():
    names = default_candidates(28)
    assert names[0] == "A" and names[25] == "Z"
    assert names[26] == "A1" and names[27] == "B1"
    assert len(set(names)) == 28


def test_profile_validation():
    with pytest.raises(ValueError):
        VotingProfile(("A", "B"), ((0, 0),))
    with pytest.raises(ValueError):
        VotingProfile(("A", "A"), ((0, 1),))
    with pytest.raises(ValueError):
        VotingProfile(("A", "B"), ())


@st.composite
def run_texts(draw, max_n: int = 4, max_lines: int = 5):
    """Profile text whose lines carry ``k:`` prefixes, some of them repeated."""
    n = draw(st.integers(1, max_n))
    names = candidate_names(n)
    lines = []
    for _ in range(draw(st.integers(1, max_lines))):
        order = draw(st.permutations(names))
        count = draw(st.integers(1, 4))
        prefix = f"{count}: " if count > 1 or draw(st.booleans()) else ""
        lines.append(prefix + " > ".join(order))
    return "\n".join(lines) + "\n"


class TestRuns:
    def test_adjacent_equal_lines_merge(self):
        p = parse_profile("2: A > B\nA > B\nB > A\nA > B\n")
        assert p.runs == (((0, 1), 3), ((1, 0), 1), ((0, 1), 1))
        assert p.m == 5

    def test_runs_and_orderings_build_equal_profiles(self):
        by_runs = VotingProfile(("A", "B"), runs=[((0, 1), 2), ((0, 1), 1), ((1, 0), 1)])
        by_voters = VotingProfile(("A", "B"), ((0, 1), (0, 1), (0, 1), (1, 0)))
        assert by_runs == by_voters and hash(by_runs) == hash(by_voters)
        assert by_runs.orderings == by_voters.orderings
        assert by_runs != VotingProfile(("A", "B"), ((0, 1), (1, 0), (0, 1), (0, 1)))

    def test_run_validation_names_the_first_voter(self):
        with pytest.raises(ValueError, match="voter 3 ordering"):
            VotingProfile(("A", "B"), runs=[((0, 1), 3), ((1, 1), 2)])
        with pytest.raises(ValueError, match="voter 1 count"):
            VotingProfile(("A", "B"), runs=[((0, 1), 1), ((1, 0), 0)])
        with pytest.raises(TypeError):
            VotingProfile(("A", "B"), ((0, 1),), runs=[((0, 1), 1)])

    @settings(max_examples=80)
    @given(run_texts())
    def test_prefixed_text_matches_its_expansion(self, text):
        p = parse_profile(text)
        q = parse_profile(serialize_profile(p))
        assert p == q
        assert p.m == q.m == len(q.orderings)
        assert p.orderings == q.orderings
        assert pairwise_counts(p) == pairwise_counts(q)
        n = p.n
        for x in range(n):
            for y in range(n):
                for z in range(n):
                    if len({x, y, z}) == 3:
                        assert triple_count(p, x, y, z) == triple_count(q, x, y, z)
        for keep in range(1, 1 << n):
            assert restrict_profile(p, keep) == restrict_profile(q, keep)

    def test_huge_multiplicity_is_never_expanded(self):
        p = parse_profile("1000000000000000: A > B > C\nB > C > A")
        assert p.m == 10**15 + 1
        assert pairwise_counts(p)[0][1] == 10**15
        assert p.candidates[apply_rule("copeland", p).winner] == "A"
        assert "orderings" not in vars(p)
