"""Metrics, consistency, fixed-metric ratios, and the distortion LP."""

import math
import random
import re
import struct
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import clone_heavy_cases, euclidean_instance, random_profile
from mdx import metriclp
from mdx.instances import fairness_table, lower_left, lower_right
from mdx.metriclp import (
    DEFAULT_LP_CAP,
    InconsistentMetricError,
    LpCapError,
    Metric,
    MetricParseError,
    SolverFailureError,
    check_consistent,
    fairness_ratio_fixed,
    instance_distortion,
    lps_against,
    max_distortion,
    pairwise_distortion_lp,
    parse_metric,
    serialize_metric,
    social_cost,
    solve_lp,
    voter_labels,
)
from mdx.metriclp import _inequalities  # private: the rows checked below
from mdx.metriclp import _parse_cell  # private: compared against Fraction below
from mdx.profile import parse_profile
from mdx.rules import optimal_lp_winner

THREE_CYCLE = "A > B > C\nB > C > A\nC > A > B\n"


def line_metric(labels, positions, n_candidates):
    points = np.asarray(positions, dtype=float)
    dist = np.abs(points[:, None] - points[None, :])
    return Metric(tuple(labels), n_candidates, dist)


class TestMetricValidation:
    def test_basic_properties_enforced(self):
        with pytest.raises(ValueError, match="square"):
            Metric(("A", "B"), 1, np.zeros((2, 3)))
        with pytest.raises(ValueError, match="symmetric"):
            Metric(("A", "B"), 1, np.array([[0.0, 1.0], [2.0, 0.0]]))
        with pytest.raises(ValueError, match="nonnegative"):
            Metric(("A", "B"), 1, np.array([[0.0, -1.0], [-1.0, 0.0]]))
        with pytest.raises(ValueError, match="diagonal"):
            Metric(("A", "B"), 1, np.array([[1.0, 0.0], [0.0, 0.0]]))
        with pytest.raises(ValueError, match="distinct"):
            Metric(("A", "A"), 1, np.zeros((2, 2)))
        with pytest.raises(ValueError, match="n_candidates"):
            Metric(("A", "B"), 3, np.zeros((2, 2)))

    def test_triangle_checked_at_construction(self):
        bad = np.array([[0.0, 5.0, 1.0], [5.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
        with pytest.raises(ValueError, match="triangle"):
            Metric(("A", "B", "v1"), 2, bad)

    def test_pseudometric_allowed(self):
        # Distinct points at distance zero are fine.
        zero = Metric(("A", "B", "v1"), 2, np.zeros((3, 3)))
        assert zero.triangle_violation() is None
        assert zero.n_voters == 1

    def test_matrix_frozen(self):
        metric = line_metric(["A", "B", "v1"], [0.0, 2.0, 1.0], 2)
        with pytest.raises(ValueError):
            metric.dist[0, 1] = 7.0

    def test_index_by_name_and_position(self):
        metric = line_metric(["A", "B", "v1"], [0.0, 2.0, 1.0], 2)
        assert metric.index("v1") == 2 and metric.index(0) == 0
        with pytest.raises(KeyError):
            metric.index("Q")
        with pytest.raises(KeyError):
            metric.index(3)

    def test_voter_labels(self):
        assert voter_labels(3) == ("v1", "v2", "v3")

    def test_large_built_metric_checked(self):
        # 2 candidates + 48 voters on a line, one voter-voter distance stretched.
        positions = [0.0, 10.0] + [0.2 * i for i in range(48)]
        dist = np.abs(np.subtract.outer(positions, positions))
        dist[5, 9] = dist[9, 5] = 9.0
        i, j, k = full_triangle_scan(dist, metriclp.TRIANGLE_TOL)
        labels = ("A", "B") + voter_labels(48)
        message = f"triangle inequality fails: d({labels[i]},{labels[j]}) > d(.,{labels[k]}) sum"
        with pytest.raises(ValueError, match=re.escape(message)):
            Metric(labels, 2, dist)

    def test_parsed_metric_checked_once(self):
        text = serialize_metric(lower_left(382, 1000, 60).metric)
        with mock.patch.object(Metric, "triangle_violation", autospec=True,
                               side_effect=Metric.triangle_violation) as scan:
            parse_metric(text)
        assert scan.call_count == 1


def full_triangle_scan(d, tol):
    """Metric.triangle_violation without the duplicate-row shortcut: every k."""
    worst = None
    worst_gap = tol
    gap = np.empty_like(d)
    for k in range(len(d)):
        np.add.outer(d[:, k], d[k, :], out=gap)
        np.subtract(d, gap, out=gap)
        ij = np.unravel_index(np.argmax(gap), gap.shape)
        if gap[ij] > worst_gap:
            worst_gap = gap[ij]
            worst = (int(ij[0]), int(ij[1]), k)
    return worst


def unchecked(dist):
    """A Metric holding ``dist`` whose construction-time checks never ran."""
    metric = object.__new__(Metric)
    object.__setattr__(metric, "labels", voter_labels(len(dist)))
    object.__setattr__(metric, "n_candidates", 0)
    object.__setattr__(metric, "dist", np.asarray(dist, dtype=float))
    return metric


def repeated_point_metrics(count):
    """Seeded small-integer L1 matrices on repeated points, half of them
    with one stretched distance; exact ties are common."""
    rng = np.random.default_rng(2026)
    for _ in range(count):
        q = int(rng.integers(1, 8))
        coords = rng.integers(0, 4, size=(q, 2))
        base = np.abs(coords[:, None, :] - coords[None, :, :]).sum(axis=2).astype(float)
        if q > 1 and rng.random() < 0.5:
            a, b = rng.choice(q, size=2, replace=False)
            base[a, b] = base[b, a] = base[a, b] + int(rng.integers(1, 6))
        points = rng.integers(0, q, size=int(rng.integers(1, 30)))
        yield base[np.ix_(points, points)]


class TestTriangleScanMatchesFullScan:
    # A negative tolerance makes every triple with gap 0 a "violation", so
    # the scans must also agree on which of many tied triples comes first.
    @pytest.mark.parametrize("tol", [metriclp.TRIANGLE_TOL, -1.0])
    def test_seeded_repeated_points(self, tol):
        found = 0
        for dist in repeated_point_metrics(1500):
            expected = full_triangle_scan(dist, tol)
            assert unchecked(dist).triangle_violation(tol) == expected
            found += expected is not None
        assert found > 100

    @pytest.mark.parametrize("build", [lower_left, lower_right])
    def test_line_instances_with_1000_voters(self, build):
        metric = build(382, 1000, 1000).metric
        assert metric.triangle_violation() is None
        assert metric.triangle_violation(-1.0) == full_triangle_scan(metric.dist, -1.0)


class TestMetricFiles:
    def test_round_trip(self):
        metric = line_metric(["A", "B", "v1", "v2"], [0.0, 2.0, 1.0, 2.0], 2)
        again = parse_metric(serialize_metric(metric))
        assert again.labels == metric.labels
        assert again.n_candidates == 2
        assert np.array_equal(again.dist, metric.dist)

    def test_rational_entries_and_comments(self):
        text = "# comment\n,A,v1\nA,0,1/4\nv1,1/4,0\n"
        metric = parse_metric(text)
        assert metric.n_candidates == 1
        assert metric.dist[0, 1] == 0.25

    def test_explicit_candidate_count_overrides_inference(self):
        text = ",A,B\nA,0,1\nB,1,0\n"
        assert parse_metric(text).n_candidates == 2
        assert parse_metric(text, n_candidates=1).n_candidates == 1

    @pytest.mark.parametrize(
        "text, line",
        [
            ("", 1),                                  # empty
            (",A,B\nA,0,1\n", 2),                     # missing row
            (",A,B\nB,0,1\nA,1,0\n", 2),              # row label mismatch
            (",A,B\nA,0\nB,1,0\n", 2),                # short row
            (",A,B\nA,0,x\nB,x,0\n", 2),              # bad entry
            (",A,B\nA,0,1\nB,2,0\n", 1),              # asymmetric -> metric error
        ],
    )
    def test_parse_errors_carry_line_numbers(self, text, line):
        with pytest.raises(MetricParseError) as err:
            parse_metric(text)
        assert err.value.line == line

    @pytest.mark.parametrize(
        "cell", ["inf", "-inf", "nan", "Infinity", "1/0", "0x1p3", "1e400", "1_0"]
    )
    def test_non_rational_entries_rejected(self, cell):
        with pytest.raises(MetricParseError):
            parse_metric(f",A,B\nA,0,{cell}\nB,{cell},0\n")


def _outcome(parse, cell):
    """The float's bits, or the exception type, that ``parse(cell)`` gives."""
    try:
        return struct.pack("<d", parse(cell))
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        return type(exc)


_DECIMALS = st.from_regex(r"\A[-+]?(\d{0,5}\.?\d{0,5})([eE][-+]?\d{1,3})?\Z")
_CELLS = st.one_of(
    _DECIMALS,
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.fractions().map(str),
    st.text(alphabet="0123456789+-./_eEinfaINFA", max_size=10),
)


def _reference_cell(cell):
    """``float(Fraction(cell))``, with underscore cells rejected."""
    if "_" in cell:
        raise ValueError(cell)
    return float(Fraction(cell))


@settings(max_examples=500)
@given(_CELLS)
def test_cell_fast_path_matches_fraction(cell):
    assert _outcome(_parse_cell, cell) == _outcome(_reference_cell, cell)


class TestConsistency:
    def test_fairness_instance_is_consistent(self):
        inst = fairness_table(1, 2, 2)
        assert check_consistent(inst.metric, inst.profile)

    def test_swapped_ballot_breaks_consistency(self):
        inst = fairness_table(1, 2, 2)
        # Voter 2 sits at distances (A,B,C) = (3,1,3); claiming C > A > B
        # contradicts d(C) > d(B).
        text = "C > B > A\nC > A > B\n"
        assert not check_consistent(inst.metric, parse_profile(text))

    def test_all_zero_metric_fits_any_profile(self):
        metric = Metric(("A", "B", "C", "v1", "v2"), 3, np.zeros((5, 5)))
        rng = random.Random(3)
        for _ in range(10):
            p = random_profile(rng, n=3, m=2)
            assert check_consistent(metric, p)

    def test_tolerance_forgives_small_violations(self):
        # The voter sits 0.0008 nearer to B but claims to prefer A.
        metric = line_metric(["A", "B", "v1"], [0.0, 1.0, 0.5004], 2)
        p = parse_profile("A > B")
        assert not check_consistent(metric, p)
        assert check_consistent(metric, p, tol=1e-3)

    def test_alignment_is_label_based(self):
        # Metric lists candidates as (B, A); the profile as (A, B).
        metric = line_metric(["B", "A", "v1"], [2.0, 0.0, 0.5], 2)
        assert check_consistent(metric, parse_profile("A > B"))
        assert not check_consistent(metric, parse_profile("B > A"))

    def test_alignment_mismatches_raise(self):
        metric = line_metric(["A", "B", "v1"], [0.0, 2.0, 1.0], 2)
        with pytest.raises(ValueError):
            check_consistent(metric, parse_profile("A > C"))
        with pytest.raises(ValueError):
            check_consistent(metric, parse_profile("A > B\nB > A"))

    def test_random_euclidean_instances_consistent(self):
        rng = random.Random(11)
        for _ in range(20):
            metric, p = euclidean_instance(rng, n=rng.randint(2, 4), m=rng.randint(1, 4))
            assert check_consistent(metric, p, tol=1e-12)


class TestFixedMetricRatios:
    def test_social_cost(self):
        inst = fairness_table(1, 2, 2)
        assert social_cost(inst.metric, "A") == 8.0
        assert social_cost(inst.metric, "B") == 2.0
        assert social_cost(inst.metric, "C") == 4.0

    def test_social_cost_colocated(self):
        metric = line_metric(["A", "v1", "v2"], [1.0, 1.0, 1.0], 1)
        assert social_cost(metric, "A") == 0.0

    def test_instance_distortion_fairness(self):
        inst = fairness_table(1, 2, 2)
        assert instance_distortion(inst.metric, inst.profile, "A") == 4.0
        assert instance_distortion(inst.metric, inst.profile, "B") == 1.0

    def test_instance_distortion_skewed_instances(self):
        ll = lower_left(382, 1000, 1000)
        assert instance_distortion(ll.metric, ll.profile, "A") == pytest.approx(
            4.2356020942408374
        )
        lr = lower_right(618, 1000, 1000)
        assert instance_distortion(lr.metric, lr.profile, "A") == pytest.approx(
            4.236245954692556
        )

    def test_zero_optimum_branches(self):
        metric = line_metric(["B", "A", "v1"], [0.0, 1.0, 0.0], 2)
        p = parse_profile("B > A")
        assert instance_distortion(metric, p, "B") == 1.0
        assert instance_distortion(metric, p, "A") == math.inf

    def test_inconsistent_metric_rejected(self):
        inst = fairness_table(1, 2, 2)
        bad = parse_profile("A > B > C\nA > B > C")
        with pytest.raises(InconsistentMetricError):
            instance_distortion(inst.metric, bad, "A")
        with pytest.raises(InconsistentMetricError):
            fairness_ratio_fixed(inst.metric, bad, "A", 1)

    def test_fairness_ratio_table(self):
        inst = fairness_table(1, 2, 2)
        assert fairness_ratio_fixed(inst.metric, inst.profile, "A", 1) == 5.0
        assert fairness_ratio_fixed(inst.metric, inst.profile, "C", 1) == 3.0
        assert fairness_ratio_fixed(inst.metric, inst.profile, "B", 1) == 1.0

    def test_fairness_ratio_full_k_equals_distortion(self):
        inst = fairness_table(1, 2, 2)
        p = inst.profile
        for x in "ABC":
            assert fairness_ratio_fixed(inst.metric, p, x, p.m) == pytest.approx(
                instance_distortion(inst.metric, p, x)
            )

    def test_fairness_ratio_k_range(self):
        inst = fairness_table(1, 2, 2)
        for k in (0, 3):
            with pytest.raises(ValueError):
                fairness_ratio_fixed(inst.metric, inst.profile, "A", k)


class TestPairwiseLp:
    def test_same_candidate_short_circuits(self):
        out = pairwise_distortion_lp(parse_profile(THREE_CYCLE), "A", "A")
        assert out.status == "optimal" and out.value == 1.0 and out.witness is None

    def test_two_voter_split(self):
        p = parse_profile("A > B\nB > A")
        out = pairwise_distortion_lp(p, "A", "B")
        assert out.status == "optimal"
        assert out.value == pytest.approx(3.0, abs=1e-9)

    def test_unanimous_pair_is_unbounded(self):
        p = parse_profile("2: B > A")
        out = pairwise_distortion_lp(p, "A", "B")
        assert out.status == "unbounded"
        assert out.value is None and out.witness is None

    def test_three_cycle_values(self):
        p = parse_profile(THREE_CYCLE)
        assert pairwise_distortion_lp(p, "A", "B").value == pytest.approx(2.0, abs=1e-9)
        assert pairwise_distortion_lp(p, "C", "A").value == pytest.approx(2.0, abs=1e-9)
        assert pairwise_distortion_lp(p, "A", "C").value == pytest.approx(3.0, abs=1e-9)

    def test_cap_enforced(self):
        with pytest.raises(LpCapError):
            pairwise_distortion_lp(parse_profile(THREE_CYCLE), "A", "B", cap=5)

    def test_witness_certifies_the_value(self):
        p = parse_profile(THREE_CYCLE)
        out = pairwise_distortion_lp(p, "A", "C")
        w = out.witness
        assert w is not None
        assert w.labels == ("A", "B", "C", "v1", "v2", "v3")
        assert w.triangle_violation(1e-9) is None
        assert check_consistent(w, p, tol=1e-9)
        assert social_cost(w, "C") == pytest.approx(1.0, abs=1e-9)
        assert social_cost(w, "A") == pytest.approx(out.value, abs=1e-9)

    def test_witnesses_on_random_profiles(self):
        rng = random.Random(21)
        checked = 0
        while checked < 12:
            p = random_profile(rng, max_n=4, max_m=4, min_n=2)
            a, b = rng.sample(range(p.n), 2)
            out = pairwise_distortion_lp(p, a, b)
            if out.status != "optimal":
                continue
            w = out.witness
            assert check_consistent(w, p, tol=1e-9)
            assert social_cost(w, w.labels[b]) == pytest.approx(1.0, abs=1e-9)
            assert social_cost(w, w.labels[a]) == pytest.approx(out.value, abs=1e-9)
            checked += 1


class TestMaxDistortion:
    def test_single_candidate(self):
        assert max_distortion(parse_profile("A"), "A") == 1.0

    def test_three_cycle_symmetry(self):
        p = parse_profile(THREE_CYCLE)
        values = [max_distortion(p, x) for x in "ABC"]
        assert values == pytest.approx([3.0, 3.0, 3.0], abs=1e-9)

    def test_unbounded_propagates(self):
        p = parse_profile("2: B > A")
        assert max_distortion(p, "A") == math.inf


def solve(c, a_ub, b_ub):
    """``solve_lp`` with no equality rows."""
    return solve_lp(c, a_ub, b_ub, np.zeros((0, len(c))), np.zeros(0))


def highs_max(c, a_ub, b_ub):
    """HiGHS's status and maximum of c.x over x >= 0 with a_ub.x <= b_ub >= 0.

    Presolve calls some unbounded LPs infeasible, so it is off.  Without it
    HiGHS ends a few unbounded LPs in status 4 (model status unknown); a ray
    d >= 0 with a_ub.d <= 0, sum(d) <= 1 and c.d > 0 then decides them.
    """
    def highs(a, b):
        return scipy.optimize.linprog(
            -c, A_ub=a, b_ub=b, bounds=(0, None), method="highs", options={"presolve": False}
        )

    res = highs(a_ub, b_ub)
    if res.status == 4:
        ray = highs(np.vstack([a_ub, np.ones(len(c))]), np.append(np.zeros(len(a_ub)), 1.0))
        assert ray.status == 0 and -ray.fun > 1e-9, res.message
        return "unbounded", None
    status = {0: "optimal", 3: "unbounded"}[res.status]
    return status, -res.fun if status == "optimal" else None


class TestSolver:
    def test_bounded_maximum(self):
        result = solve(np.array([1.0, 0.0]), np.array([[1.0, 1.0]]), np.array([1.0]))
        assert result.status == "optimal"
        assert result.value == pytest.approx(1.0)

    def test_unbounded(self):
        result = solve(np.array([1.0]), np.zeros((0, 1)), np.zeros(0))
        assert result.status == "unbounded"

    def test_equality_rows_rejected(self):
        with pytest.raises(ValueError, match="equality"):
            solve_lp(np.array([1.0]), np.array([[1.0]]), np.array([1.0]),
                     np.array([[1.0]]), np.array([2.0]))

    def test_negative_rhs_rejected(self):
        # x0 >= 2 written as -x0 <= -2 needs phase 1, which the solver lacks.
        with pytest.raises(ValueError, match="b_ub"):
            solve(np.array([-1.0]), np.array([[-1.0]]), np.array([-2.0]))

    def test_dense_lps_agree_with_highs(self):
        # b_ub >= 0 with zeros among them, so some pivots are degenerate.
        rng = np.random.default_rng(15)
        statuses = set()
        for _ in range(300):
            nv, n_ub = rng.integers(1, 6), rng.integers(0, 6)
            c = rng.integers(-3, 4, nv).astype(float)
            a_ub = rng.integers(-3, 4, (n_ub, nv)).astype(float)
            b_ub = rng.integers(0, 6, n_ub).astype(float)
            sense = 1.0 if rng.integers(2) else -1.0  # -1: minimise c by maximising -c
            mine = solve(sense * c, a_ub, b_ub)
            status, value = highs_max(sense * c, a_ub, b_ub)
            assert mine.status == status
            statuses.add(status)
            if status == "optimal":
                assert mine.value == pytest.approx(value, rel=1e-9, abs=1e-9)
                assert (mine.x >= -1e-9).all()
                assert (a_ub @ mine.x <= b_ub + 1e-9).all()
        assert statuses == {"optimal", "unbounded"}


def opponent_lps(p, b):
    """a_ub and b_ub of every distortion LP against b, and each candidate's objective row."""
    _, ct, rows = _inequalities(p.n, tuple(order for order, _ in p.types))
    costs = np.zeros((p.n, rows.shape[1]))
    for c in range(p.n):
        costs[c, ct[c]] = [count for _, count in p.types]
    return np.vstack([rows, costs[b]]), np.append(np.zeros(len(rows)), 1.0), costs


class TestWarmStart:
    @staticmethod
    def check_chain(objectives, a_ub, b_ub):
        """Solve each objective from the previous result; compare a cold solve and HiGHS."""
        result, statuses = None, []
        for c in objectives:
            result = solve_lp(c, a_ub, b_ub, np.zeros((0, len(c))), np.zeros(0), start=result)
            cold = solve(c, a_ub, b_ub)
            status, value = highs_max(c, a_ub, b_ub)
            assert result.status == cold.status == status
            if status == "optimal":
                assert result.value == pytest.approx(cold.value, rel=1e-12, abs=1e-12)
                assert result.value == pytest.approx(value, rel=1e-12, abs=1e-12)
                assert (a_ub @ result.x <= b_ub + 1e-9).all()
            statuses.append(status)
        return statuses

    def test_unbounded_then_optimal(self):
        # Against B, C's LP is unbounded (every voter ranks B above C) and
        # leaves its basis for A's, which is optimal.
        p = parse_profile("A > B > C\n2: B > A > C\n")
        a_ub, b_ub, costs = opponent_lps(p, 1)
        assert self.check_chain([costs[2], costs[0], costs[2], costs[0]], a_ub, b_ub) == [
            "unbounded", "optimal", "unbounded", "optimal"]

    def test_every_objective_of_one_opponent(self):
        rng = random.Random(25)
        statuses = set()
        for _ in range(40):
            p = random_profile(rng, max_n=5, max_m=6, min_n=3)
            b = rng.randrange(p.n)
            a_ub, b_ub, costs = opponent_lps(p, b)
            rivals = [a for a in range(p.n) if a != b]
            rng.shuffle(rivals)
            statuses.update(self.check_chain(costs[rivals], a_ub, b_ub))
        assert statuses == {"optimal", "unbounded"}

    def test_dense_chains(self):
        # Random objectives over one random region, degenerate pivots included.
        rng = np.random.default_rng(25)
        statuses = set()
        for _ in range(60):
            nv, n_ub = rng.integers(1, 6), rng.integers(0, 6)
            a_ub = rng.integers(-3, 4, (n_ub, nv)).astype(float)
            b_ub = rng.integers(0, 6, n_ub).astype(float)
            statuses.update(self.check_chain(rng.integers(-3, 4, (4, nv)).astype(float), a_ub, b_ub))
        assert statuses == {"optimal", "unbounded"}

    def test_start_of_another_shape_rejected(self):
        start = solve(np.array([1.0, 0.0]), np.array([[1.0, 1.0]]), np.array([1.0]))
        with pytest.raises(ValueError, match="start"):
            solve_lp(np.array([1.0]), np.array([[1.0]]), np.array([1.0]),
                     np.zeros((0, 1)), np.zeros(0), start=start)

    def test_start_is_left_unchanged(self):
        a_ub, b_ub = np.array([[1.0, 1.0], [1.0, -1.0]]), np.array([2.0, 1.0])
        first = solve(np.array([1.0, 0.0]), a_ub, b_ub)
        tableau, basis = first.tableau.copy(), first.basis.copy()
        second = solve_lp(np.array([0.0, 1.0]), a_ub, b_ub, np.zeros((0, 2)), np.zeros(0), start=first)
        assert second.status == "optimal" and second.value == pytest.approx(2.0)
        assert np.array_equal(first.tableau, tableau) and np.array_equal(first.basis, basis)

    def test_lps_against_matches_pairwise(self):
        p = parse_profile(THREE_CYCLE)
        outcomes = lps_against(p, 0, [2, 1])
        assert list(outcomes) == [2, 1]
        for a, out in outcomes.items():
            assert out.value == pytest.approx(pairwise_distortion_lp(p, a, 0).value, rel=1e-12)
        assert lps_against(p, 0, []) == {}


@settings(max_examples=150, deadline=None)
@given(clone_heavy_cases())
def test_normalisation_row_matches_equality_form(case):
    """c_B.x <= 1 in place of c_B.x = 1 (Charnes-Cooper) keeps the LP's
    status and value and needs no artificial variable."""
    p, a, b = case
    calls = []

    def recording(*args, **kwargs):
        calls.append(args)
        return solve_lp(*args, **kwargs)

    with mock.patch.object(metriclp, "solve_lp", recording):
        mine = pairwise_distortion_lp(p, a, b)
    assert len(calls) == 1
    for _, a_ub, b_ub, a_eq, b_eq in calls:
        assert a_eq.shape[0] == 0 and b_eq.size == 0
        assert (b_ub >= 0).all()
        # The last row is the normalisation c_B.x <= 1; the rest read <= 0.
        _, ct, rows = _inequalities(p.n, tuple(order for order, _ in p.types))
        c_b = np.zeros(rows.shape[1])
        c_b[ct[b]] = [count for _, count in p.types]
        assert np.array_equal(a_ub, np.vstack([rows, c_b]))
        assert b_ub[-1] == 1.0 and not b_ub[:-1].any()

    status, value = reference_lp(p, a, b)
    assert mine.status == status
    if status == "optimal":
        assert mine.value == pytest.approx(value, rel=1e-9)


def reference_lp(p, a, b):
    """Rebuild the distortion LP from scratch and hand it to scipy."""
    n, m = p.n, p.m
    points = n + m
    pairs = [(i, j) for i in range(points) for j in range(i + 1, points)]
    col = {pair: k for k, pair in enumerate(pairs)}

    def var(i, j):
        return col[(i, j)] if i < j else col[(j, i)]

    c = np.zeros(len(pairs))
    for v in range(m):
        c[var(a, n + v)] = -1.0  # scipy minimizes
    a_eq = np.zeros((1, len(pairs)))
    for v in range(m):
        a_eq[0, var(b, n + v)] = 1.0
    rows = []
    for v, order in enumerate(p.orderings):
        for x, y in zip(order, order[1:]):
            row = np.zeros(len(pairs))
            row[var(x, n + v)] += 1.0
            row[var(y, n + v)] -= 1.0
            rows.append(row)
    for (i, j) in pairs:
        for k in range(points):
            if k in (i, j):
                continue
            row = np.zeros(len(pairs))
            row[var(i, j)] += 1.0
            row[var(i, k)] -= 1.0
            row[var(k, j)] -= 1.0
            rows.append(row)
    res = scipy.optimize.linprog(
        c,
        A_ub=np.array(rows),
        b_ub=np.zeros(len(rows)),
        A_eq=a_eq,
        b_eq=np.ones(1),
        bounds=(0, None),
        method="highs",
        options={"presolve": False},
    )
    if res.status == 3:
        return "unbounded", None
    assert res.status == 0, res.message
    return "optimal", -res.fun


def test_lp_against_scipy_oracle():
    rng = random.Random(404)
    agreements = 0
    for _ in range(30):
        p = random_profile(rng, max_n=3, max_m=3, min_n=2)
        a, b = rng.sample(range(p.n), 2)
        mine = pairwise_distortion_lp(p, a, b)
        status, value = reference_lp(p, a, b)
        assert mine.status == status
        if status == "optimal":
            assert mine.value == pytest.approx(value, abs=1e-6)
            agreements += 1
    assert agreements > 0


@settings(max_examples=150, deadline=None)
@given(clone_heavy_cases())
def test_lp_agrees_with_voter_level_highs(case):
    p, a, b = case
    mine = pairwise_distortion_lp(p, a, b)
    status, value = reference_lp(p, a, b)
    assert mine.status == status
    if status == "optimal":
        assert mine.value == pytest.approx(value, rel=1e-9)
        w = mine.witness
        assert check_consistent(w, p, tol=1e-9)
        assert w.triangle_violation(1e-9) is None
        assert social_cost(w, b) == pytest.approx(1.0, rel=1e-9)
        assert social_cost(w, a) == pytest.approx(mine.value, rel=1e-9)


def test_lp_costs_per_distinct_ballot():
    p = parse_profile("1000000: A > B\nB > A")
    assert pairwise_distortion_lp(p, "A", "B").value == pytest.approx(1 + 2 / 10**6, rel=1e-9)
    assert pairwise_distortion_lp(p, "B", "A").value == pytest.approx(2 * 10**6 + 1, rel=1e-9)
    assert p.candidates[optimal_lp_winner(p).winner] == "A"
    assert "orderings" not in vars(p)


class TestCostShiftInequalities:
    """Per-voter bounds on U = d(A,v) - 3 d(B,v) under weak consistency.

    Writing r(x) for voter v's rank order, the five bounds are:
      1. Y > B > A > X       =>  U <= d(B,X) - d(B,Y)
      2. Y > B and B > A     =>  U <= d(A,B) - d(B,Y)
      3. B > A > X           =>  U <= d(B,X)
      4. A > B               =>  U <= -d(A,B)
      5. always                  U <= d(A,B)
    """

    @staticmethod
    def u_value(metric, p, v, a, b):
        d = metric.dist
        return d[a, p.n + v] - 3.0 * d[b, p.n + v]

    def test_bounds_on_random_euclidean_instances(self):
        rng = random.Random(58)
        tol = 1e-9
        for _ in range(25):
            n, m = rng.randint(3, 5), rng.randint(1, 4)
            metric, p = euclidean_instance(rng, n=n, m=m)
            d = metric.dist
            for v in range(m):
                rank = {c: p.rank(v, c) for c in range(n)}
                for a in range(n):
                    for b in range(n):
                        if a == b:
                            continue
                        u = self.u_value(metric, p, v, a, b)
                        assert u <= d[a, b] + tol                      # (5)
                        if rank[a] < rank[b]:
                            assert u <= -d[a, b] + tol                 # (4)
                        for x in range(n):
                            if x in (a, b) or rank[x] <= rank[a]:
                                continue
                            if rank[b] < rank[a]:
                                assert u <= d[b, x] + tol              # (3)
                            for y in range(n):
                                if y in (a, b, x) or rank[y] >= rank[b]:
                                    continue
                                if rank[b] < rank[a]:
                                    assert u <= d[b, x] - d[b, y] + tol  # (1)
                        if rank[b] < rank[a]:
                            for y in range(n):
                                if y in (a, b) or rank[y] >= rank[b]:
                                    continue
                                assert u <= d[a, b] - d[b, y] + tol    # (2)
