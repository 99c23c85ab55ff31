"""The bundled worked instances and their stated properties."""

import numpy as np
import pytest

from mdx.instances import (
    INSTANCE_BUILDERS,
    NamedInstance,
    counterexample_relax1,
    counterexample_relax2,
    fairness_table,
    lower_left,
    lower_right,
    rotational_profile,
    three_cycle,
)
from mdx.matching import matching_uncovered_set, rank_sum_test
from mdx.metriclp import (
    Metric,
    check_consistent,
    fairness_ratio_fixed,
    instance_distortion,
    social_cost,
)
from mdx.profile import mask_names, parse_profile, serialize_profile
from mdx.tournament import build_tournament, find_cyclic_symmetry


class TestThreeCycle:
    def test_exact_profile(self):
        inst = three_cycle()
        assert inst.name == "three-cycle"
        assert serialize_profile(inst.profile) == "A > B > C\nB > C > A\nC > A > B\n"
        assert inst.metric is None and inst.notes

    def test_everyone_in_the_matching_set(self):
        p = three_cycle().profile
        assert mask_names(p, matching_uncovered_set(p)) == ("A", "B", "C")


class TestRotational:
    def test_base_identity_gives_the_three_cycle(self):
        inst = rotational_profile(("A", "B", "C"), 3)
        assert inst.profile.orderings == three_cycle().profile.orderings
        assert inst.name == "rotational-3"

    def test_ints_and_names_interchangeable(self):
        by_name = rotational_profile(("B", "A", "C"), 3)
        by_index = rotational_profile((1, 0, 2), 3)
        assert by_name.profile == by_index.profile

    def test_symmetry_witness_exists(self):
        for n in (3, 4, 5):
            g = build_tournament(rotational_profile(range(n), n).profile)
            assert find_cyclic_symmetry(g).found

    def test_members_all_of_small_sets(self):
        for n in (3, 4, 5):
            p = rotational_profile(range(n), n).profile
            assert matching_uncovered_set(p) == (1 << n) - 1

    def test_bad_bases_rejected(self):
        with pytest.raises(ValueError):
            rotational_profile(("A", "A", "B"), 3)
        with pytest.raises(ValueError):
            rotational_profile((0, 1), 3)
        with pytest.raises(ValueError, match="unknown candidate 'Z'"):
            rotational_profile(("A", "B", "Z"), 3)


class TestLowerLeft:
    def test_reference_parameters(self):
        inst = lower_left(382, 1000, 1000)
        p = inst.profile
        assert sum(1 for o in p.orderings if o == (0, 1)) == 382
        value = instance_distortion(inst.metric, p, "A")
        assert 4.22 <= value <= 4.24
        assert value == pytest.approx(1618 / 382)

    def test_half_gives_three(self):
        inst = lower_left(1, 2, 2)
        assert instance_distortion(inst.metric, inst.profile, "A") == 3.0

    def test_everyone_at_the_midpoint_gives_one(self):
        inst = lower_left(1, 1, 1)
        assert instance_distortion(inst.metric, inst.profile, "A") == 1.0

    def test_rounding_is_half_up(self):
        inst = lower_left(1, 3, 10)  # 10/3 = 3.33 -> 3 midpoint voters
        assert sum(1 for o in inst.profile.orderings if o == (0, 1)) == 3

    def test_argument_validation(self):
        for args in ((0, 2, 10), (3, 2, 10), (1, 2, 0), (-1, 2, 5)):
            with pytest.raises(ValueError):
                lower_left(*args)


class TestLowerRight:
    def test_half_gives_five(self):
        inst = lower_right(1, 2, 2)
        assert instance_distortion(inst.metric, inst.profile, "A") == 5.0

    def test_reference_parameters(self):
        inst = lower_right(618, 1000, 1000)
        value = instance_distortion(inst.metric, inst.profile, "A")
        assert 4.22 <= value <= 4.25
        assert value == pytest.approx(2618 / 618)

    def test_lambda_one_gives_three(self):
        inst = lower_right(1, 1, 1)
        assert instance_distortion(inst.metric, inst.profile, "A") == 3.0

    def test_argument_validation(self):
        for args in ((0, 2, 10), (3, 2, 10), (1, 2, 0)):
            with pytest.raises(ValueError):
                lower_right(*args)


class TestFairnessTable:
    def test_metric_shape(self):
        inst = fairness_table(1, 2, 2)
        d = inst.metric.dist
        assert np.array_equal(d, d.T)
        assert d[3, 4] == 2.0  # the two voter types sit 2 apart
        assert check_consistent(inst.metric, inst.profile)

    def test_same_type_voters_are_colocated(self):
        inst = fairness_table(1, 2, 4)
        d = inst.metric.dist
        assert d[3, 4] == 0.0 and d[5, 6] == 0.0  # v1/v2 and v3/v4 pairs
        assert d[3, 5] == 2.0

    def test_costs_and_distortion(self):
        inst = fairness_table(1, 2, 2)
        assert [social_cost(inst.metric, x) for x in "ABC"] == [8.0, 2.0, 4.0]
        assert instance_distortion(inst.metric, inst.profile, "A") == 4.0

    def test_worst_off_voter_ratios(self):
        inst = fairness_table(1, 2, 2)
        assert fairness_ratio_fixed(inst.metric, inst.profile, "A", 1) == 5.0
        assert fairness_ratio_fixed(inst.metric, inst.profile, "C", 1) == 3.0
        assert fairness_ratio_fixed(inst.metric, inst.profile, "B", 1) == 1.0

    def test_argument_validation(self):
        for args in ((0, 2, 2), (2, 2, 2), (3, 2, 2), (1, 2, 0)):
            with pytest.raises(ValueError):
                fairness_table(*args)


class TestCounterexamples:
    def test_hundred_voter_shape(self):
        inst = counterexample_relax2()
        assert inst.name == "counterexample-relax2"
        assert inst.profile.m == 100
        assert inst.profile.candidates == ("A", "B", "C", "D")
        assert inst.metric is None

    def test_five_voter_shape(self):
        inst = counterexample_relax1()
        assert inst.profile.m == 5
        assert inst.profile.candidates == ("A", "B", "C", "D")
        assert rank_sum_test(inst.profile, "D", "A") == 3
        assert mask_names(inst.profile, matching_uncovered_set(inst.profile)) == ("D",)


class TestNamedInstance:
    def test_metric_must_fit_the_profile(self):
        pts = np.array([0.0, 2.0, 2.0])
        dist = np.abs(pts[:, None] - pts[None, :])
        metric = Metric(("A", "B", "v1"), 2, dist)
        with pytest.raises(ValueError, match="contradicts"):
            NamedInstance("bad", parse_profile("A > B"), metric, "voter sits on B")

    def test_builder_registry(self):
        assert set(INSTANCE_BUILDERS) == {
            "three-cycle",
            "rotational",
            "lower-left",
            "lower-right",
            "fairness-table",
            "counterexample-relax1",
            "counterexample-relax2",
        }
        assert INSTANCE_BUILDERS["three-cycle"] is three_cycle
