"""Structured instance generators: shapes, class flags, and intended behavior."""

from fractions import Fraction

import pytest

from welfarist.constructions import (
    binary_overlap_instance,
    chain_instance,
    chain_positive_allocation,
    chain_shifted_allocation,
    doubling_pairs_instance,
    even_split_instance,
    flat_table_function,
    flat_tie_gadget,
    nine_goods_instance,
    normalized_three_instance,
    offset_good_instance,
    two_value_mix_instance,
    uniform_goods_instance,
)
from welfarist.fairness import is_ef1
from welfarist.functions import parse_welfare
from welfarist.model import Allocation, classify, is_positive_admitting
from welfarist.solver import enumerate_maximizers, welfare_of
from welfarist.values import Relation, compare


class TestChain:
    def test_totals(self):
        inst = chain_instance(4)
        a_total = sum(
            inst.bundle_utility(i, chain_positive_allocation(4).bundle_of(i))
            for i in range(4)
        )
        b_total = sum(
            inst.bundle_utility(i, chain_shifted_allocation(4).bundle_of(i))
            for i in range(4)
        )
        assert a_total == 7  # 2n - 1
        assert b_total == 11  # n^2 - 2n + 3

    def test_flags_for_larger_n(self):
        profile = classify(chain_instance(5))
        assert profile.integer_valued and profile.positive_admitting

    def test_selection_story_across_sizes(self):
        # the log rule picks the diagonal; the harmonic rule picks the shift
        for n in (4, 5, 6):
            inst = chain_instance(n)
            log_max = enumerate_maximizers(inst, parse_welfare("log"))
            assert log_max.allocations == (chain_positive_allocation(n),)
            mhw_max = enumerate_maximizers(inst, parse_welfare("harmonic:0"))
            assert chain_shifted_allocation(n) in mhw_max

    def test_minimum_size(self):
        with pytest.raises(ValueError):
            chain_instance(3)


class TestUniformGoods:
    def test_shape(self):
        inst = uniform_goods_instance(2, 0, 6, 1)
        assert inst.m == 2
        profile = classify(inst)
        assert profile.identical_good and profile.two_value

    def test_constant_matrix(self):
        profile = classify(uniform_goods_instance(3, 1, 2, 2))
        assert profile.identical_good and profile.two_value

    def test_only_balanced_allocations_are_ef1(self):
        inst = uniform_goods_instance(2, 1, 3, 5)
        for assignment in __import__("itertools").product(range(2), repeat=4):
            alloc = Allocation(assignment)
            sizes = tuple(sorted(len(alloc.bundle_of(i)) for i in range(2)))
            assert is_ef1(inst, alloc).holds == (sizes == (2, 2))


class TestNormalizedThree:
    def test_row_sums_equal(self):
        inst = normalized_three_instance(3, 1, 1, 1, Fraction(1, 2))
        profile = classify(inst)
        assert profile.normalized and profile.positive_admitting

    def test_good_count(self):
        assert normalized_three_instance(3, 2, 2, 1, Fraction(1, 2)).m == 6

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            normalized_three_instance(2, 1, 1, 1, Fraction(1, 2))
        with pytest.raises(ValueError):
            normalized_three_instance(3, 1, 1, 1, 2)


class TestEvenSplit:
    def test_piece_value(self):
        inst = even_split_instance(1, Fraction(1, 2))
        assert inst.m == 4
        assert inst.utilities[0][0] == Fraction(1, 2)

    def test_flags(self):
        profile = classify(even_split_instance(1, Fraction(1, 3)))
        assert profile.identical_good and profile.normalized

    def test_balanced_is_only_ef1(self):
        inst = even_split_instance(1, Fraction(1, 3))
        for assignment in __import__("itertools").product(range(2), repeat=6):
            alloc = Allocation(assignment)
            balanced = len(alloc.bundle_of(0)) == 3
            assert is_ef1(inst, alloc).holds == balanced


class TestBinaryOverlap:
    def test_two_agent_case(self):
        inst = binary_overlap_instance(2, 1)
        assert inst.m == 4
        assert all(inst.utilities[i][g] == 1 for i in range(2) for g in range(4))

    def test_flags(self):
        profile = classify(binary_overlap_instance(4, 0))
        assert profile.binary and profile.positive_admitting

    def test_good_count(self):
        assert binary_overlap_instance(3, 2).m == 7


class TestTwoValueMix:
    def test_good_count(self):
        assert two_value_mix_instance(2, 2, 1, 0, 3, 2).m == 5

    def test_flags(self):
        profile = classify(two_value_mix_instance(2, 2, 1, 0, 3, 2))
        assert profile.integer_valued and profile.two_value

    def test_guard(self):
        with pytest.raises(ValueError):
            two_value_mix_instance(2, 1, 2, 1, 3, 2)  # (k+1)b = 4 <= lb+ra = 7


class TestOffsetGood:
    def test_degenerate_first_good(self):
        inst = offset_good_instance(2, 1, 1, 1)
        assert inst.m == 3
        assert inst.utilities[0][0] == 0

    def test_shape(self):
        inst = offset_good_instance(3, 2, 4, 3)
        assert inst.m == 7
        assert classify(inst).integer_valued

    def test_positive_admitting(self):
        for params in [(2, 1, 1, 1), (3, 2, 4, 3), (2, 1, 1, 7)]:
            assert is_positive_admitting(offset_good_instance(*params))[0]


class TestFlatTie:
    def test_recipe_values(self):
        inst, balanced, lopsided = flat_tie_gadget(2, 1, 2)
        assert inst.utilities[0][0] == Fraction(1, 4)  # d = 4
        assert inst.m == 12  # c = 6 goods per agent

    def test_tie_and_fairness_split(self):
        fn = flat_table_function(1, 2)
        inst, balanced, lopsided = flat_tie_gadget(2, 1, 2)
        assert compare(
            welfare_of(inst, fn, balanced), welfare_of(inst, fn, lopsided)
        ).relation is Relation.EQUAL
        assert is_ef1(inst, balanced).holds
        assert not is_ef1(inst, lopsided).holds

    def test_three_agents(self):
        inst, balanced, lopsided = flat_tie_gadget(3, 1, 2)
        assert inst.m == 18
        assert is_ef1(inst, balanced).holds
        assert not is_ef1(inst, lopsided).holds


class TestNormalizedTwoAgent:
    def test_nine_goods_row_sums(self):
        inst = nine_goods_instance(1)
        assert inst.m == 9
        assert sum(inst.utilities[0], Fraction(0)) == 25
        assert classify(inst).normalized

    def test_doubling_pairs_shape(self):
        inst = doubling_pairs_instance(2)
        assert inst.m == 5
        assert sum(inst.utilities[1], Fraction(0)) == 9
        assert doubling_pairs_instance(20).m == 41
        assert classify(inst).normalized

    def test_validation(self):
        with pytest.raises(ValueError):
            nine_goods_instance(0)
        with pytest.raises(ValueError):
            doubling_pairs_instance(0)

    def test_nine_goods_separates_shifted_rules_at_small_scale(self):
        # the log rule is scale-invariant and keeps every maximizer EF1 here;
        # shifted-log and harmonic rules lose the guarantee once the scale shrinks
        log_sets = []
        for z in (Fraction(1), Fraction(1, 10), Fraction(1, 100)):
            inst = nine_goods_instance(z)
            maxima = enumerate_maximizers(inst, parse_welfare("log"))
            log_sets.append(tuple(a.assignment for a in maxima.allocations))
            assert all(is_ef1(inst, a).holds for a in maxima.allocations)
        assert log_sets[0] == log_sets[1] == log_sets[2]
        for spec in ("modlog:1", "harmonic:0"):
            inst = nine_goods_instance(Fraction(1, 10))
            maxima = enumerate_maximizers(inst, parse_welfare(spec))
            assert any(not is_ef1(inst, a).holds for a in maxima.allocations)
