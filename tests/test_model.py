"""Instance model, classification, positive-admitting, I/O, random generation."""

import itertools
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from welfarist.constructions import chain_instance, uniform_goods_instance
from welfarist.model import (
    Allocation,
    InfeasibleConstraintError,
    Instance,
    ParseError,
    classify,
    is_positive_admitting,
    parse_instance,
    parse_allocation,
    random_instance,
    serialize_allocation,
    serialize_instance,
)


class TestParsing:
    def test_basic_document(self):
        inst = parse_instance('{"agents":2,"utilities":[["1","1/2"],["0","3"]]}')
        assert (inst.n, inst.m) == (2, 2)
        assert inst.utilities[0][1] == Fraction(1, 2)

    def test_rejects_single_agent(self):
        with pytest.raises(ParseError):
            parse_instance('{"agents":1,"utilities":[["1"]]}')

    def test_rejects_negative_utility(self):
        with pytest.raises(ParseError):
            parse_instance('{"agents":2,"utilities":[["-1","0"],["0","1"]]}')

    @pytest.mark.parametrize(
        "doc",
        [
            "not json",
            '{"utilities":[["1"],["1"]]}',
            '{"agents":2,"utilities":[["1"],["1","2"]]}',
            '{"agents":2,"utilities":[["1.5","1"],["1","1"]]}',
            '{"agents":2,"utilities":[["1/0","1"],["1","1"]]}',
            '{"agents":2,"goods":["a"],"utilities":[["1","2"],["1","2"]]}',
        ],
    )
    def test_rejects_malformed(self, doc):
        with pytest.raises(ParseError):
            parse_instance(doc)

    def test_zero_goods(self):
        inst = parse_instance('{"agents":2,"utilities":[[],[]]}')
        assert inst.m == 0

    def test_allocation_partition_checks(self):
        inst = parse_instance('{"agents":2,"utilities":[["1","1"],["1","1"]]}')
        alloc = parse_allocation('{"bundles":[[0],[1]]}', inst)
        assert alloc.assignment == (0, 1)
        with pytest.raises(ParseError):
            parse_allocation('{"bundles":[[0],[0,1]]}', inst)
        with pytest.raises(ParseError):
            parse_allocation('{"bundles":[[0],[]]}', inst)  # good 1 missing


utility_lists = st.lists(
    st.lists(
        st.fractions(min_value=0, max_value=9, max_denominator=12),
        min_size=0,
        max_size=5,
    ),
    min_size=2,
    max_size=4,
)


@given(rows=utility_lists)
@settings(max_examples=120)
def test_parse_serialize_round_trip(rows):
    width = min(len(r) for r in rows)
    inst = Instance.from_rows([r[:width] for r in rows])
    again = parse_instance(serialize_instance(inst))
    assert again == inst
    # canonical text is a fixed point
    assert serialize_instance(again) == serialize_instance(inst)


def test_allocation_serialization_round_trip():
    inst = Instance.from_rows([[1, 2, 3], [3, 2, 1]])
    alloc = Allocation((0, 1, 0))
    again = parse_allocation(serialize_allocation(alloc, inst.n), inst)
    assert again == alloc


def test_labeled_instance_round_trip():
    inst = Instance(2, 2, ((Fraction(1), Fraction(2)), (Fraction(2), Fraction(1))), ("left", "right"))
    text = serialize_instance(inst)
    assert '"goods":["left","right"]' in text
    assert parse_instance(text) == inst


class TestBundleUtility:
    def test_chain_values(self):
        inst = chain_instance(4)
        assert inst.bundle_utility(0, [0]) == 4  # the high good
        assert inst.bundle_utility(1, [0, 1]) == 4  # 3 + 1
        assert inst.bundle_utility(2, []) == 0

    def test_out_of_range(self):
        inst = chain_instance(4)
        with pytest.raises(IndexError):
            inst.bundle_utility(4, [0])
        with pytest.raises(IndexError):
            inst.bundle_utility(0, [9])


class TestUtilityVectors:
    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("m", [0, 1, 5])
    @pytest.mark.parametrize("kind", ["integer", "unrestricted"])
    def test_walk_matches_product_rebuild(self, n, m, kind):
        # over every assignment, sums of the scaled rows are d times the exact
        # utilities, d the least common denominator, and so are utility_vector's
        inst = random_instance(n, m, kind, 5, seed=10 * n + m)
        d = inst.scale
        assert d == lcm(*(u.denominator for row in inst.utilities for u in row))
        assert all(type(x) is int for row in inst.scaled for x in row)
        for assignment in itertools.product(range(n), repeat=m):
            utilities = [Fraction(0)] * n
            scaled = [0] * n
            for g, agent in enumerate(assignment):
                utilities[agent] += inst.utilities[agent][g]
                scaled[agent] += inst.scaled[agent][g]
            assert scaled == [d * u for u in utilities]
            assert inst.utility_vector(assignment) == utilities


class TestClassify:
    def test_chain_instance_flags(self):
        profile = classify(chain_instance(4))
        assert profile.integer_valued
        assert not profile.two_value
        assert not profile.identical_good
        assert not profile.binary
        # every row sums to n, so the construction is normalized
        assert profile.normalized
        assert profile.positive_admitting

    def test_all_ones(self):
        profile = classify(Instance.from_rows([[1, 1, 1], [1, 1, 1]]))
        assert profile.identical_good and profile.binary
        assert profile.two_value and profile.normalized and profile.integer_valued

    def test_uniform_goods_flags(self):
        profile = classify(uniform_goods_instance(3, 1, 2, 5))
        assert profile.identical_good and profile.two_value
        assert not profile.normalized
        assert profile.integer_valued

    def test_identical_good_needs_positive_constant(self):
        profile = classify(Instance.from_rows([[0, 0], [1, 1]]))
        assert not profile.identical_good

    def test_two_value_all_equal(self):
        # a constant matrix uses at most two distinct values
        assert classify(Instance.from_rows([[2, 2], [2, 2]])).two_value

    def test_agreement_with_direct_predicates(self):
        import random

        for seed in range(60):
            rng = random.Random(seed)
            inst = random_instance(
                rng.randint(2, 3), rng.randint(0, 5), "unrestricted", 4, seed=seed
            )
            profile = classify(inst)
            flat = [u for row in inst.utilities for u in row]
            assert profile.integer_valued == all(u.denominator == 1 for u in flat)
            assert profile.binary == all(u in (0, 1) for u in flat)
            assert profile.two_value == (len(set(flat)) <= 2)
            assert profile.normalized == (
                len({sum(row, Fraction(0)) for row in inst.utilities}) == 1
            )
            assert profile.identical_good == (
                inst.m > 0 and all(len(set(row)) == 1 and row[0] > 0 for row in inst.utilities)
            )


class TestPositiveAdmitting:
    def test_chain_is_positive_admitting(self):
        ok, witness = is_positive_admitting(chain_instance(4))
        assert ok
        inst = chain_instance(4)
        assert all(
            inst.bundle_utility(i, witness.bundle_of(i)) > 0 for i in range(inst.n)
        )

    def test_agent_valuing_nothing(self):
        assert not is_positive_admitting(Instance.from_rows([[1, 1], [0, 0]]))[0]

    def test_single_desired_good_two_agents(self):
        assert not is_positive_admitting(Instance.from_rows([[1, 0], [1, 0]]))[0]

    def test_brute_force_agreement(self):
        import random

        def oracle(inst):
            for assignment in itertools.product(range(inst.n), repeat=inst.m):
                utilities = [Fraction(0)] * inst.n
                for g, agent in enumerate(assignment):
                    utilities[agent] += inst.utilities[agent][g]
                if all(u > 0 for u in utilities):
                    return True
            return False

        for seed in range(80):
            rng = random.Random(seed)
            inst = random_instance(
                rng.randint(2, 3), rng.randint(0, 6), "integer", 2, seed=seed
            )
            assert is_positive_admitting(inst)[0] == oracle(inst)


class TestRandomInstance:
    def test_deterministic(self):
        a = random_instance(3, 5, "integer+normalized", 5, seed=7)
        b = random_instance(3, 5, "integer+normalized", 5, seed=7)
        assert a == b

    def test_binary_constraint(self):
        inst = random_instance(2, 4, "binary", 1, seed=7)
        assert classify(inst).binary

    def test_identical_good_constraint(self):
        inst = random_instance(3, 6, "identical_good", 5, seed=1)
        assert classify(inst).identical_good

    def test_identical_good_two_agents_is_two_value(self):
        for seed in range(25):
            inst = random_instance(2, 4, "identical_good", 5, seed=seed)
            profile = classify(inst)
            assert profile.identical_good and profile.two_value

    def test_normalized_variants(self):
        assert classify(random_instance(3, 4, "normalized", 5, seed=3)).normalized
        profile = classify(random_instance(3, 4, "integer+normalized", 5, seed=3))
        assert profile.normalized and profile.integer_valued

    def test_two_value_constraint(self):
        profile = classify(random_instance(2, 5, "integer+two_value", 5, seed=9))
        assert profile.two_value and profile.integer_valued

    def test_positive_admitting_filter(self):
        inst = random_instance(
            3, 4, "integer", 3, seed=11, require_positive_admitting=True
        )
        assert is_positive_admitting(inst)[0]

    def test_infeasible_combinations(self):
        with pytest.raises(InfeasibleConstraintError):
            random_instance(2, 3, "binary+normalized", 1, seed=0)
        with pytest.raises(InfeasibleConstraintError):
            random_instance(2, 3, "nonsense", 1, seed=0)
        with pytest.raises(InfeasibleConstraintError):
            random_instance(1, 3, "integer", 1, seed=0)
