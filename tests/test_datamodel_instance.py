"""Tests for database instances, blocks and repairs."""

import pickle
from collections import defaultdict
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datamodel.facts import Fact
from repro.datamodel.instance import DatabaseInstance
from repro.datamodel.signature import RelationSignature, Schema
from repro.exceptions import SchemaError
from tests.conftest import flat_index_pickle


@pytest.fixture
def simple_schema():
    return Schema(
        [
            RelationSignature("R", 2, 1),
            RelationSignature("S", 2, 2),
        ]
    )


class TestConstruction:
    def test_from_rows(self, simple_schema):
        instance = DatabaseInstance.from_rows(
            simple_schema, {"R": [("a", 1), ("a", 2)], "S": [("x", "y")]}
        )
        assert len(instance) == 3

    def test_add_row_and_contains(self, simple_schema):
        instance = DatabaseInstance(simple_schema)
        instance.add_row("R", "a", 1)
        assert Fact("R", ("a", 1)) in instance

    def test_duplicate_facts_collapse(self, simple_schema):
        instance = DatabaseInstance(simple_schema)
        instance.add_row("R", "a", 1)
        instance.add_row("R", "a", 1)
        assert len(instance) == 1

    def test_arity_checked(self, simple_schema):
        instance = DatabaseInstance(simple_schema)
        with pytest.raises(SchemaError):
            instance.add_row("R", "a")

    def test_unknown_relation_rejected(self, simple_schema):
        instance = DatabaseInstance(simple_schema)
        with pytest.raises(SchemaError):
            instance.add_row("T", "a")


class TestBlocksAndConsistency:
    def test_blocks_group_key_equal_facts(self, simple_schema):
        instance = DatabaseInstance.from_rows(
            simple_schema, {"R": [("a", 1), ("a", 2), ("b", 1)]}
        )
        blocks = instance.blocks("R")
        sizes = sorted(len(b) for b in blocks)
        assert sizes == [1, 2]

    def test_block_of(self, simple_schema):
        instance = DatabaseInstance.from_rows(simple_schema, {"R": [("a", 1), ("a", 2)]})
        block = instance.block_of(Fact("R", ("a", 1)))
        assert block == frozenset({Fact("R", ("a", 1)), Fact("R", ("a", 2))})

    def test_full_key_relation_never_inconsistent(self, simple_schema):
        instance = DatabaseInstance.from_rows(
            simple_schema, {"S": [("x", "y"), ("x", "z")]}
        )
        assert instance.is_consistent("S")

    def test_inconsistent_blocks(self, simple_schema):
        instance = DatabaseInstance.from_rows(
            simple_schema, {"R": [("a", 1), ("a", 2), ("b", 1)]}
        )
        assert len(instance.inconsistent_blocks()) == 1
        assert not instance.is_consistent()

    def test_consistent_instance(self, simple_schema):
        instance = DatabaseInstance.from_rows(simple_schema, {"R": [("a", 1), ("b", 2)]})
        assert instance.is_consistent()
        assert instance.inconsistency_ratio() == 0.0

    def test_inconsistency_ratio(self, simple_schema):
        instance = DatabaseInstance.from_rows(
            simple_schema, {"R": [("a", 1), ("a", 2), ("b", 1)]}
        )
        assert instance.inconsistency_ratio() == pytest.approx(0.5)

    def test_inconsistency_ratio_empty_instance(self, simple_schema):
        assert DatabaseInstance(simple_schema).inconsistency_ratio() == 0.0


class TestRepairs:
    def test_repair_count_is_product_of_block_sizes(self, stock_instance):
        # Fig. 1: three inconsistent blocks of size 2 ⇒ 8 repairs.
        assert stock_instance.repair_count() == 8

    def test_enumeration_matches_count(self, stock_instance):
        assert len(list(stock_instance.repairs())) == 8

    def test_every_repair_is_consistent(self, stock_instance):
        assert all(repair.is_consistent() for repair in stock_instance.repairs())

    def test_every_repair_is_maximal(self, stock_instance):
        # Adding any removed fact to a repair would break consistency.
        for repair in stock_instance.repairs():
            removed = stock_instance.facts - repair.facts
            for fact in removed:
                signature = stock_instance.schema.relation(fact.relation)
                assert any(
                    fact.is_key_equal(kept, signature.key_size) for kept in repair.facts
                )

    def test_repairs_pick_one_fact_per_block(self, stock_instance):
        for repair in stock_instance.repairs():
            for block in stock_instance.blocks():
                assert len(block & repair.facts) == 1

    def test_consistent_instance_has_single_repair(self, simple_schema):
        instance = DatabaseInstance.from_rows(simple_schema, {"R": [("a", 1), ("b", 2)]})
        repairs = list(instance.repairs())
        assert len(repairs) == 1
        assert repairs[0] == instance

    def test_empty_instance_has_one_empty_repair(self, simple_schema):
        repairs = list(DatabaseInstance(simple_schema).repairs())
        assert len(repairs) == 1
        assert len(repairs[0]) == 0

    def test_arbitrary_repair_is_a_repair(self, stock_instance):
        repair = stock_instance.arbitrary_repair()
        assert repair.is_consistent()
        assert repair.facts <= stock_instance.facts
        assert len(repair.blocks()) == len(stock_instance.blocks())

    def test_falsifying_repair_exists(self, simple_schema):
        instance = DatabaseInstance.from_rows(simple_schema, {"R": [("a", 1), ("a", 2)]})
        assert instance.falsifying_repair_exists(
            lambda repair: Fact("R", ("a", 1)) in repair
        )
        assert not instance.falsifying_repair_exists(lambda repair: len(repair) == 1)


class TestTransformations:
    def test_restricted_to(self, stock_instance):
        restricted = stock_instance.restricted_to(["Dealers"])
        assert restricted.relation_names() == ("Dealers",)
        assert len(restricted) == 3

    def test_union(self, simple_schema):
        first = DatabaseInstance.from_rows(simple_schema, {"R": [("a", 1)]})
        second = DatabaseInstance.from_rows(simple_schema, {"R": [("b", 2)]})
        assert len(first.union(second)) == 2

    def test_without(self, simple_schema):
        instance = DatabaseInstance.from_rows(simple_schema, {"R": [("a", 1), ("b", 2)]})
        assert len(instance.without([Fact("R", ("a", 1))])) == 1

    def test_equality_and_hash(self, simple_schema):
        first = DatabaseInstance.from_rows(simple_schema, {"R": [("a", 1)]})
        second = DatabaseInstance.from_rows(simple_schema, {"R": [("a", 1)]})
        assert first == second
        assert hash(first) == hash(second)


class TestRelationBlocks:
    def test_lookup_by_key(self, simple_schema):
        instance = DatabaseInstance.from_rows(
            simple_schema, {"R": [("a", 1), ("a", 2), ("b", 1)], "S": [("x", "y")]}
        )
        blocks = instance.relation_blocks("R")
        assert set(blocks) == {("a",), ("b",)}
        assert blocks[("a",)] == {Fact("R", ("a", 1)), Fact("R", ("a", 2))}
        assert blocks.get(("c",)) is None
        assert dict(instance.relation_blocks("T")) == {}

    def test_numeric_key_found_by_equal_fraction(self, simple_schema):
        instance = DatabaseInstance.from_rows(simple_schema, {"R": [(3, "v")]})
        assert instance.relation_blocks("R")[(Fraction(3),)] == {Fact("R", (3, "v"))}

    def test_view_is_read_only(self, simple_schema):
        instance = DatabaseInstance.from_rows(simple_schema, {"R": [("a", 1)]})
        with pytest.raises(TypeError):
            instance.relation_blocks("R")[("b",)] = set()

    def test_block_of_absent_fact_leaves_no_block(self, simple_schema):
        instance = DatabaseInstance.from_rows(simple_schema, {"R": [("a", 1)]})
        assert instance.block_of(Fact("R", ("z", 1))) == frozenset()
        assert instance.block_count() == 1
        assert instance.repair_count() == 1


_INDEX_SCHEMA = Schema([RelationSignature("R", 2, 1), RelationSignature("T", 3, 2)])

_INDEX_FACTS = st.one_of(
    st.builds(
        lambda key, value: Fact("R", (key, value)),
        st.sampled_from(["a", "b", "c"]),
        st.integers(0, 2),
    ),
    st.builds(
        lambda first, second, value: Fact("T", (first, second, value)),
        st.integers(0, 1),
        st.sampled_from(["x", "y"]),
        st.integers(0, 1),
    ),
)

_INDEX_OPS = st.lists(
    st.one_of(
        st.tuples(st.sampled_from(["add", "remove", "discard"]), _INDEX_FACTS),
        st.just(("copy", None)),
    ),
    max_size=40,
)


def _regrouped_block_items(instance):
    """``block_items()`` as computed over one flat ``(relation, key)`` index."""
    blocks = defaultdict(set)
    for fact in instance:
        blocks[instance.block_key_of(fact)].add(fact)
    return [
        (key, tuple(sorted(facts, key=repr)))
        for key, facts in sorted(blocks.items(), key=lambda kv: repr(kv[0]))
    ]


def _check_index(instance):
    expected_items = _regrouped_block_items(instance)
    assert instance.block_items() == expected_items
    assert instance.block_count() == len(expected_items)
    assert instance.relation_names() == tuple(sorted({f.relation for f in instance}))
    for signature in _INDEX_SCHEMA:
        relation = signature.name
        facts = instance.relation(relation)
        assert sorted(facts, key=repr) == sorted(
            (f for f in instance if f.relation == relation), key=repr
        )
        regrouped = defaultdict(set)
        for fact in facts:
            regrouped[fact.key(signature.key_size)].add(fact)
        blocks = instance.relation_blocks(relation)
        assert all(blocks.values()), "an emptied block stayed in the index"
        assert {key: set(block) for key, block in blocks.items()} == regrouped


class TestBlockIndexProperties:
    @settings(max_examples=150, deadline=None)
    @given(ops=_INDEX_OPS)
    def test_index_tracks_mutations_and_copies(self, ops):
        live = DatabaseInstance(_INDEX_SCHEMA)
        bases = []
        for kind, fact in ops:
            if kind == "add":
                live.add_fact(fact)
            elif kind == "remove":
                if fact in live:
                    live.remove_fact(fact)
                else:
                    with pytest.raises(KeyError):
                        live.remove_fact(fact)
            elif kind == "discard":
                live.discard_fact(fact)
            else:
                bases.append((live, _regrouped_block_items(live)))
                live = live.copy()
            _check_index(live)
            for base, items_at_copy in bases:
                assert base.block_items() == items_at_copy
                _check_index(base)
        restored = pickle.loads(pickle.dumps(live))
        _check_index(restored)
        assert restored.block_items() == live.block_items()
        assert restored.data_version == live.data_version


class TestFlatIndexPickles:
    def test_flat_index_pickle_loads(self, stock_instance):
        stock_instance.discard_fact(Fact("Dealers", ("James", "Boston")))
        restored = pickle.loads(flat_index_pickle(stock_instance))
        assert restored == stock_instance
        assert restored.block_items() == stock_instance.block_items()
        assert restored.data_version == stock_instance.data_version
        for key, _facts in stock_instance.block_items():
            assert restored.block_version(key) == stock_instance.block_version(key)
        assert restored.relation_names() == ("Dealers", "Stock")
        restored.add_row("Stock", "Tesla Z", "Boston", 10)
        assert len(restored.relation_blocks("Stock")[("Tesla Z", "Boston")]) == 1
