"""Tests for CERTAINTY: the rewriting, the direct checker and brute force."""

import itertools
import random
from collections import defaultdict
from fractions import Fraction

import pytest

from repro.attacks.attack_graph import AttackGraph
from repro.certainty.checker import brute_force_certain, certain_answers, is_certain
from repro.certainty.rewriting import ConsistentRewriter, consistent_rewriting
from repro.datamodel.instance import DatabaseInstance
from repro.datamodel.signature import RelationSignature, Schema
from repro.datamodel.valuation import Valuation
from repro.embeddings.forall import forall_embeddings
from repro.exceptions import NotRewritableError
from repro.fol.evaluation import evaluate_formula
from repro.fol.syntax import formula_size
from repro.query.parser import parse_query
from repro.query.terms import is_variable
from tests.conftest import make_random_instance


class TestDirectChecker:
    def test_certain_query_on_stock(self, stock_schema, stock_instance):
        # Every repair stores some product in Boston in quantity 35 (Example 4.1).
        query = parse_query(stock_schema, "Dealers('James', t), Stock(p, t, 35)")
        assert is_certain(query, stock_instance)

    def test_uncertain_query_on_stock(self, stock_schema, stock_instance):
        # Smith's town is uncertain, so stock in Smith's town at quantity 95 is not certain.
        query = parse_query(stock_schema, "Dealers('Smith', t), Stock(p, t, 95)")
        assert not is_certain(query, stock_instance)

    def test_binding_acts_as_constant(self, stock_schema, stock_instance):
        query = parse_query(stock_schema, "Dealers(x, t), Stock(p, t, y)", free="x")
        assert is_certain(query, stock_instance, {"x": "James"})
        assert is_certain(query, stock_instance, {"x": "Smith"})

    def test_missing_constant_is_not_certain(self, stock_schema, stock_instance):
        query = parse_query(stock_schema, "Dealers('Nobody', t), Stock(p, t, y)")
        assert not is_certain(query, stock_instance)

    def test_cyclic_query_raises(self):
        schema = Schema([RelationSignature("U", 2, 1), RelationSignature("V", 2, 1)])
        query = parse_query(schema, "U(x, y), V(y, x)")
        instance = DatabaseInstance.from_rows(schema, {"U": [("a", "b")], "V": [("b", "a")]})
        with pytest.raises(NotRewritableError):
            is_certain(query, instance)

    def test_brute_force_handles_cyclic_query(self):
        schema = Schema([RelationSignature("U", 2, 1), RelationSignature("V", 2, 1)])
        query = parse_query(schema, "U(x, y), V(y, x)")
        instance = DatabaseInstance.from_rows(
            schema, {"U": [("a", "b")], "V": [("b", "a")]}
        )
        assert brute_force_certain(query, instance)

    @pytest.mark.parametrize("seed", range(12))
    def test_agrees_with_brute_force_on_random_instances(
        self, two_atom_schema, seed
    ):
        query = parse_query(two_atom_schema, "R(x, y), S(y, z, r)")
        instance = make_random_instance(two_atom_schema, seed)
        assert is_certain(query, instance) == brute_force_certain(query, instance)


class TestCertainAnswers:
    def test_certain_answers_on_stock(self, stock_schema, stock_instance):
        query = parse_query(stock_schema, "Dealers(x, t), Stock(p, t, y)", free="x")
        answers = certain_answers(query, stock_instance)
        assert ("James",) in answers
        assert ("Smith",) in answers

    def test_certain_answers_exclude_uncertain_tuples(self, stock_schema):
        instance = DatabaseInstance.from_rows(
            stock_schema,
            {
                "Dealers": [("Smith", "Boston"), ("Smith", "Paris")],
                "Stock": [("Tesla X", "Boston", 35)],
            },
        )
        query = parse_query(stock_schema, "Dealers(x, t), Stock(p, t, y)", free="x")
        assert certain_answers(query, instance) == []

    def test_requires_free_variables(self, stock_schema, stock_instance):
        query = parse_query(stock_schema, "Dealers('Smith', t), Stock(p, t, y)")
        with pytest.raises(ValueError):
            certain_answers(query, stock_instance)

    def test_brute_force_path_matches_rewriting_path(self, stock_schema, stock_instance):
        query = parse_query(stock_schema, "Dealers(x, t), Stock(p, t, y)", free="x")
        assert certain_answers(query, stock_instance, use_rewriting=True) == certain_answers(
            query, stock_instance, use_rewriting=False
        )


class TestConsistentRewriting:
    def test_rewriting_matches_checker_on_stock(self, stock_schema, stock_instance):
        query = parse_query(stock_schema, "Dealers('James', t), Stock(p, t, 35)")
        formula = consistent_rewriting(query)
        assert evaluate_formula(stock_instance, formula) == is_certain(
            query, stock_instance
        )

    def test_rewriting_matches_checker_on_uncertain_query(
        self, stock_schema, stock_instance
    ):
        query = parse_query(stock_schema, "Dealers('Smith', t), Stock(p, t, 95)")
        formula = consistent_rewriting(query)
        assert evaluate_formula(stock_instance, formula) == is_certain(
            query, stock_instance
        )

    @pytest.mark.parametrize("seed", range(6))
    def test_rewriting_matches_brute_force_on_random_instances(
        self, two_atom_schema, seed
    ):
        query = parse_query(two_atom_schema, "R(x, y), S(y, z, r)")
        formula = consistent_rewriting(query)
        instance = make_random_instance(two_atom_schema, seed, facts_per_relation=4)
        assert evaluate_formula(instance, formula) == brute_force_certain(query, instance)

    def test_rewriting_with_free_variables(self, stock_schema, stock_instance):
        query = parse_query(stock_schema, "Dealers(x, t), Stock(p, t, y)", free="x")
        formula = consistent_rewriting(query)
        assert evaluate_formula(stock_instance, formula, {"x": "James"})
        assert not evaluate_formula(stock_instance, formula, {"x": "Nobody"})

    def test_rewriting_size_is_polynomial(self, stock_schema):
        query = parse_query(stock_schema, "Dealers('Smith', t), Stock(p, t, y)")
        formula = formula_size(consistent_rewriting(query))
        assert formula < 200

    def test_cyclic_query_not_rewritable(self):
        schema = Schema([RelationSignature("U", 2, 1), RelationSignature("V", 2, 1)])
        query = parse_query(schema, "U(x, y), V(y, x)")
        with pytest.raises(NotRewritableError):
            consistent_rewriting(query)

    def test_topological_sort_exposed(self, stock_schema):
        query = parse_query(stock_schema, "Dealers('Smith', t), Stock(p, t, y)")
        rewriter = ConsistentRewriter(query)
        assert [a.relation for a in rewriter.topological_sort] == ["Dealers", "Stock"]


# -- key lookup edge cases -----------------------------------------------------
#
# The checker and the ∀embedding enumerator read the one block a bound key
# names instead of scanning the relation.  The references below scan: the
# regroup-and-unify definition of the certain suffix, and ∀embeddings taken
# straight from their definition over every embedding.


def _unify(terms, values, binding):
    extended = dict(binding)
    for term, value in zip(terms, values):
        if is_variable(term):
            if term.name not in extended:
                extended[term.name] = value
            elif extended[term.name] != value:
                return None
        elif term != value:
            return None
    return extended


def _scanning_certain(atoms, instance, binding):
    """Certain suffix by regrouping the whole relation and unifying every key."""
    if not atoms:
        return True
    first, rest = atoms[0], atoms[1:]
    size = first.signature.key_size
    blocks = defaultdict(list)
    for fact in instance.facts:
        if fact.relation == first.relation:
            blocks[fact.values[:size]].append(fact)
    for key, block in blocks.items():
        with_key = _unify(first.key_terms, key, binding)
        if with_key is None:
            continue
        if all(
            (extended := _unify(first.nonkey_terms, fact.values[size:], with_key))
            is not None
            and _scanning_certain(rest, instance, extended)
            for fact in block
        ):
            return True
    return False


def _embeddings(atoms, facts, binding):
    """Every valuation extending ``binding`` that maps ``atoms`` into ``facts``."""
    if not atoms:
        yield dict(binding)
        return
    first, rest = atoms[0], atoms[1:]
    for fact in facts:
        if fact.relation == first.relation:
            extended = _unify(first.terms, fact.values, binding)
            if extended is not None:
                yield from _embeddings(rest, facts, extended)


def _brute_force_suffix(atoms, instance, binding):
    return all(
        next(_embeddings(atoms, repair.facts, binding), None) is not None
        for repair in instance.repairs()
    )


def _defined_forall_embeddings(query, instance, binding, certain):
    """∀embeddings by definition: every embedding whose every level is certain."""
    order = AttackGraph(query).topological_sort()
    if not certain(order, instance, binding):
        return set()
    found = set()
    for theta in _embeddings(order, instance.facts, binding):
        bound = dict(binding)
        for position, atom in enumerate(order):
            key_binding = dict(bound)
            key_binding.update({v.name: theta[v.name] for v in atom.key_variables})
            if not certain(order[position:], instance, key_binding):
                break
            bound.update({v.name: theta[v.name] for v in atom.variables})
        else:
            found.add(Valuation(theta))
    return found


@pytest.fixture
def keyed_schema():
    """R has a two-position key, S a one-position key."""
    return Schema([RelationSignature("R", 3, 2), RelationSignature("S", 2, 1)])


def _random_rows(seed):
    rng = random.Random(seed)
    domain = (1, 2)
    return {
        "R": [row for row in itertools.product(domain, repeat=3) if rng.random() < 0.4],
        "S": [row for row in itertools.product(domain, repeat=2) if rng.random() < 0.5],
    }


def _check_key_lookup(schema, text, free, binding, rows_list):
    query = parse_query(schema, text, free=free)
    order = AttackGraph(query).topological_sort()
    verdicts = []
    for rows in rows_list:
        instance = DatabaseInstance.from_rows(schema, rows)
        certain = is_certain(query, instance, binding)
        assert certain == brute_force_certain(query, instance, binding), rows
        assert certain == _scanning_certain(order, instance, binding), rows
        embeddings = set(forall_embeddings(query, instance, binding=binding))
        for reference in (_scanning_certain, _brute_force_suffix):
            expected = _defined_forall_embeddings(query, instance, binding, reference)
            assert embeddings == expected, rows
        verdicts.append(certain)
    return verdicts


_RANDOM_ROWS = [_random_rows(seed) for seed in range(24)]


class TestKeyLookupEdgeCases:
    def test_constant_in_key_position(self, keyed_schema):
        verdicts = _check_key_lookup(
            keyed_schema, "S(1, w), R(w, 2, v)", (), {}, _RANDOM_ROWS
        )
        assert True in verdicts and False in verdicts

    def test_repeated_key_variable(self, keyed_schema):
        verdicts = _check_key_lookup(
            keyed_schema, "R(x, x, v), S(v, w)", (), {}, _RANDOM_ROWS
        )
        assert True in verdicts and False in verdicts

    def test_fraction_binding_finds_int_key(self, keyed_schema):
        binding = {"x": Fraction(1), "y": Fraction(2)}
        verdicts = _check_key_lookup(
            keyed_schema, "R(x, y, v), S(v, w)", "x, y", binding, _RANDOM_ROWS
        )
        assert True in verdicts and False in verdicts

    def test_key_bound_to_absent_value(self, keyed_schema):
        verdicts = _check_key_lookup(
            keyed_schema, "R(x, y, v), S(v, w)", "x, y", {"x": 9, "y": 1}, _RANDOM_ROWS
        )
        assert verdicts == [False] * len(_RANDOM_ROWS)

    def test_empty_relation(self, keyed_schema):
        full = {"R": [(1, 1, 1), (1, 2, 2)], "S": [(1, 1), (2, 1)]}
        rows_list = [full, {"R": full["R"]}, {"S": full["S"]}, {}]
        verdicts = _check_key_lookup(
            keyed_schema, "R(x, y, v), S(v, w)", (), {}, rows_list
        )
        assert verdicts == [True, False, False, False]
