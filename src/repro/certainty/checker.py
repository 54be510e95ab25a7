"""Operational CERTAINTY checkers.

Two checkers are provided:

* :func:`is_certain` — a direct, polynomial-time implementation of the
  consistent first-order rewriting for self-join-free queries with acyclic
  attack graphs.  It follows the same recursion as
  :class:`~repro.certainty.rewriting.ConsistentRewriter` but evaluates it
  directly against the database instead of materialising a formula.
* :func:`brute_force_certain` — enumerates every repair (exponential); used
  as ground truth in tests and for queries whose attack graph is cyclic.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.attacks.attack_graph import AttackGraph
from repro.datamodel.facts import Constant, Fact
from repro.datamodel.instance import DatabaseInstance
from repro.exceptions import NotRewritableError
from repro.query.atom import Atom
from repro.query.conjunctive import ConjunctiveQuery
from repro.query.terms import is_variable

Binding = Dict[str, Constant]


def _key_matches(atom: Atom, key_values: Tuple[Constant, ...], binding: Binding) -> Optional[Binding]:
    """Unify the atom's key terms with block key values under ``binding``.

    Returns the extended binding on success, ``None`` on mismatch.
    """
    extended = dict(binding)
    for term, value in zip(atom.key_terms, key_values):
        if is_variable(term):
            bound = extended.get(term.name)
            if bound is None:
                extended[term.name] = value
            elif bound != value:
                return None
        elif term != value:
            return None
    return extended


def _fact_matches_nonkey(
    atom: Atom, fact: Fact, binding: Binding
) -> Optional[Binding]:
    """Check the non-key positions of ``fact`` against the atom under ``binding``."""
    signature = atom.signature
    extended = dict(binding)
    for offset, term in enumerate(atom.nonkey_terms):
        value = fact.values[signature.key_size + offset]
        if is_variable(term):
            bound = extended.get(term.name)
            if bound is None:
                extended[term.name] = value
            elif bound != value:
                return None
        elif term != value:
            return None
    return extended


def certain_suffix_holds(
    atoms: Sequence[Atom], instance: DatabaseInstance, binding: Binding
) -> bool:
    """Does every repair satisfy the conjunction of ``atoms`` under ``binding``?

    ``atoms`` must be listed in an order compatible with a topological sort of
    the attack graph (bound variables treated as constants).  When the first
    atom's key is bound, the one block it names is the only candidate.
    """
    if not atoms:
        return True
    first, rest = atoms[0], atoms[1:]
    blocks = instance.relation_blocks(first.relation)
    key = first.key_under(binding)
    if key is None:
        candidates = blocks.items()
    else:
        block = blocks.get(key)
        candidates = () if block is None else ((key, block),)
    for key_values, block in candidates:
        with_key = _key_matches(first, key_values, binding)
        if with_key is None:
            continue
        all_facts_good = True
        for fact in block:
            with_fact = _fact_matches_nonkey(first, fact, with_key)
            if with_fact is None or not certain_suffix_holds(rest, instance, with_fact):
                all_facts_good = False
                break
        if all_facts_good:
            return True
    return False


def is_certain(
    query: ConjunctiveQuery,
    instance: DatabaseInstance,
    binding: Optional[Binding] = None,
) -> bool:
    """Polynomial-time CERTAINTY check for acyclic self-join-free queries.

    ``binding`` may pre-assign constants to (free) variables.  Raises
    :class:`~repro.exceptions.NotRewritableError` when the attack graph is
    cyclic; use :func:`brute_force_certain` in that case.
    """
    graph = AttackGraph(query)
    if not graph.is_acyclic():
        raise NotRewritableError(
            "attack graph is cyclic; use brute_force_certain for ground truth"
        )
    order = graph.topological_sort()
    return certain_suffix_holds(order, instance, dict(binding or {}))


def _has_embedding(
    query: ConjunctiveQuery, instance: DatabaseInstance, binding: Binding
) -> bool:
    """Does the (consistent) instance satisfy the query under ``binding``?"""

    def backtrack(index: int, current: Binding) -> bool:
        if index == len(query.atoms):
            return True
        atom = query.atoms[index]
        grounded = atom.apply_valuation(current)
        for fact in atom.candidate_facts(instance, current):
            match = grounded.match(fact)
            if match is None:
                continue
            extended = dict(current)
            extended.update(match)
            if backtrack(index + 1, extended):
                return True
        return False

    return backtrack(0, dict(binding))


def brute_force_certain(
    query: ConjunctiveQuery,
    instance: DatabaseInstance,
    binding: Optional[Binding] = None,
) -> bool:
    """Ground-truth CERTAINTY check by enumerating every repair."""
    fixed = dict(binding or {})
    return all(_has_embedding(query, repair, fixed) for repair in instance.repairs())


def certain_answers(
    query: ConjunctiveQuery,
    instance: DatabaseInstance,
    use_rewriting: bool = True,
) -> List[Tuple[Constant, ...]]:
    """Consistent answers of a query with free variables.

    Candidate answers are taken from one arbitrary repair (certain answers are
    answers in *every* repair, hence in that one); each candidate is then
    checked with the polynomial-time checker (or brute force when the attack
    graph is cyclic or ``use_rewriting`` is False).
    """
    free = query.free_variables
    if not free:
        raise ValueError("certain_answers expects a query with free variables")
    candidate_repair = instance.arbitrary_repair()
    candidates: Set[Tuple[Constant, ...]] = set()
    _collect_answers(query, candidate_repair, candidates)

    graph = AttackGraph(query)
    results = []
    for candidate in sorted(candidates, key=repr):
        binding = {v.name: value for v, value in zip(free, candidate)}
        if use_rewriting and graph.is_acyclic():
            holds = is_certain(query, instance, binding)
        else:
            holds = brute_force_certain(query, instance, binding)
        if holds:
            results.append(candidate)
    return results


def _collect_answers(
    query: ConjunctiveQuery,
    instance: DatabaseInstance,
    out: Set[Tuple[Constant, ...]],
) -> None:
    free = query.free_variables

    def backtrack(index: int, current: Binding) -> None:
        if index == len(query.atoms):
            out.add(tuple(current[v.name] for v in free))
            return
        atom = query.atoms[index]
        grounded = atom.apply_valuation(current)
        for fact in atom.candidate_facts(instance, current):
            match = grounded.match(fact)
            if match is None:
                continue
            extended = dict(current)
            extended.update(match)
            backtrack(index + 1, extended)

    backtrack(0, {})
