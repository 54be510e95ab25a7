"""Embeddings of conjunctive queries into database instances."""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from repro.datamodel.facts import Constant
from repro.datamodel.instance import DatabaseInstance
from repro.datamodel.valuation import Valuation
from repro.query.conjunctive import ConjunctiveQuery


def embeddings_of(
    query: ConjunctiveQuery,
    instance: DatabaseInstance,
    binding: Optional[Dict[str, Constant]] = None,
) -> List[Valuation]:
    """All embeddings of the query body into the instance.

    An embedding is a valuation over ``vars(q)`` mapping every atom to a fact
    of the instance.  ``binding`` optionally pre-assigns some variables.
    """
    results: List[Valuation] = []

    def backtrack(index: int, current: Dict[str, Constant]) -> None:
        if index == len(query.atoms):
            results.append(Valuation(current))
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

    backtrack(0, dict(binding or {}))
    # Deduplicate (two different fact choices can induce the same valuation
    # only when atoms are subsumed, which cannot happen for self-join-free
    # queries, but the guard keeps the function total).
    unique: List[Valuation] = []
    seen = set()
    for valuation in results:
        key = tuple(sorted(valuation.items(), key=lambda kv: kv[0]))
        if key not in seen:
            seen.add(key)
            unique.append(valuation)
    return unique


def embeddings_satisfy_key_constraints(
    query: ConjunctiveQuery, embeddings: Iterable[Valuation]
) -> bool:
    """``M |= K(q)``: check the key FDs of the query over a set of embeddings.

    For every atom ``F``, any two embeddings that agree on ``Key(F)`` must
    agree on ``vars(F)``.
    """
    embeddings = list(embeddings)
    for atom in query.atoms:
        key_names = sorted(v.name for v in atom.key_variables)
        all_names = sorted(v.name for v in atom.variables)
        seen: Dict[tuple, tuple] = {}
        for valuation in embeddings:
            key_value = tuple(valuation[name] for name in key_names)
            full_value = tuple(valuation[name] for name in all_names)
            if key_value in seen and seen[key_value] != full_value:
                return False
            seen.setdefault(key_value, full_value)
    return True
