"""∀embeddings (Section 4) — direct computation and the Lemma 4.3 formula.

An ℓ-∀embedding extends an (ℓ−1)-∀embedding with values for the ℓ-th atom of
a topological sort such that, once the key of the ℓ-th atom is fixed, the
remaining suffix of the query is certain (true in every repair).  The set of
(full) ∀embeddings is the input of the MCS characterisation of Corollary 6.4
and of the operational GLB evaluator.

Two computations are offered:

* :class:`ForallEmbeddingComputer` — a direct polynomial-time algorithm that
  mirrors the inductive definition, using the recursive certainty checker.
* :func:`forall_embedding_formula` — the first-order formula of Lemma 4.3
  (``ψ_n``), built from consistent rewritings of query suffixes; it can be
  evaluated with :mod:`repro.fol.evaluation` and compiled to SQL.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.attacks.attack_graph import AttackGraph
from repro.certainty.checker import certain_suffix_holds
from repro.certainty.rewriting import ConsistentRewriter
from repro.datamodel.facts import Constant
from repro.datamodel.instance import DatabaseInstance
from repro.datamodel.valuation import Valuation
from repro.exceptions import NotRewritableError
from repro.fol.builders import conjunction
from repro.fol.syntax import Formula, RelationAtom
from repro.query.atom import Atom
from repro.query.conjunctive import ConjunctiveQuery

Binding = Dict[str, Constant]


class ForallEmbeddingComputer:
    """Computes ℓ-∀embeddings and ∀embeddings of an acyclic sjfBCQ query."""

    def __init__(
        self,
        query: ConjunctiveQuery,
        instance: DatabaseInstance,
        order: Optional[Sequence[Atom]] = None,
    ) -> None:
        query.require_self_join_free()
        self._query = query
        self._instance = instance
        self._graph = AttackGraph(query)
        if not self._graph.is_acyclic():
            raise NotRewritableError(
                "∀embeddings are defined relative to an acyclic attack graph"
            )
        self._order: List[Atom] = list(order or self._graph.topological_sort())
        if set(self._order) != set(query.atoms):
            raise ValueError("order must be a permutation of the query atoms")
        frozen = {v.name for v in query.free_variables}
        self._frozen = frozen

    # -- public API ---------------------------------------------------------------

    @property
    def order(self) -> List[Atom]:
        return list(self._order)

    def query_is_certain(self, binding: Optional[Binding] = None) -> bool:
        """True when every repair satisfies the query (the 0-∀embedding exists)."""
        return certain_suffix_holds(self._order, self._instance, dict(binding or {}))

    def level_embeddings(
        self, level: int, binding: Optional[Binding] = None
    ) -> List[Valuation]:
        """All ℓ-∀embeddings for ``level = ℓ`` (0 ≤ ℓ ≤ n)."""
        base = dict(binding or {})
        if not self.query_is_certain(base):
            return []
        partials: List[Binding] = [dict(base)]
        for position in range(level):
            partials = self._extend_level(partials, position)
        covered = self._variables_up_to(level) | set(base)
        return [Valuation({k: v for k, v in p.items() if k in covered}) for p in partials]

    def forall_embeddings(self, binding: Optional[Binding] = None) -> List[Valuation]:
        """All (n-)∀embeddings of the query in the instance."""
        return self.level_embeddings(len(self._order), binding)

    # -- internals ----------------------------------------------------------------

    def _variables_up_to(self, level: int) -> Set[str]:
        names: Set[str] = set(self._frozen)
        for atom in self._order[:level]:
            names |= {v.name for v in atom.variables}
        return names

    def _extend_level(self, partials: List[Binding], position: int) -> List[Binding]:
        """Extend (ℓ−1)-∀embeddings to ℓ-∀embeddings for ``ℓ = position + 1``."""
        atom = self._order[position]
        suffix = self._order[position:]
        remaining_suffix = self._order[position + 1:]
        extended_list: List[Binding] = []
        seen: Set[Tuple] = set()
        for partial in partials:
            grounded = atom.apply_valuation(partial)
            for fact in atom.candidate_facts(self._instance, partial):
                match = grounded.match(fact)
                if match is None:
                    continue
                extended = dict(partial)
                extended.update(match)
                # The ℓ-embedding condition: the partial valuation must extend
                # to a full embedding of the query in the instance.
                if remaining_suffix and not self._extendable(remaining_suffix, extended):
                    continue
                # The ∀-condition: with the key of the ℓ-th atom fixed, the
                # suffix must hold in every repair.
                key_binding = dict(partial)
                for variable in atom.key_variables:
                    key_binding[variable.name] = extended[variable.name]
                if not certain_suffix_holds(suffix, self._instance, key_binding):
                    continue
                signature = tuple(sorted(extended.items(), key=lambda kv: kv[0]))
                if signature not in seen:
                    seen.add(signature)
                    extended_list.append(extended)
        return extended_list

    def _extendable(self, atoms: Sequence[Atom], binding: Binding) -> bool:
        """Can ``binding`` be extended to satisfy all of ``atoms`` in the instance?"""
        if not atoms:
            return True
        first, rest = atoms[0], atoms[1:]
        grounded = first.apply_valuation(binding)
        for fact in first.candidate_facts(self._instance, binding):
            match = grounded.match(fact)
            if match is None:
                continue
            extended = dict(binding)
            extended.update(match)
            if self._extendable(rest, extended):
                return True
        return False


def forall_embeddings(
    query: ConjunctiveQuery,
    instance: DatabaseInstance,
    order: Optional[Sequence[Atom]] = None,
    binding: Optional[Binding] = None,
) -> List[Valuation]:
    """Convenience wrapper around :class:`ForallEmbeddingComputer`."""
    return ForallEmbeddingComputer(query, instance, order).forall_embeddings(binding)


def forall_embedding_formula(
    query: ConjunctiveQuery, order: Optional[Sequence[Atom]] = None
) -> Formula:
    """The formula ``ψ_n(ū)`` of Lemma 4.3.

    Its free variables are the variables of the query body; a valuation ``θ``
    over them satisfies the formula exactly when ``θ`` is a ∀embedding of the
    query in the database instance.  The construction conjoins, for every atom
    ``F_{j+1}`` of the topological sort, the consistent rewriting
    ``ω_{j+1}(ū_j, x̄_{j+1})`` of the query suffix and the atom itself.
    """
    query.require_self_join_free()
    rewriter = ConsistentRewriter(query)
    atoms = list(order or rewriter.topological_sort)
    if set(atoms) != set(query.atoms):
        raise ValueError("order must be a permutation of the query atoms")

    frozen = {v.name for v in query.free_variables}
    conjuncts: List[Formula] = []
    bound: Set[str] = set(frozen)
    for position, atom in enumerate(atoms):
        suffix = atoms[position:]
        bound_for_omega = bound | {v.name for v in atom.key_variables}
        omega = rewriter.suffix_rewriting(suffix, bound_for_omega)
        conjuncts.append(omega)
        conjuncts.append(RelationAtom(atom))
        bound |= {v.name for v in atom.variables}
    return conjunction(conjuncts)
