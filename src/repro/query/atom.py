"""Query atoms ``R(u1, ..., un)`` with key / non-key variable accessors."""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, FrozenSet, Iterable, Mapping, Optional, Tuple

from repro.datamodel.facts import Constant, Fact
from repro.datamodel.signature import RelationSignature
from repro.exceptions import QueryError
from repro.query.terms import Term, Variable, is_variable, term_str

if TYPE_CHECKING:
    from repro.datamodel.instance import DatabaseInstance


@dataclass(frozen=True)
class Atom:
    """An atom over a relation signature.

    The signature fixes which positions form the primary key and which are
    numeric, so the atom can expose ``Key(F)`` and ``notKey(F)`` exactly as in
    the paper.
    """

    signature: RelationSignature
    terms: Tuple[Term, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "terms", tuple(self.terms))
        if len(self.terms) != self.signature.arity:
            raise QueryError(
                f"atom over {self.signature.name!r}: expected "
                f"{self.signature.arity} terms, got {len(self.terms)}"
            )

    # -- naming ----------------------------------------------------------------

    @property
    def relation(self) -> str:
        return self.signature.name

    # -- variable sets (paper notation) ------------------------------------------

    @property
    def variables(self) -> FrozenSet[Variable]:
        """``vars(F)``: all variables occurring in the atom."""
        return frozenset(t for t in self.terms if is_variable(t))

    @property
    def key_terms(self) -> Tuple[Term, ...]:
        """Terms at primary-key positions."""
        return self.terms[: self.signature.key_size]

    @property
    def nonkey_terms(self) -> Tuple[Term, ...]:
        """Terms at non-key positions."""
        return self.terms[self.signature.key_size:]

    @property
    def key_variables(self) -> FrozenSet[Variable]:
        """``Key(F)``: variables occurring at a primary-key position."""
        return frozenset(t for t in self.key_terms if is_variable(t))

    @property
    def nonkey_variables(self) -> FrozenSet[Variable]:
        """``notKey(F) = vars(F) \\ Key(F)``."""
        return self.variables - self.key_variables

    def variable_positions(self, variable: Variable) -> Tuple[int, ...]:
        """1-based positions at which ``variable`` occurs."""
        return tuple(i for i, t in enumerate(self.terms, start=1) if t == variable)

    # -- substitution and matching -----------------------------------------------

    def substitute(self, mapping: Mapping[Variable, Term]) -> "Atom":
        """Replace variables according to ``mapping`` (variables not present stay)."""
        return Atom(
            self.signature,
            tuple(mapping.get(t, t) if is_variable(t) else t for t in self.terms),
        )

    def apply_valuation(self, valuation: Mapping[str, object]) -> "Atom":
        """Apply a valuation keyed by variable *name* (paper's ``theta(F)``)."""
        new_terms = []
        for term in self.terms:
            if is_variable(term) and term.name in valuation:
                new_terms.append(valuation[term.name])
            else:
                new_terms.append(term)
        return Atom(self.signature, tuple(new_terms))

    def match(self, fact: Fact) -> Optional[dict]:
        """Try to unify the atom with a fact.

        Returns a dict ``{variable_name: constant}`` on success, or ``None``
        when the fact does not match (wrong relation, conflicting constants,
        or one variable bound to two different constants).
        """
        if fact.relation != self.relation or fact.arity != len(self.terms):
            return None
        bindings: dict = {}
        for term, value in zip(self.terms, fact.values):
            if is_variable(term):
                if term.name in bindings and bindings[term.name] != value:
                    return None
                bindings[term.name] = value
            elif term != value:
                return None
        return bindings

    def key_under(
        self, valuation: Mapping[str, object]
    ) -> Optional[Tuple[Constant, ...]]:
        """The primary-key values under ``valuation``; ``None`` while a key
        variable is unbound."""
        values = []
        for term in self.key_terms:
            if is_variable(term):
                if term.name not in valuation:
                    return None
                values.append(valuation[term.name])
            else:
                values.append(term)
        return tuple(values)

    def candidate_facts(
        self, instance: "DatabaseInstance", valuation: Mapping[str, object]
    ) -> Iterable[Fact]:
        """The facts of ``instance`` this atom can match under ``valuation``.

        Once the key is bound it names at most one block, so only that
        block's facts are returned; otherwise the whole relation is.
        """
        key = self.key_under(valuation)
        if key is None:
            return instance.relation(self.relation)
        return instance.relation_blocks(self.relation).get(key, ())

    def ground(self, valuation: Mapping[str, object]) -> Fact:
        """Turn the atom into a fact using a valuation covering all variables."""
        values = []
        for term in self.terms:
            if is_variable(term):
                if term.name not in valuation:
                    raise QueryError(
                        f"valuation does not cover variable {term.name!r} of {self}"
                    )
                values.append(valuation[term.name])
            else:
                values.append(term)
        return Fact(self.relation, tuple(values))

    def is_ground(self) -> bool:
        """True when the atom contains no variables (i.e. it is a fact)."""
        return not self.variables

    def __str__(self) -> str:
        return f"{self.relation}({', '.join(term_str(t) for t in self.terms)})"
