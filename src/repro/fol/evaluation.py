"""Evaluation of AGGR[FOL] formulas and numerical terms on database instances.

The evaluator implements the semantics of Section 5.2 with two pragmatic
conventions that are standard for aggregate logics over databases:

* quantifiers range over the *active domain* (constants occurring in the
  database instance or in the formula);
* when enumerating the satisfying assignments of a quantified or aggregated
  formula, a variable that is forced by an equality ``v = t`` (where ``t`` is
  a numerical term whose free variables are already bound) is assigned the
  value of ``t`` directly, even when that value does not occur in the active
  domain.  This is required to evaluate rewritings such as Fig. 5's ``ψ2``,
  where the aggregated value ``v = t(x, y)`` is generally not a database
  constant.

The evaluator is intended for correctness (tests, ground truth on small
instances); the scalable execution paths are the operational evaluator in
:mod:`repro.core.evaluator` and the SQL backend in :mod:`repro.sql`.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Dict, Iterator, List, Optional, Sequence, Set

from repro.aggregates.operators import get_operator
from repro.datamodel.facts import Constant, Fact, is_numeric_constant
from repro.datamodel.instance import DatabaseInstance
from repro.exceptions import EvaluationError
from repro.fol.syntax import (
    AggregateTerm,
    And,
    Comparison,
    Exists,
    FalseFormula,
    ForAll,
    Formula,
    Implies,
    Not,
    NumericalConstant,
    NumericalVariable,
    Or,
    RelationAtom,
    TrueFormula,
)
from repro.query.terms import Variable, is_variable

Environment = Dict[str, Constant]


class FormulaEvaluator:
    """Evaluates AGGR[FOL] formulas over one database instance."""

    def __init__(self, instance: DatabaseInstance) -> None:
        self._instance = instance
        self._domain: List[Constant] = sorted(
            {value for fact in instance for value in fact.values}, key=repr
        )

    # -- public API ----------------------------------------------------------------

    def evaluate(self, formula: Formula, environment: Optional[Environment] = None) -> bool:
        """Truth value of ``formula`` under ``environment`` on the instance."""
        env = dict(environment or {})
        domain = self._domain_with_formula_constants(formula)
        return self._eval(formula, env, domain)

    def evaluate_term(
        self, term, environment: Optional[Environment] = None
    ) -> Optional[Fraction]:
        """Value of a numerical term (``None`` encodes an undefined ``f0``)."""
        env = dict(environment or {})
        domain = (
            self._domain_with_formula_constants(term.formula)
            if isinstance(term, AggregateTerm)
            else list(self._domain)
        )
        return self._eval_term(term, env, domain)

    def satisfying_assignments(
        self,
        variables: Sequence[Variable],
        formula: Formula,
        environment: Optional[Environment] = None,
    ) -> List[Environment]:
        """All distinct assignments of ``variables`` making ``formula`` true."""
        env = dict(environment or {})
        domain = self._domain_with_formula_constants(formula)
        results = []
        for assignment in self._assignments(variables, formula, env, domain):
            candidate = dict(env)
            candidate.update(assignment)
            if self._eval(formula, candidate, domain):
                results.append(assignment)
        return results

    # -- domain handling -------------------------------------------------------------

    def _domain_with_formula_constants(self, formula: Formula) -> List[Constant]:
        constants: Set[Constant] = set(self._domain)
        constants |= _formula_constants(formula)
        return sorted(constants, key=repr)

    def _candidates(self, variable: Variable, domain: Sequence[Constant]) -> List[Constant]:
        if variable.numeric:
            return [c for c in domain if is_numeric_constant(c)]
        return list(domain)

    # -- assignment enumeration --------------------------------------------------------

    def _assignments(
        self,
        variables: Sequence[Variable],
        formula: Formula,
        env: Environment,
        domain: Sequence[Constant],
    ) -> Iterator[Environment]:
        """Candidate assignments for ``variables`` (complete for active domain
        plus equality-forced values, see module docstring)."""
        variables = list(variables)
        if not variables:
            yield {}
            return
        forced: Dict[str, object] = {}
        remaining = list(variables)
        progress = True
        while progress:
            progress = False
            for var in list(remaining):
                term = self._forcing_term(var, formula, env, forced)
                if term is not None:
                    forced[var.name] = term
                    remaining.remove(var)
                    progress = True
        # Resolve forced terms in dependency order (they may depend on each other
        # only through already-bound variables, so a single pass suffices).
        forced_values: Dict[str, Constant] = {}
        scope = dict(env)
        for name, term in forced.items():
            value = self._eval_term_or_constant(term, scope, domain)
            if value is None:
                return
            forced_values[name] = value
            scope[name] = value

        candidate_lists = [self._candidates(var, domain) for var in remaining]
        for combination in itertools.product(*candidate_lists):
            assignment = dict(forced_values)
            assignment.update(
                {var.name: value for var, value in zip(remaining, combination)}
            )
            yield assignment

    def _forcing_term(
        self,
        variable: Variable,
        formula: Formula,
        env: Environment,
        already_forced: Dict[str, object],
    ):
        """Find a term ``t`` such that the formula entails ``variable = t`` and
        all free variables of ``t`` are bound in ``env`` or already forced."""
        bound_names = set(env) | set(already_forced)
        for comparison in _top_level_comparisons(formula):
            if comparison.operator != "=":
                continue
            for var_side, term_side in (
                (comparison.left, comparison.right),
                (comparison.right, comparison.left),
            ):
                if is_variable(var_side) and var_side == variable:
                    free = {
                        v.name
                        for v in _comparable_free_variables(term_side)
                    }
                    if variable.name not in free and free <= bound_names:
                        return term_side
                if (
                    isinstance(var_side, NumericalVariable)
                    and var_side.variable == variable
                ):
                    free = {v.name for v in _comparable_free_variables(term_side)}
                    if variable.name not in free and free <= bound_names:
                        return term_side
        return None

    # -- formula evaluation --------------------------------------------------------------

    def _eval(self, formula: Formula, env: Environment, domain: Sequence[Constant]) -> bool:
        if isinstance(formula, TrueFormula):
            return True
        if isinstance(formula, FalseFormula):
            return False
        if isinstance(formula, RelationAtom):
            return self._eval_atom(formula, env)
        if isinstance(formula, Comparison):
            return self._eval_comparison(formula, env, domain)
        if isinstance(formula, Not):
            return not self._eval(formula.operand, env, domain)
        if isinstance(formula, And):
            return all(self._eval(op, env, domain) for op in formula.operands)
        if isinstance(formula, Or):
            return any(self._eval(op, env, domain) for op in formula.operands)
        if isinstance(formula, Implies):
            if not self._eval(formula.antecedent, env, domain):
                return True
            return self._eval(formula.consequent, env, domain)
        if isinstance(formula, Exists):
            for assignment in self._assignments(
                formula.variables, formula.operand, env, domain
            ):
                extended = dict(env)
                extended.update(assignment)
                if self._eval(formula.operand, extended, domain):
                    return True
            return False
        if isinstance(formula, ForAll):
            candidate_lists = [self._candidates(v, domain) for v in formula.variables]
            for combination in itertools.product(*candidate_lists):
                extended = dict(env)
                extended.update(
                    {v.name: value for v, value in zip(formula.variables, combination)}
                )
                if not self._eval(formula.operand, extended, domain):
                    return False
            return True
        raise EvaluationError(f"cannot evaluate formula node {formula!r}")

    def _eval_atom(self, formula: RelationAtom, env: Environment) -> bool:
        atom = formula.atom
        grounded_terms = []
        for term in atom.terms:
            if is_variable(term):
                if term.name not in env:
                    raise EvaluationError(
                        f"unbound variable {term.name!r} in atom {atom}"
                    )
                grounded_terms.append(env[term.name])
            else:
                grounded_terms.append(term)
        return Fact(atom.relation, tuple(grounded_terms)) in self._instance

    def _eval_comparison(
        self, formula: Comparison, env: Environment, domain: Sequence[Constant]
    ) -> bool:
        left = self._eval_term_or_constant(formula.left, env, domain)
        right = self._eval_term_or_constant(formula.right, env, domain)
        operator = formula.operator
        if left is None or right is None:
            # Undefined aggregate values make every comparison false except the
            # trivial equality of two undefined values.
            if operator == "=":
                return left is None and right is None
            if operator == "!=":
                return (left is None) != (right is None)
            return False
        if operator == "=":
            return left == right
        if operator == "!=":
            return left != right
        if not (is_numeric_constant(left) and is_numeric_constant(right)):
            # Fall back to a deterministic total order on reprs for the
            # lexicographic tie-breaking used by φ2-style formulas.
            left, right = repr(left), repr(right)
        if operator == "<=":
            return left <= right
        if operator == "<":
            return left < right
        if operator == ">=":
            return left >= right
        if operator == ">":
            return left > right
        raise EvaluationError(f"unsupported operator {operator!r}")

    # -- numerical term evaluation ----------------------------------------------------------

    def _eval_term_or_constant(
        self, term, env: Environment, domain: Sequence[Constant]
    ):
        if isinstance(term, (NumericalConstant, NumericalVariable, AggregateTerm)):
            return self._eval_term(term, env, domain)
        if is_variable(term):
            if term.name not in env:
                raise EvaluationError(f"unbound variable {term.name!r} in comparison")
            return env[term.name]
        return term

    def _eval_term(
        self, term, env: Environment, domain: Sequence[Constant]
    ) -> Optional[Constant]:
        if isinstance(term, NumericalConstant):
            return term.value
        if isinstance(term, NumericalVariable):
            if term.variable.name not in env:
                raise EvaluationError(
                    f"unbound numerical variable {term.variable.name!r}"
                )
            return env[term.variable.name]
        if isinstance(term, AggregateTerm):
            return self._eval_aggregate_term(term, env, domain)
        raise EvaluationError(f"cannot evaluate numerical term {term!r}")

    def _eval_aggregate_term(
        self, term: AggregateTerm, env: Environment, domain: Sequence[Constant]
    ) -> Optional[Constant]:
        operator = get_operator(term.aggregate)
        inner_domain = self._domain_with_formula_constants(term.formula)
        values = []
        seen_assignments = set()
        for assignment in self._assignments(
            term.bound_variables, term.formula, env, inner_domain
        ):
            key = tuple(sorted(assignment.items(), key=lambda kv: kv[0]))
            if key in seen_assignments:
                continue
            seen_assignments.add(key)
            extended = dict(env)
            extended.update(assignment)
            if not self._eval(term.formula, extended, inner_domain):
                continue
            values.append(
                self._eval_term_or_constant(term.value_term, extended, inner_domain)
            )
        if not values:
            return operator.empty_value
        return operator(values)


# -- helpers -----------------------------------------------------------------------


def _comparable_free_variables(term) -> Set[Variable]:
    if isinstance(term, (NumericalConstant, NumericalVariable, AggregateTerm)):
        return set(term.free_variables())
    if is_variable(term):
        return {term}
    return set()


def _top_level_comparisons(formula: Formula) -> Iterator[Comparison]:
    """Comparisons reachable through conjunctions only (no negation crossed)."""
    if isinstance(formula, Comparison):
        yield formula
    elif isinstance(formula, And):
        for operand in formula.operands:
            yield from _top_level_comparisons(operand)


def _formula_constants(formula: Formula) -> Set[Constant]:
    constants: Set[Constant] = set()
    if isinstance(formula, RelationAtom):
        constants |= {t for t in formula.atom.terms if not is_variable(t)}
    elif isinstance(formula, Comparison):
        for side in (formula.left, formula.right):
            if isinstance(side, NumericalConstant):
                constants.add(side.value)
            elif isinstance(side, AggregateTerm):
                constants |= _formula_constants(side.formula)
            elif not is_variable(side) and not isinstance(side, NumericalVariable):
                constants.add(side)
    elif isinstance(formula, Not):
        constants |= _formula_constants(formula.operand)
    elif isinstance(formula, (And, Or)):
        for operand in formula.operands:
            constants |= _formula_constants(operand)
    elif isinstance(formula, Implies):
        constants |= _formula_constants(formula.antecedent)
        constants |= _formula_constants(formula.consequent)
    elif isinstance(formula, (Exists, ForAll)):
        constants |= _formula_constants(formula.operand)
    return constants


def evaluate_formula(
    instance: DatabaseInstance,
    formula: Formula,
    environment: Optional[Environment] = None,
) -> bool:
    """Convenience wrapper: evaluate ``formula`` on ``instance``."""
    return FormulaEvaluator(instance).evaluate(formula, environment)


def evaluate_term(
    instance: DatabaseInstance,
    term,
    environment: Optional[Environment] = None,
) -> Optional[Fraction]:
    """Convenience wrapper: evaluate a numerical term on ``instance``."""
    return FormulaEvaluator(instance).evaluate_term(term, environment)
