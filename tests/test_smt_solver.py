"""Tests for the DPLL(T) solver: SAT core, theory integration, models."""

import itertools
import random
import time

import pytest

from repro.smt import (
    SAT,
    UNSAT,
    Solver,
    and_,
    bool_var,
    eq,
    ge,
    gt,
    iff,
    implies,
    int_const,
    int_var,
    is_satisfiable,
    le,
    lt,
    ne,
    not_,
    or_,
)
from repro.smt.sat import SAT as SAT_RES, UNKNOWN, UNSAT as UNSAT_RES, SatSolver


def check(*terms):
    s = Solver()
    s.add(*terms)
    return s.check()


class TestPropositional:
    def test_single_var_sat(self):
        assert check(bool_var("a")) is SAT

    def test_contradiction_unsat(self):
        a = bool_var("a")
        assert check(a, not_(a)) is UNSAT

    def test_unit_chain(self):
        a, b, c = (bool_var(n) for n in "abc")
        assert check(a, implies(a, b), implies(b, c), not_(c)) is UNSAT

    def test_disjunction_sat(self):
        a, b = bool_var("a"), bool_var("b")
        assert check(or_(a, b), not_(a)) is SAT

    def test_xor_like(self):
        a, b = bool_var("a"), bool_var("b")
        assert check(or_(a, b), or_(not_(a), not_(b))) is SAT
        assert check(or_(a, b), or_(not_(a), not_(b)), iff(a, b)) is UNSAT

    def test_pigeonhole_2_into_1(self):
        # two pigeons, one hole: p1h1, p2h1, not both
        p1, p2 = bool_var("p1h1"), bool_var("p2h1")
        assert check(p1, p2, or_(not_(p1), not_(p2))) is UNSAT

    def test_model_satisfies(self):
        a, b, c = (bool_var(n) for n in "abc")
        f = and_(or_(a, b), or_(not_(a), c), or_(not_(b), not_(c)))
        s = Solver()
        s.add(f)
        assert s.check() is SAT
        assert s.model().eval(f) is True

    def test_deep_formula(self):
        # chain of equivalences with a final contradiction
        xs = [bool_var(f"x{i}") for i in range(20)]
        chain = [iff(xs[i], xs[i + 1]) for i in range(19)]
        assert check(*chain, xs[0], not_(xs[19])) is UNSAT
        assert check(*chain, xs[0], xs[19]) is SAT


class TestDifferenceLogic:
    def test_simple_order_sat(self):
        x, y = int_var("x"), int_var("y")
        assert check(lt(x, y)) is SAT

    def test_order_cycle_unsat(self):
        x, y, z = int_var("x"), int_var("y"), int_var("z")
        assert check(lt(x, y), lt(y, z), lt(z, x)) is UNSAT

    def test_weak_cycle_sat(self):
        x, y = int_var("x"), int_var("y")
        assert check(le(x, y), le(y, x)) is SAT

    def test_strict_antisymmetry(self):
        x, y = int_var("x"), int_var("y")
        assert check(lt(x, y), lt(y, x)) is UNSAT

    def test_constant_bounds(self):
        x = int_var("x")
        assert check(lt(x, int_const(5)), gt(x, int_const(3))) is SAT
        assert check(lt(x, int_const(4)), gt(x, int_const(3))) is UNSAT  # integers!

    def test_equality(self):
        x, y = int_var("x"), int_var("y")
        assert check(eq(x, y), lt(x, y)) is UNSAT
        assert check(eq(x, y), le(x, y)) is SAT

    def test_disequality(self):
        x, y = int_var("x"), int_var("y")
        assert check(ne(x, y), eq(x, y)) is UNSAT
        assert check(ne(x, y)) is SAT

    def test_diseq_with_bounds(self):
        # x != y, 0 <= x <= 1, 0 <= y <= 1 is SAT (x=0,y=1)
        x, y = int_var("x"), int_var("y")
        zero, one = int_const(0), int_const(1)
        assert check(ne(x, y), ge(x, zero), le(x, one), ge(y, zero), le(y, one)) is SAT
        # forcing x == y too makes it UNSAT
        assert check(ne(x, y), eq(x, y), ge(x, zero)) is UNSAT

    def test_difference_constraint(self):
        x, y = int_var("x"), int_var("y")
        assert check(le(x - y, int_const(3)), ge(x - y, int_const(5))) is UNSAT
        assert check(le(x - y, int_const(3)), ge(x - y, int_const(2))) is SAT

    def test_int_model_values(self):
        x, y, z = int_var("x"), int_var("y"), int_var("z")
        s = Solver()
        s.add(lt(x, y), lt(y, z))
        assert s.check() is SAT
        m = s.model()
        assert m.int_value(x) < m.int_value(y) < m.int_value(z)


class TestMixedBooleanTheory:
    def test_guard_implies_order(self):
        # the Canary shape: boolean guard selects which order constraints apply
        g = bool_var("g")
        a, b = int_var("Oa"), int_var("Ob")
        assert check(implies(g, lt(a, b)), implies(not_(g), lt(b, a))) is SAT
        assert check(g, implies(g, lt(a, b)), lt(b, a)) is UNSAT

    def test_disjunctive_orders(self):
        # Eq. 2 shape: O_s' < O_s  or  O_l < O_s'
        s, l, s2 = int_var("Os"), int_var("Ol"), int_var("Os2")
        phi_ls = and_(lt(s, l), or_(lt(s2, s), lt(l, s2)))
        assert check(phi_ls) is SAT
        # pinning s2 strictly between s and l refutes it
        assert check(phi_ls, lt(s, s2), lt(s2, l)) is UNSAT

    def test_fig2_contradictory_guards(self):
        # theta and not theta on the same path: UNSAT regardless of orders
        theta = bool_var("theta1")
        o3, o6, o13 = int_var("O3"), int_var("O6"), int_var("O13")
        guard = and_(theta, not_(theta), lt(o13, o6), lt(o3, o13))
        assert check(guard) is UNSAT

    def test_theory_blocking_loop(self):
        # SAT core must enumerate boolean models until theory consistent
        p, q = bool_var("p"), bool_var("q")
        x, y, z = int_var("x"), int_var("y"), int_var("z")
        f = and_(
            or_(p, q),
            implies(p, and_(lt(x, y), lt(y, z), lt(z, x))),  # p branch theory-UNSAT
            implies(q, lt(x, y)),
        )
        s = Solver()
        s.add(f)
        assert s.check() is SAT
        assert s.model().eval(q) is True

    def test_all_branches_theory_unsat(self):
        p = bool_var("p")
        x, y = int_var("x"), int_var("y")
        f = and_(implies(p, lt(x, y)), implies(not_(p), lt(y, x)), lt(x, y), lt(y, x))
        assert check(f) is UNSAT


class TestStatistics:
    def test_quick_refutation_counted(self):
        a = bool_var("a")
        s = Solver()
        s.add(a, not_(a))
        assert s.check() is UNSAT
        assert s.statistics["quick_refuted"] == 1

    def test_is_satisfiable_helper(self):
        a = bool_var("a")
        assert is_satisfiable(a)
        assert not is_satisfiable(a, not_(a))


class TestEmptyAndTrivial:
    def test_empty_is_sat(self):
        assert Solver().check() is SAT

    def test_true_is_sat(self):
        from repro.smt import TRUE, FALSE

        assert check(TRUE) is SAT
        assert check(FALSE) is UNSAT


def pigeonhole(holes):
    """PHP(holes+1, holes) clauses — UNSAT, needs real search."""
    pigeons = holes + 1
    var = lambda p, h: p * holes + h + 1
    clauses = [[var(p, h) for h in range(holes)] for p in range(pigeons)]
    for h in range(holes):
        for p1 in range(pigeons):
            for p2 in range(p1 + 1, pigeons):
                clauses.append([-var(p1, h), -var(p2, h)])
    return clauses


def brute_force_sat(num_vars, clauses):
    for bits in itertools.product([False, True], repeat=num_vars):
        if all(any(bits[abs(lit) - 1] == (lit > 0) for lit in c) for c in clauses):
            return True
    return False


def assert_at_root(solver):
    """The invariant every solve() exit must restore: the DPLL(T) loop
    adds theory lemmas between solves, which needs decision level 0."""
    assert solver._trail_lim == []
    assert solver._prop_head <= len(solver._trail)
    for lit in solver._trail:
        assert solver._level[abs(lit) - 1] == 0


class TestUnknownRecovery:
    def test_resolve_after_conflict_budget_unknown(self):
        solver = SatSolver()
        for clause in pigeonhole(4):
            assert solver.add_clause(clause)
        result = solver.solve(max_conflicts=3)
        assert result is UNKNOWN
        assert solver.unknown_reason == "conflicts"
        assert_at_root(solver)
        # the same instance must still decide correctly
        assert solver.solve() is UNSAT_RES

    def test_resolve_after_deadline_unknown(self):
        solver = SatSolver()
        for clause in pigeonhole(4):
            assert solver.add_clause(clause)
        result = solver.solve(deadline=time.monotonic() + 1e-9)
        assert result is UNKNOWN
        assert solver.unknown_reason == "deadline"
        assert_at_root(solver)
        assert solver.solve() is UNSAT_RES

    def test_model_integrity_after_unknown(self):
        # Pigeonhole with an escape hatch for pigeon 0: SAT, but only
        # after search.  Budget-UNKNOWN twice, then the re-solve must
        # produce a model of every clause.
        clauses = pigeonhole(4)
        escape = 21
        clauses[0] = clauses[0] + [escape]
        solver = SatSolver()
        for clause in clauses:
            assert solver.add_clause(clause)
        assert solver.solve(max_conflicts=2) is UNKNOWN
        assert_at_root(solver)
        assert solver.solve(deadline=time.monotonic() + 1e-9) is UNKNOWN
        assert_at_root(solver)
        assert solver.solve() is SAT_RES
        assert solver.model[escape] is True
        for clause in clauses:
            assert any(solver.model[abs(lit)] == (lit > 0) for lit in clause)


class TestDatabaseReduction:
    def test_reduction_keeps_verdict_exact(self):
        rng = random.Random(99)
        for trial in range(20):
            n = rng.randint(8, 12)
            clauses = [
                [rng.choice([1, -1]) * rng.randint(1, n) for _ in range(3)]
                for _ in range(4 * n)
            ]
            expect = brute_force_sat(n, clauses)
            solver = SatSolver()
            if not all(solver.add_clause(list(c)) for c in clauses):
                assert not expect
                continue
            solver._max_learnts = 4  # force reductions early
            result = solver.solve()
            assert (result is SAT_RES) == expect, f"trial {trial}"
        # at least one hard instance must actually have reduced
        solver = SatSolver()
        for clause in pigeonhole(5):
            solver.add_clause(clause)
        solver._max_learnts = 4
        assert solver.solve() is UNSAT_RES
        assert solver.db_reductions >= 1


class TestOneShotPath:
    """The one path a query takes: Eq elimination, one normalization per
    theory atom, a fresh solver per query."""

    def test_eliminate_eq_keeps_eq_free_terms(self):
        from repro.smt.solver import _eliminate_eq

        x, y, a = int_var("x"), int_var("y"), bool_var("a")
        term = or_(and_(lt(x, y), a), not_(le(y, x)))
        assert _eliminate_eq(term) is term

    def test_eliminate_eq_rewrites_nested_eq(self):
        from repro.smt.solver import _eliminate_eq

        x, y, a = int_var("x"), int_var("y"), bool_var("a")
        term = or_(a, not_(eq(x, y)))
        out = _eliminate_eq(term)
        assert out is not term

        def has_eq(t):
            from repro.smt.terms import And, Eq, Not, Or

            if isinstance(t, Eq):
                return True
            if isinstance(t, Not):
                return has_eq(t.arg)
            if isinstance(t, (And, Or)):
                return any(has_eq(a) for a in t.args)
            return False

        assert has_eq(term) and not has_eq(out)
        for extra in (not_(a), and_(not_(a), eq(x, y)), and_(not_(a), lt(x, y))):
            assert check(term, extra) == check(out, extra)

    def test_check_normalizes_each_theory_atom_once(self, monkeypatch):
        import repro.smt.solver as solver_mod

        calls = []
        real = solver_mod.normalize_atom

        def counting(atom):
            calls.append(atom)
            return real(atom)

        monkeypatch.setattr(solver_mod, "normalize_atom", counting)
        xs = [int_var(f"o{i}") for i in range(4)]
        # every pair ordered one way or the other, but no total order
        # fits: the SAT core needs several theory rounds to learn that
        pairs = [or_(lt(a, b), lt(b, a)) for a, b in itertools.combinations(xs, 2)]
        cycle = [lt(xs[0], xs[1]), lt(xs[1], xs[2]), lt(xs[2], xs[3])]
        s = Solver()
        s.add(*pairs, *cycle, or_(lt(xs[3], xs[0]), lt(xs[2], xs[0])))
        assert s.check() == UNSAT
        assert s.statistics["theory_rounds"] >= 2
        assert len(calls) == len(set(calls))

    def test_solve_formula_is_history_free(self):
        from repro.smt import solve_formula

        xs = [int_var(f"h{i}") for i in range(5)]
        target = and_(
            *(or_(lt(a, b), lt(b, a)) for a, b in itertools.combinations(xs, 2)),
            lt(xs[4], xs[0]),
        )
        first = solve_formula(target)
        rng = random.Random(5)
        for _ in range(20):
            a, b, c = rng.sample(xs, 3)
            solve_formula(or_(and_(lt(a, b), lt(b, c)), le(c, a)))
        again = solve_formula(target)
        # (verdict, ints, bools, seconds, reason): all but the time match
        assert first[0] == SAT
        assert (first[:3], first[4]) == (again[:3], again[4])
