"""Unit tests for SMT internals: CNF encoding, difference logic, cubes."""

import pytest

from repro.smt import SAT, UNSAT, Solver, and_, bool_var, implies, int_var, lt, not_, or_
from repro.smt.cnf import CnfEncoder
from repro.smt.portfolio import cube_solve, pick_split_atoms
from repro.smt.sat import SatSolver, SAT as SAT_RES, UNSAT as UNSAT_RES, UNKNOWN
from repro.smt.theory import (
    DifferenceBound,
    DifferenceLogicSolver,
    ZERO_NAME,
    _normalize,
    negate_bound,
    normalize_atom,
)
from repro.smt.terms import FALSE, TRUE, eq, le


class TestCnfEncoder:
    def test_atom_gets_variable(self):
        enc = CnfEncoder()
        a = bool_var("a")
        v = enc.var_for_atom(a)
        assert enc.atom_of_var[v] is a
        assert enc.var_for_atom(a) == v  # stable

    def test_unit_assertion(self):
        enc = CnfEncoder()
        enc.add_assertion(bool_var("a"))
        assert [c for c in enc.clauses if len(c) == 1]

    def test_conjunction_splits(self):
        enc = CnfEncoder()
        enc.add_assertion(and_(bool_var("a"), bool_var("b")))
        units = [c[0] for c in enc.clauses if len(c) == 1]
        assert len(units) == 2

    def test_disjunction_single_clause(self):
        enc = CnfEncoder()
        enc.add_assertion(or_(bool_var("a"), bool_var("b")))
        # one unit for the gate + defining clauses
        assert enc.num_vars >= 3

    def test_false_assertion_empty_clause(self):
        enc = CnfEncoder()
        enc.add_assertion(FALSE)
        assert [] in enc.clauses

    def test_theory_atoms_identified(self):
        enc = CnfEncoder()
        enc.add_assertion(and_(bool_var("a"), lt(int_var("x"), int_var("y"))))
        theory = enc.theory_atoms()
        assert len(theory) == 1

    def test_gate_sharing(self):
        enc = CnfEncoder()
        d = or_(bool_var("a"), bool_var("b"))
        enc.add_assertion(or_(d, bool_var("c")))
        before = enc.num_vars
        enc.add_assertion(or_(d, bool_var("e")))
        # the shared gate for d is reused
        assert enc.num_vars == before + 2  # only e and the new or-gate


class TestSatSolverDirect:
    def test_empty_instance_sat(self):
        assert SatSolver().solve() is SAT_RES

    def test_unit_conflict(self):
        s = SatSolver()
        assert s.add_clause([1])
        assert not s.add_clause([-1])
        assert s.solve() is UNSAT_RES

    def test_three_sat_instance(self):
        s = SatSolver()
        for clause in ([1, 2, 3], [-1, -2], [-2, -3], [-1, -3], [2]):
            s.add_clause(clause)
        assert s.solve() is SAT_RES
        assert s.model[2] is True
        assert s.model[1] is False and s.model[3] is False

    def test_unsat_core_instance(self):
        s = SatSolver()
        for clause in ([1, 2], [1, -2], [-1, 2], [-1, -2]):
            s.add_clause(clause)
        assert s.solve() is UNSAT_RES

    def test_incremental_clause_addition(self):
        s = SatSolver()
        s.add_clause([1, 2])
        assert s.solve() is SAT_RES
        s.add_clause([-1])
        s.add_clause([-2])
        assert s.solve() is UNSAT_RES

    def test_tautology_ignored(self):
        s = SatSolver()
        assert s.add_clause([1, -1])
        assert s.solve() is SAT_RES

    def test_conflict_budget(self):
        # A hard-ish pigeonhole: 4 pigeons, 3 holes.
        s = SatSolver()
        def var(p, h):
            return p * 3 + h + 1
        for p in range(4):
            s.add_clause([var(p, h) for h in range(3)])
        for h in range(3):
            for p1 in range(4):
                for p2 in range(p1 + 1, 4):
                    s.add_clause([-var(p1, h), -var(p2, h)])
        assert s.solve(max_conflicts=1) in (UNKNOWN, UNSAT_RES)
        assert s.solve() is UNSAT_RES


class TestDifferenceLogicUnit:
    def test_normalize_le(self):
        x, y = int_var("x"), int_var("y")
        [b] = normalize_atom(le(x, y))
        assert b == DifferenceBound("x", "y", 0)

    def test_normalize_lt_constant(self):
        x = int_var("x")
        [b] = normalize_atom(lt(x, 5))
        assert b == DifferenceBound("x", ZERO_NAME, 4)

    def test_normalize_eq_two_bounds(self):
        x, y = int_var("x"), int_var("y")
        bounds = normalize_atom(eq(x, y))
        assert len(bounds) == 2

    def test_normalize_difference(self):
        x, y = int_var("x"), int_var("y")
        [b] = normalize_atom(le(x - y, 3))
        assert b == DifferenceBound("x", "y", 3)

    def test_normalize_rejects_nonunit(self):
        x = int_var("x")
        with pytest.raises(ValueError):
            normalize_atom(le(x + x, 3))

    def test_normalize_boolean_atom_is_none(self):
        assert normalize_atom(bool_var("a")) is None

    def test_normalize_memoized_per_interned_atom(self):
        x, y = int_var("x"), int_var("y")
        first = normalize_atom(le(x - y, 7))
        # terms are interned, so rebuilding the atom hits the memo
        assert normalize_atom(le(x - y, 7)) is first
        assert isinstance(first, tuple)

    def test_memoized_bounds_match_fresh_normalization(self):
        x, y, z = int_var("x"), int_var("y"), int_var("z")
        atoms = [le(x, y), lt(y, z), eq(x, z), le(x - z, -2), lt(z, 3), bool_var("b")]
        for atom in atoms:
            normalize_atom(atom)  # warm the memo
            assert normalize_atom(atom) == _normalize(atom)

    def test_memoized_rejection_raises_every_time(self):
        x = int_var("x")
        for _ in range(2):
            with pytest.raises(ValueError):
                normalize_atom(le(x + x, 9))

    def test_negate_bound(self):
        b = DifferenceBound("x", "y", 3)
        nb = negate_bound(b)
        assert nb == DifferenceBound("y", "x", -4)
        assert negate_bound(nb) == b

    def test_push_pop(self):
        solver = DifferenceLogicSolver()
        solver.assert_bound(DifferenceBound("x", "y", -1), "a")
        mark = solver.push()
        solver.assert_bound(DifferenceBound("y", "x", -1), "b")
        assert solver.check() is not None
        solver.pop(mark)
        assert solver.check() is None

    def test_core_tags(self):
        solver = DifferenceLogicSolver()
        solver.assert_bound(DifferenceBound("x", "y", -1), "e1")
        solver.assert_bound(DifferenceBound("y", "z", -1), "e2")
        solver.assert_bound(DifferenceBound("z", "x", -1), "e3")
        solver.assert_bound(DifferenceBound("x", "w", 5), "unrelated")
        core = solver.check()
        assert core is not None
        assert set(core) == {"e1", "e2", "e3"}

    def test_model_respects_bounds(self):
        solver = DifferenceLogicSolver()
        solver.assert_bound(DifferenceBound("x", "y", -2), "a")  # x <= y - 2
        assert solver.check() is None
        model = solver.model()
        assert model["x"] - model["y"] <= -2


class TestCubeAndConquer:
    def test_pick_split_atoms_frequency(self):
        a, b = bool_var("a"), bool_var("b")
        f = and_(or_(a, b), or_(a, not_(b)), or_(a, bool_var("c")))
        atoms = pick_split_atoms(f, k=1)
        assert atoms == [a]

    def test_cube_solve_sat(self):
        a = bool_var("a")
        assert cube_solve(a) == SAT

    def test_cube_solve_unsat(self):
        a = bool_var("a")
        x, y = int_var("x"), int_var("y")
        f = and_(or_(a, not_(a)), lt(x, y), lt(y, x))
        assert cube_solve(f) == UNSAT

    def test_cube_solve_no_atoms(self):
        assert cube_solve(TRUE) == SAT

    def test_cube_agrees_with_monolithic(self):
        g1, g2, g3 = (bool_var(f"g{i}") for i in range(3))
        x, y = int_var("x"), int_var("y")
        f = and_(
            or_(g1, g2, g3),
            implies(g1, lt(x, y)),
            implies(g2, lt(y, x)),
            implies(g3, and_(lt(x, y), lt(y, x))),
        )
        solver = Solver()
        solver.add(f)
        assert cube_solve(f) == solver.check()
