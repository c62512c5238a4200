"""Coverage for the quick semi-decision filter and the Tseitin encoder.

``quick_unsat`` / ``GuardPrefix`` are *sound but incomplete* refuters:
``True``/unsat must imply real unsatisfiability (checked here against the
full solver), ``False`` promises nothing.  The CNF encoder is checked by
round-trip: encoding a term, solving the CNF, and evaluating the original
term under the decoded model.
"""

import random

from repro.smt.cnf import CnfEncoder
from repro.smt.sat import SAT, UNSAT, SatSolver
from repro.smt.simplify import GuardPrefix, quick_unsat, simplify_conjunction
from repro.smt.solver import Model, Solver
from repro.smt.terms import (
    FALSE,
    TRUE,
    and_,
    bool_var,
    eq,
    int_var,
    le,
    lt,
    not_,
    or_,
)


def _random_guard(rng, bools, ints):
    def literal():
        roll = rng.random()
        if roll < 0.4:
            b = rng.choice(bools)
            return b if rng.random() < 0.5 else not_(b)
        x, y = rng.sample(ints, 2)
        atom = lt(x, y) if roll < 0.8 else le(x, y)
        return atom if rng.random() < 0.7 else not_(atom)

    return and_(*(literal() for _ in range(rng.randint(1, 6))))


class TestQuickUnsat:
    def test_constants(self):
        assert quick_unsat(FALSE)
        assert not quick_unsat(TRUE)

    def test_complementary_boolean_literals(self):
        a = bool_var("a")
        assert quick_unsat(and_(a, not_(a), bool_var("b"))) or and_(
            a, not_(a)
        ) is FALSE  # smart constructors may cancel first

    def test_negative_cycle_detected(self):
        x, y, z = int_var("x"), int_var("y"), int_var("z")
        assert quick_unsat(and_(lt(x, y), lt(y, z), lt(z, x)))

    def test_satisfiable_chain_not_refuted(self):
        x, y, z = int_var("x"), int_var("y"), int_var("z")
        assert not quick_unsat(and_(lt(x, y), lt(y, z), le(x, z)))

    def test_soundness_against_full_solver(self):
        """quick_unsat(f) == True must imply the solver says UNSAT."""
        rng = random.Random(31337)
        bools = [bool_var(f"g{i}") for i in range(3)]
        ints = [int_var(f"o{i}") for i in range(4)]
        refuted = 0
        for _ in range(200):
            guard = _random_guard(rng, bools, ints)
            if quick_unsat(guard):
                refuted += 1
                solver = Solver()
                solver.add(guard)
                assert solver.check() is UNSAT, f"unsound quick refutation: {guard}"
        assert refuted > 5  # the generator must exercise the refuter

    def test_simplify_conjunction(self):
        x, y = int_var("x"), int_var("y")
        contradiction = and_(lt(x, y), lt(y, x))
        assert simplify_conjunction(contradiction) is FALSE
        fine = and_(lt(x, y), bool_var("a"))
        assert simplify_conjunction(fine) is fine


class TestGuardPrefix:
    def test_incremental_matches_batch(self):
        rng = random.Random(4242)
        bools = [bool_var(f"g{i}") for i in range(3)]
        ints = [int_var(f"o{i}") for i in range(4)]
        for _ in range(150):
            guards = [_random_guard(rng, bools, ints) for _ in range(rng.randint(1, 5))]
            prefix = GuardPrefix()
            incremental = False
            for g in guards:
                incremental = prefix.push(g) or incremental
            # the prefix refutes only what quick_unsat would refute given
            # the same accumulated literals — and must stay sound
            if incremental or prefix.unsat:
                solver = Solver()
                solver.add(*guards)
                assert solver.check() is UNSAT

    def test_pop_restores_satisfiable_state(self):
        x, y = int_var("x"), int_var("y")
        prefix = GuardPrefix()
        assert not prefix.push(lt(x, y))
        assert prefix.push(lt(y, x))  # now refuted
        assert prefix.unsat
        prefix.pop()
        assert not prefix.unsat
        assert not prefix.push(le(x, y))  # compatible again
        assert not prefix.unsat

    def test_fingerprint_cache_tracks_mutations(self):
        a, b = bool_var("a"), bool_var("b")
        prefix = GuardPrefix()
        prefix.push(a)
        fp1 = prefix.fingerprint()
        assert prefix.fingerprint() is fp1  # memoized between mutations
        prefix.push(b)
        fp2 = prefix.fingerprint()
        assert fp2 == (a, b)
        prefix.push(a)  # duplicate literal: no new entries
        assert prefix.fingerprint() is fp2
        prefix.pop()
        prefix.pop()
        assert prefix.fingerprint() == fp1
        prefix.pop()
        assert prefix.fingerprint() == ()


class TestCnfRoundTrip:
    def _decode(self, encoder, sat_model):
        bools = {
            atom: sat_model[v]
            for v, atom in encoder.atom_of_var.items()
            if v in sat_model
        }
        return Model(bools, {})

    def test_boolean_round_trip(self):
        """encode -> solve -> decoded model satisfies the original term."""
        rng = random.Random(777)
        names = [bool_var(f"v{i}") for i in range(5)]

        def random_term(depth):
            if depth == 0 or rng.random() < 0.3:
                v = rng.choice(names)
                return v if rng.random() < 0.5 else not_(v)
            op = and_ if rng.random() < 0.5 else or_
            return op(*(random_term(depth - 1) for _ in range(rng.randint(2, 3))))

        solved = 0
        for trial in range(120):
            term = random_term(3)
            if term is TRUE or term is FALSE:
                continue
            encoder = CnfEncoder()
            encoder.add_assertion(term)
            solver = SatSolver()
            ok = all(solver.add_clause(list(c)) for c in encoder.clauses)
            if ok and solver.solve() is SAT:
                model = self._decode(encoder, solver.model)
                assert model.eval(term) is True, f"trial {trial}: {term}"
                solved += 1
        assert solved > 40

    def test_unsat_term_has_unsat_encoding(self):
        a, b = bool_var("a"), bool_var("b")
        term = and_(or_(a, b), not_(a), not_(b))
        if term is FALSE:
            return  # simplified away structurally
        encoder = CnfEncoder()
        encoder.add_assertion(term)
        solver = SatSolver()
        ok = all(solver.add_clause(list(c)) for c in encoder.clauses)
        assert not ok or solver.solve() is UNSAT

    def test_gate_cache_shares_subterms(self):
        a, b = bool_var("a"), bool_var("b")
        disj = or_(a, b)
        encoder = CnfEncoder()
        encoder.add_assertion(disj)
        before = len(encoder.clauses)
        encoder.add_assertion(disj)
        # only the top-level unit is asserted again: the gate is reused
        assert len(encoder.clauses) == before + 1
        assert encoder.clauses[-1] == encoder.clauses[before - 1]

    def test_eq_atom_maps_to_theory(self):
        x, y = int_var("x"), int_var("y")
        encoder = CnfEncoder()
        encoder.add_assertion(and_(eq(x, y), bool_var("a")))
        theory = encoder.theory_atoms()
        assert len(theory) == 1
        (atom,) = theory.values()
        assert atom == eq(x, y)
