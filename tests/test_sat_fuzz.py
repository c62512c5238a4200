"""Seeded differential fuzzing of the CDCL core against brute force.

Random small CNF instances are solved by :class:`repro.smt.sat.SatSolver`
and cross-checked against exhaustive enumeration: verdicts must agree
and SAT models must satisfy every clause.  Re-solving after clauses are
added between solves (how the DPLL(T) loop ships theory lemmas) is
fuzzed the same way.

Seeds are fixed so failures reproduce; the trial counts keep the whole
module comfortably inside the tier-1 time budget.
"""

import itertools
import random

from repro.smt.sat import SAT, UNSAT, SatSolver


def brute_force_sat(num_vars, clauses):
    """Exhaustive satisfiability of a clause list."""
    for bits in itertools.product([False, True], repeat=num_vars):
        if all(any(bits[abs(lit) - 1] == (lit > 0) for lit in c) for c in clauses):
            return True
    return False


def random_clauses(rng, num_vars, num_clauses, max_len=3):
    return [
        [
            rng.choice([1, -1]) * rng.randint(1, num_vars)
            for _ in range(rng.randint(1, max_len))
        ]
        for _ in range(num_clauses)
    ]


def assert_model_satisfies(model, clauses, context):
    for clause in clauses:
        assert any(
            model.get(abs(lit), False) == (lit > 0) for lit in clause
        ), f"{context}: model violates clause {clause}"


class TestDifferentialFuzz:
    def test_verdicts_and_models_match_brute_force(self):
        rng = random.Random(0xC0FFEE)
        checked = 0
        for trial in range(250):
            n = rng.randint(3, 9)
            clauses = random_clauses(rng, n, rng.randint(2, 28))
            solver = SatSolver()
            added_ok = all(solver.add_clause(list(c)) for c in clauses)
            expect = brute_force_sat(n, clauses)
            if not added_ok:
                # add_clause's early UNSAT must never be a false positive
                assert not expect, f"trial {trial}: eager UNSAT on a SAT set"
                continue
            result = solver.solve()
            assert (result is SAT) == expect, f"trial {trial}: {result}"
            if result is SAT:
                assert_model_satisfies(solver.model, clauses, f"trial {trial}")
            checked += 1
        assert checked > 50  # the generator must not degenerate

    def test_resolve_after_added_clauses_matches_brute_force(self):
        rng = random.Random(0xBAD5EED)
        checked = 0
        for trial in range(150):
            n = rng.randint(3, 8)
            clauses = random_clauses(rng, n, rng.randint(2, 14))
            solver = SatSolver()
            if not all(solver.add_clause(list(c)) for c in clauses):
                assert not brute_force_sat(n, clauses)
                continue
            # Several rounds against one instance, each adding clauses
            # after a verdict, as theory lemmas arrive between solves.
            for step in range(4):
                expect = brute_force_sat(n, clauses)
                result = solver.solve()
                assert (result is SAT) == expect, f"trial {trial}.{step}"
                checked += 1
                if result is not SAT:
                    break
                assert_model_satisfies(solver.model, clauses, f"trial {trial}.{step}")
                extra = random_clauses(rng, n, rng.randint(1, 3))
                clauses = clauses + extra
                if not all(solver.add_clause(list(c)) for c in extra):
                    assert not brute_force_sat(n, clauses), f"trial {trial}.{step}"
                    break
        assert checked > 150
