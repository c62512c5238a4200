"""Realizability engine: term pickling, one fresh solve per query,
solver budgets reaching the solve, and serial vs. detection-pool
equivalence over the regression corpus."""

import pickle
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro import AnalysisConfig, Canary
from repro.detection import PathQuery, RealizabilityChecker, ValueFlowPath
from repro.detection import realizability
from repro.frontend import parse_program
from repro.lowering import lower_program
from repro.smt import (
    FALSE,
    SAT,
    TRUE,
    Solver,
    and_,
    bool_var,
    eq,
    implies,
    int_const,
    int_var,
    le,
    lt,
    not_,
    or_,
    solve_formula,
    structural_key,
)

from repro.vfg import ObjNode, build_vfg

from programs import FIG2_BUGGY, SIMPLE_UAF
from test_corpus import CORPUS_FILES, _parse_directives


def bundle_for(src):
    return build_vfg(lower_program(parse_program(src)))


def empty_query(bundle):
    alloc = next(
        inst
        for func in bundle.module.functions.values()
        for inst in func.body
        if hasattr(inst, "obj")
    )
    return PathQuery(
        path=ValueFlowPath(origin=ObjNode(alloc.obj)),
        source_inst=None,
        sink_inst=None,
    )


def interference_query(bundle):
    edge = bundle.vfg.interference_edges()[0]
    return PathQuery(
        path=ValueFlowPath(origin=edge.src, edges=[edge]),
        source_inst=None,
        sink_inst=None,
    )


class TestTermPickling:
    def test_round_trip_is_identity(self):
        x, y = int_var("x"), int_var("y")
        theta = bool_var("theta")
        samples = [
            TRUE,
            FALSE,
            theta,
            not_(theta),
            x,
            int_const(7),
            x + 3,
            x - y,
            lt(x, y),
            le(x, int_const(5)),
            eq(x, y),
            and_(theta, lt(x, y)),
            or_(theta, not_(bool_var("phi"))),
        ]
        for term in samples:
            assert pickle.loads(pickle.dumps(term)) is term

    def test_composite_formula_round_trip(self):
        g1, g2 = bool_var("g1"), bool_var("g2")
        x, y, z = int_var("x"), int_var("y"), int_var("z")
        formula = and_(
            or_(g1, g2),
            implies(g1, and_(lt(x, y), lt(y, z))),
            implies(g2, le(z, x)),
        )
        clone = pickle.loads(pickle.dumps(formula))
        assert clone is formula
        assert structural_key(clone) == structural_key(formula)

    def test_structural_key_distinguishes_sorts(self):
        assert structural_key(bool_var("x")) != structural_key(int_var("x"))

    def test_structural_key_distinguishes_structure(self):
        x, y = int_var("x"), int_var("y")
        assert structural_key(lt(x, y)) != structural_key(lt(y, x))
        assert structural_key(le(x, y)) != structural_key(lt(x, y))

    def test_formula_solves_in_worker_process(self):
        x, y = int_var("x"), int_var("y")
        formula = and_(lt(x, y), lt(y, x + 3))
        local = solve_formula(formula)
        with ProcessPoolExecutor(max_workers=1) as pool:
            remote = pool.submit(solve_formula, formula).result()
        assert local[0] == remote[0] == SAT
        # The worker's model satisfies the formula in the parent too.
        assert remote[1]["x"] < remote[1]["y"]


class TestFreshSolvePerQuery:
    def test_repeat_query_solves_again(self):
        bundle = bundle_for(SIMPLE_UAF)
        checker = RealizabilityChecker(bundle)
        query = empty_query(bundle)
        first = checker.check(query)
        second = checker.check(query)
        assert first.realizable and second.realizable
        assert first.witness_order == second.witness_order
        assert checker.statistics["queries"] == 2
        assert checker.statistics["sat"] == 2

    def test_checkers_share_no_verdicts(self):
        bundle = bundle_for(SIMPLE_UAF)
        first = RealizabilityChecker(bundle)
        second = RealizabilityChecker(bundle)
        query = empty_query(bundle)
        first.check(query)
        second.check(query)
        assert first.statistics["queries"] == second.statistics["queries"] == 1

    def test_starved_checker_leaves_no_verdict_behind(self):
        bundle = bundle_for(FIG2_BUGGY)
        query = interference_query(bundle)
        starved = RealizabilityChecker(bundle, solver_timeout=0.0).check(query)
        assert not starved.realizable
        assert starved.unknown_reason == "deadline"
        assert RealizabilityChecker(bundle).check(query).realizable


def _recording_solve(monkeypatch):
    """Patch the realizability layer's solve entry point to record the
    budgets each query is given."""
    seen = []
    real = realizability.solve_formula

    def recording(formula, max_conflicts=None, timeout=None, recorder=None):
        seen.append((max_conflicts, timeout))
        return real(formula, max_conflicts=max_conflicts, timeout=timeout, recorder=recorder)

    monkeypatch.setattr(realizability, "solve_formula", recording)
    return seen


class TestPlainSolveEngine:
    def test_conflict_budget_reaches_solver(self, monkeypatch):
        seen = _recording_solve(monkeypatch)
        bundle = bundle_for(FIG2_BUGGY)
        checker = RealizabilityChecker(bundle, solver_max_conflicts=777)
        assert checker.check(interference_query(bundle)).realizable
        assert seen and all(budget == 777 for budget, _timeout in seen)

    def test_timeout_reaches_solver(self, monkeypatch):
        seen = _recording_solve(monkeypatch)
        bundle = bundle_for(FIG2_BUGGY)
        checker = RealizabilityChecker(bundle, solver_timeout=30.0)
        checker.check(interference_query(bundle))
        assert seen and all(timeout == 30.0 for _budget, timeout in seen)

    def test_config_budget_reaches_solver(self, monkeypatch):
        seen = _recording_solve(monkeypatch)
        config = AnalysisConfig(use_cache=False, solver_max_conflicts=4321)
        report = Canary(config).analyze_source(SIMPLE_UAF)
        assert len(seen) == report.solver_statistics["queries"] > 0
        assert all(budget == 4321 for budget, _timeout in seen)

    def test_sat_returns_witness(self):
        bundle = bundle_for(FIG2_BUGGY)
        result = RealizabilityChecker(bundle).check(interference_query(bundle))
        assert result.verdict == SAT
        assert result.witness_order
        assert all(k.startswith("O") for k in result.witness_order)
        solver = Solver()
        solver.add(result.formula)
        assert solver.check() == SAT

    def test_bug_report_has_witness(self):
        report = Canary(AnalysisConfig()).analyze_source(SIMPLE_UAF)
        assert report.num_reports >= 1
        assert all(b.witness_order for b in report.bugs)


def report_list(report):
    """The report list in order, with everything a report carries."""
    return [
        (b.key, b.path, b.witness_order, b.witness_env, b.inter_thread)
        for b in report.bugs
    ]


def suppressed_list(report):
    return [(s.kind, s.source.label, s.sink.label, s.reason) for s in report.suppressed]


class TestSerialParallelEquivalence:
    @pytest.mark.parametrize(
        "path", CORPUS_FILES, ids=[p.stem for p in CORPUS_FILES]
    )
    @pytest.mark.parametrize("workers", [2, 8])
    def test_corpus_program_same_keys(self, path, workers):
        text = path.read_text()
        expects, checkers, overrides = _parse_directives(text)
        overrides.pop("detect_workers", None)
        base = dict(checkers=checkers, use_cache=False, **overrides)
        serial = Canary(AnalysisConfig(**base)).analyze_source(
            text, filename=path.name
        )
        pooled = Canary(
            AnalysisConfig(detect_workers=workers, **base)
        ).analyze_source(text, filename=path.name)
        assert report_list(pooled) == report_list(serial), path.name
        assert pooled.search_statistics == serial.search_statistics
        assert suppressed_list(pooled) == suppressed_list(serial)


class TestDriverSurface:
    def test_parse_time_recorded(self):
        report = Canary(AnalysisConfig()).analyze_source(SIMPLE_UAF)
        assert report.timings["parse"] >= 0.0
        assert report.timings["solving"] >= 0.0

    def test_solver_statistics_count_one_solve_per_query(self):
        report = Canary(AnalysisConfig()).analyze_source(SIMPLE_UAF)
        s = report.solver_statistics
        assert "cache_hits" not in s and "cache_misses" not in s
        assert s["sat"] + s["unsat"] + s["unknown"] == s["queries"] > 0
        assert not hasattr(report, "cache_hit_rate")

    def test_checker_statistics_surfaced(self):
        report = Canary(AnalysisConfig()).analyze_source(SIMPLE_UAF)
        assert "use-after-free" in report.checker_statistics
        assert report.checker_statistics["use-after-free"]["reports"] == 1

    def test_describe_statistics(self):
        report = Canary(AnalysisConfig()).analyze_source(SIMPLE_UAF)
        text = report.describe_statistics()
        assert "queries" in text and "timings" in text
