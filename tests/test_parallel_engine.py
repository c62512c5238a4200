"""Realizability engine: term pickling, the verdict cache,
cube-and-conquer budget/witness fixes, and serial vs. detection-pool
equivalence over the regression corpus."""

import pickle
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro import AnalysisConfig, Canary
from repro.detection import (
    PathQuery,
    RealizabilityChecker,
    ValueFlowPath,
    VerdictCache,
)
from repro.frontend import parse_program
from repro.lowering import lower_program
from repro.smt import (
    FALSE,
    SAT,
    TRUE,
    UNSAT,
    Solver,
    and_,
    bool_var,
    cube_solve,
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
from repro.smt import portfolio
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


class TestVerdictCache:
    def test_repeat_query_hits(self):
        bundle = bundle_for(SIMPLE_UAF)
        cache = VerdictCache()
        checker = RealizabilityChecker(bundle, cache=cache)
        query = empty_query(bundle)
        first = checker.check(query)
        second = checker.check(query)
        assert first.realizable and second.realizable
        assert first.witness_order == second.witness_order
        assert checker.statistics["cache_misses"] == 1
        assert checker.statistics["cache_hits"] == 1
        assert cache.hits == 1 and cache.misses == 1
        assert 0.0 < cache.hit_rate < 1.0
        assert len(cache) == 1

    def test_cache_shared_across_checkers(self):
        bundle = bundle_for(SIMPLE_UAF)
        cache = VerdictCache()
        first = RealizabilityChecker(bundle, cache=cache)
        second = RealizabilityChecker(bundle, cache=cache)
        query = empty_query(bundle)
        first.check(query)
        second.check(query)
        assert second.statistics["cache_hits"] == 1
        assert cache.hits == 1


class TestCubeAndConquer:
    def test_conflict_budget_plumbed_to_cubes(self, monkeypatch):
        seen = []

        class Recording(Solver):
            def __init__(self, *args, **kwargs):
                seen.append(kwargs.get("max_conflicts"))
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(portfolio, "Solver", Recording)
        g1, g2 = bool_var("g1"), bool_var("g2")
        x, y = int_var("x"), int_var("y")
        formula = and_(or_(g1, g2), implies(g1, lt(x, y)), implies(g2, lt(y, x)))
        assert cube_solve(formula, max_conflicts=1234) == SAT
        assert seen and all(budget == 1234 for budget in seen)

    def test_checker_budget_reaches_cube_solver(self, monkeypatch):
        seen = []

        class Recording(Solver):
            def __init__(self, *args, **kwargs):
                seen.append(kwargs.get("max_conflicts"))
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(portfolio, "Solver", Recording)
        bundle = bundle_for(FIG2_BUGGY)
        checker = RealizabilityChecker(
            bundle, use_cube_and_conquer=True, solver_max_conflicts=777
        )
        result = checker.check(interference_query(bundle))
        assert result.realizable
        assert seen and all(budget == 777 for budget in seen)

    def test_cube_sat_returns_witness(self):
        # Regression: cube mode used to discard the winning cube's model,
        # yielding reports with empty witness_order/witness_env.
        bundle = bundle_for(FIG2_BUGGY)
        cube = RealizabilityChecker(bundle, use_cube_and_conquer=True)
        plain = RealizabilityChecker(bundle)
        query = interference_query(bundle)
        cube_result = cube.check(query)
        plain_result = plain.check(query)
        assert cube_result.verdict == plain_result.verdict == SAT
        assert cube_result.witness_order
        assert all(k.startswith("O") for k in cube_result.witness_order)
        # The witness must satisfy the formula, like the monolithic path's.
        solver = Solver()
        solver.add(cube_result.formula)
        assert solver.check() == SAT

    def test_cube_bug_report_has_witness(self):
        config = AnalysisConfig(cube_and_conquer=True)
        report = Canary(config).analyze_source(SIMPLE_UAF)
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

    def test_solver_statistics_include_cache(self):
        report = Canary(AnalysisConfig()).analyze_source(SIMPLE_UAF)
        s = report.solver_statistics
        assert "cache_hits" in s and "cache_misses" in s
        assert s["cache_hits"] + s["cache_misses"] == s["queries"]
        assert 0.0 <= report.cache_hit_rate <= 1.0

    def test_checker_statistics_surfaced(self):
        report = Canary(AnalysisConfig()).analyze_source(SIMPLE_UAF)
        assert "use-after-free" in report.checker_statistics
        assert report.checker_statistics["use-after-free"]["reports"] == 1

    def test_describe_statistics(self):
        report = Canary(AnalysisConfig()).analyze_source(SIMPLE_UAF)
        text = report.describe_statistics()
        assert "queries" in text and "cache" in text and "timings" in text
