import json
import math
import random

import pytest

from matfuse.corpus import available, load_graph
from matfuse.cost import AnalyticCost, EmpiricalTimer, MachineModel, cached
from matfuse.fuse import (
    Limits, canonical_key, enumerate_space, format_notation, fusion_legal,
    initial_forest, parse_notation,
)
from matfuse.graph import build_dataflow, infer_types
from matfuse.lang import parse_kernel
from matfuse.runtime import Toolchain
from matfuse.search import (
    SearchConfig, crossover, max_fuse, mutate, run_strategy,
    thread_sweep, tournament_select, _edit, _fusion_moves,
)


def analytic(graph, cores=8, M=1000, N=1000):
    extents = tuple(
        (name, {"M": M, "N": N}.get(name, M)) for name in graph.extent_names
    )
    return cached(AnalyticCost(graph, MachineModel(core_count=cores,
                                                   extents=extents)))


class TestMaxFuse:
    def test_batax_worked_example(self, batax):
        org = max_fuse(batax, core_count=8)
        assert format_notation(org) == \
            "{_{p(i)}{_i{_j 1}{_j 2}}}{_{p(j)}{_j 3}}"
        # thread counts start at the core count
        assert org.threads == (8, 8)

    def test_single_op_partitioned_on_its_axis(self):
        g = infer_types(build_dataflow(parse_kernel(
            "DOT in: a : vector(column), b : vector(column) out: s : scalar "
            "{ s = a' * b }")))
        org = max_fuse(g, 4)
        assert format_notation(org) == "{_{p(k)}{_k 1}}"

    def test_scalar_kernel_stays_bare(self):
        g = infer_types(build_dataflow(parse_kernel(
            "T in: a : scalar out: b : scalar { b = a }")))
        org = max_fuse(g, 4)
        assert format_notation(org) == "1"
        assert org.threads == ()

    @pytest.mark.parametrize("name", available())
    def test_no_single_fusion_step_remains(self, name):
        g = load_graph(name)
        for cores in (2, 8, 24):
            org = max_fuse(g, cores)
            assert fusion_legal(org, g) is None
            for move in _fusion_moves(org):
                cand = _edit(org, g, *move)
                assert fusion_legal(cand, g) is not None, \
                    f"{name}: fusion step still legal: {format_notation(cand)}"


class TestMutate:
    def test_remove_partition_reaches_documented_neighbor(self, batax):
        cfg = SearchConfig(core_count=8)
        mf = max_fuse(batax, 8)
        want = "{_{p(i)}{_i{_j 1}{_j 2}}}{_j 3}"
        seen = set()
        for seed in range(400):
            seen.add(format_notation(mutate(mf, batax, random.Random(seed),
                                            cfg)))
        assert want in seen

    def test_add_fusion_on_max_fuse_is_a_no_op(self, batax):
        mf = max_fuse(batax, 8)
        for move in _fusion_moves(mf):
            cand = _edit(mf, batax, *move)
            assert fusion_legal(cand, batax) is not None
        # sampled through mutate, the failed step leaves the organism as-is
        cfg = SearchConfig(core_count=8)
        unchanged = 0
        for seed in range(200):
            rng = random.Random(seed)
            if mutate(mf, batax, rng, cfg) == mf:
                unchanged += 1
        assert unchanged > 0

    def test_mutations_preserve_legality(self, all_graphs):
        cfg = SearchConfig(core_count=8)
        for name, g in all_graphs.items():
            rng = random.Random(hash(name) & 0xFFFF)
            org = initial_forest(g)
            for _ in range(300):
                org = mutate(org, g, rng, cfg)
                assert fusion_legal(org, g) is None, name

    def test_thread_mutation_clamps(self, batax):
        cfg = SearchConfig(core_count=4)
        org = max_fuse(batax, 4)
        rng = random.Random(0)
        for _ in range(200):
            org = mutate(org, batax, rng, cfg)
            assert all(2 <= t <= 4 or t == 4 for t in org.threads)

    def test_const_mode_never_touches_threads(self, batax):
        cfg = SearchConfig(core_count=8, thread_mode="const")
        org = max_fuse(batax, 8)
        rng = random.Random(1)
        for _ in range(200):
            org = mutate(org, batax, rng, cfg)
            assert all(t == 8 for t in org.threads)


class TestCrossover:
    def test_identical_parents_reproduce(self, batax):
        mf = max_fuse(batax, 8)
        for seed in range(50):
            assert crossover(mf, mf, batax, random.Random(seed)) == mf

    def test_children_always_legal(self, all_graphs):
        cfg = SearchConfig(core_count=8)
        for name, g in all_graphs.items():
            rng = random.Random(hash(name) & 0xFFF)
            from matfuse.search import random_organism

            for _ in range(120):
                a = random_organism(g, rng, cfg)
                b = random_organism(g, rng, cfg)
                child = crossover(a, b, g, rng)
                assert fusion_legal(child, g) is None, name

    def test_worked_recombination_reachable(self, batax):
        pa = parse_notation("{_{p(i)}{_i{_j 1}{_j 2}}}{_j 3}", batax,
                            threads=8)
        pb = parse_notation(
            "{_{p(i)}{_i{_j 1}}}{_{p(i)}{_i{_j 2}}}{_{p(j)}{_j 3}}",
            batax, threads=8)
        want = "{_{p(i)}{_i{_j 1}}{_i{_j 2}}}{_{p(j)}{_j 3}}"
        seen = {format_notation(crossover(pa, pb, batax, random.Random(s)))
                for s in range(400)}
        assert want in seen


class TestTournament:
    def population(self, graph, n=20):
        # distinct fitness values, rank r has fitness r
        orgs = []
        rng = random.Random(0)
        from matfuse.search import random_organism

        cfg = SearchConfig(core_count=8)
        seen = set()
        while len(orgs) < n:
            org = random_organism(graph, rng, cfg)
            key = canonical_key(org)
            if key not in seen:
                seen.add(key)
                orgs.append(org)
        return [(org, float(rank + 1)) for rank, org in enumerate(orgs)]

    def test_k_equals_population_returns_global_best(self, batax):
        pop = self.population(batax)
        rng = random.Random(7)
        for _ in range(20):
            assert tournament_select(pop, len(pop), rng) is pop[0][0]

    def test_k_one_is_uniform(self, batax):
        pop = self.population(batax, n=5)
        rng = random.Random(11)
        counts = [0] * 5
        draws = 20_000
        for _ in range(draws):
            picked = tournament_select(pop, 1, rng)
            counts[[o for o, _ in pop].index(picked)] += 1
        for c in counts:
            assert abs(c / draws - 0.2) < 0.02

    def test_k2_matches_exact_distribution(self, batax):
        # drawing 2 of 20 without replacement: P(rank r wins) = (20-r)/C(20,2)
        pop = self.population(batax)
        n = len(pop)
        pairs = n * (n - 1) / 2
        rng = random.Random(13)
        draws = 10_000
        counts = [0] * n
        for _ in range(draws):
            picked = tournament_select(pop, 2, rng)
            counts[[o for o, _ in pop].index(picked)] += 1
        for rank0, count in enumerate(counts):
            p = (n - (rank0 + 1)) / pairs
            sigma = math.sqrt(max(p * (1 - p) / draws, 1e-12))
            assert abs(count / draws - p) < 5 * sigma + 1e-3


class TestStrategies:
    def test_mfga_never_worse_than_its_seed(self, batax):
        fit = analytic(batax)
        seed_cost = fit(max_fuse(batax, 8)).total
        res = run_strategy("mfga", batax,
                           SearchConfig(core_count=8, seed=5, generations=10),
                           fit)
        assert res.best_fitness <= seed_cost

    def test_deterministic_logs(self, batax):
        logs = []
        for _ in range(2):
            res = run_strategy(
                "mfga", batax,
                SearchConfig(core_count=8, seed=21, generations=8),
                analytic(batax))
            logs.append(json.dumps([e.as_dict() for e in res.log]))
        assert logs[0] == logs[1]

    def test_best_is_min_over_log(self, batax):
        res = run_strategy("mfga", batax,
                           SearchConfig(core_count=8, seed=2, generations=8),
                           analytic(batax))
        assert res.best_fitness == min(e.fitness for e in res.log)

    def test_incumbent_best_is_monotone(self, batax):
        res = run_strategy("ga", batax,
                           SearchConfig(core_count=8, seed=4, generations=12),
                           analytic(batax))
        best = math.inf
        series = []
        for entry in res.log:
            best = min(best, entry.fitness)
            series.append(best)
        assert series == sorted(series, reverse=True)

    @pytest.mark.parametrize("budget", [None, 7])
    def test_random_walk_asks_for_its_budget(self, corpus_graphs, budget):
        # the start organism counts toward the budget either way
        res = run_strategy("random", corpus_graphs["gemver"],
                           SearchConfig(population=4, generations=3, seed=0,
                                        budget=budget),
                           analytic(corpus_graphs["gemver"]))
        assert res.evaluations == len(res.log) == (budget or 12)

    def test_random_budget_zero_evaluates_seed_only(self, batax):
        res = run_strategy("random", batax,
                           SearchConfig(core_count=8, seed=1, budget=0),
                           analytic(batax))
        assert res.evaluations == 1
        assert res.best == initial_forest(batax)

    def test_budget_bounds_unique_evaluations(self, corpus_graphs):
        g = corpus_graphs["dgemv"]
        res = run_strategy("mfga", g,
                           SearchConfig(core_count=8, seed=3, budget=40,
                                        generations=100),
                           analytic(g))
        assert res.evaluations <= 40

    def test_random_walk_stops_at_ten_times_its_budget(self, corpus_graphs):
        # BICGK's legal space is far smaller than 1000 organisms, so only
        # the step bound ends this walk
        res = run_strategy("random", corpus_graphs["bicgk"],
                           SearchConfig(budget=1000),
                           analytic(corpus_graphs["bicgk"]))
        assert res.evaluations + res.cache_hits <= 10_001

    @pytest.mark.parametrize("budget", [None, 25])
    @pytest.mark.parametrize("strategy", ["mfga", "ga", "random"])
    def test_warm_cache_repeats_the_cold_run(self, batax, strategy, budget):
        # a cache shared between runs saves computation only: the second
        # run asks for the same organisms, logs them and ends the same way
        fit = analytic(batax)
        cfg = SearchConfig(core_count=8, seed=3, generations=6, budget=budget)
        cold = run_strategy(strategy, batax, cfg, fit)
        warm = run_strategy(strategy, batax, cfg, fit)
        assert warm.evaluations == 0
        assert warm.cache_hits == cold.evaluations + cold.cache_hits
        assert (warm.best_key, warm.best_fitness) == \
            (cold.best_key, cold.best_fitness)
        assert [e.key for e in warm.log] == [e.key for e in cold.log]

    def test_vadd_exhaustive_log_length_is_space_size(self, corpus_graphs):
        g = corpus_graphs["vadd"]
        cfg = SearchConfig(core_count=6, seed=0)
        res = run_strategy("exhaustive", g, cfg, analytic(g, cores=6))
        size = sum(1 for _ in enumerate_space(g, Limits(
            max_threads=6, thread_mode="global")))
        assert res.evaluations == size == len(res.log)

    def test_orthogonal_matches_exhaustive_on_vadd(self, corpus_graphs):
        g = corpus_graphs["vadd"]
        cfg = SearchConfig(core_count=6, seed=0, thread_mode="exhaustive")
        exh = run_strategy("exhaustive", g, cfg, analytic(g, cores=6))
        orth = run_strategy("orthogonal", g,
                            SearchConfig(core_count=6, seed=0),
                            analytic(g, cores=6))
        assert orth.best_fitness == exh.best_fitness
        assert orth.evaluations < exh.evaluations

    def test_mf_alone_not_better_than_mfga_on_gemver(self, corpus_graphs):
        g = corpus_graphs["gemver"]
        mf = run_strategy("mf", g, SearchConfig(core_count=8, seed=0),
                          analytic(g))
        mfga = run_strategy("mfga", g,
                            SearchConfig(core_count=8, seed=0, budget=300,
                                         generations=40),
                            analytic(g))
        assert mf.evaluations == 1
        assert mfga.best_fitness <= mf.best_fitness

    def test_unknown_strategy_rejected(self, batax):
        with pytest.raises(ValueError):
            run_strategy("annealing", batax, SearchConfig(), analytic(batax))


class TestThreadSweep:
    def test_sweep_counts(self, batax):
        fit = analytic(batax, cores=24)
        org = max_fuse(batax, 24)
        _, tried = thread_sweep(org, fit, core_count=24)
        assert tried == 12
        _, tried = thread_sweep(org, fit, core_count=2)
        assert tried == 1

    def test_unpartitioned_is_untouched(self, batax):
        org = initial_forest(batax)
        best, tried = thread_sweep(org, analytic(batax), core_count=24)
        assert tried == 0 and best == org

    def test_per_partition_sweep_bounded_by_budget(self, batax):
        fit = analytic(batax, cores=8)
        org = max_fuse(batax, 8)
        for budget, want in [(5, 5), (1, 1), (0, 1)]:  # budget 0 tries one
            _, tried = thread_sweep(org, fit, core_count=8,
                                    per_partition=True, budget=budget)
            assert tried == want

    def test_per_partition_sweep_at_budget_zero(self, batax):
        """The run's one evaluation is max-fuse; the sweep asks it again
        (a cache hit), then stops at its one candidate, beyond the
        budget."""
        cfg = SearchConfig(population=4, generations=2, budget=0,
                           thread_mode="exhaustive")
        res = run_strategy("mfga", batax, cfg, analytic(batax, cores=8))
        assert (res.evaluations, res.cache_hits, res.sweeps) == (1, 1, 0)

    @pytest.mark.parametrize("budget,tried", [(6, 1), (7, 2), (8, 4)])
    def test_budget_ending_mid_sweep_counts_what_it_asked(self, batax,
                                                          budget, tried):
        """The sweep of [best, t=2, t=4, t=6, t=8] stops at its first new
        organism beyond the budget; the candidates before it count."""
        cfg = SearchConfig(population=4, generations=2, seed=1, core_count=8,
                           budget=budget)
        res = run_strategy("mfga", batax, cfg, analytic(batax))
        assert res.evaluations == budget
        assert res.sweeps == tried


class TestDegenerateKernels:
    def test_mfga_on_single_op_kernel(self):
        g = infer_types(build_dataflow(parse_kernel(
            "DOT in: a : vector(column), b : vector(column) out: s : scalar "
            "{ s = a' * b }")))
        res = run_strategy("mfga", g,
                           SearchConfig(core_count=8, seed=0, generations=10),
                           analytic(g, M=100000))
        exh = run_strategy("exhaustive", g, SearchConfig(core_count=8),
                           analytic(g, M=100000))
        assert res.best_fitness == exh.best_fitness

    def test_mfga_on_scalar_kernel(self):
        g = infer_types(build_dataflow(parse_kernel(
            "SC in: a : scalar, c : scalar out: b : scalar { b = a * c }")))
        res = run_strategy("mfga", g,
                           SearchConfig(core_count=4, seed=1, generations=3),
                           analytic(g, M=10))
        assert res.best_key == "1"


class Batched:
    """A deterministic fitness with a batch method that records the keys
    of each batch and the key of each organism asked for alone."""

    def __init__(self, fn):
        self.fn = fn
        self.batches: list[list[str]] = []
        self.alone: list[str] = []

    def __call__(self, org):
        self.alone.append(canonical_key(org))
        return self.fn(org)

    def batch(self, orgs):
        self.batches.append([canonical_key(o) for o in orgs])
        return [self.fn(o) for o in orgs]


class TestPrefetch:
    """Asking a batching fitness for lists changes nothing a search
    reports, builds only what the search asks for, and never builds
    beyond the budget."""

    @pytest.mark.parametrize("budget", [None, 0, 1, 9, 40])
    @pytest.mark.parametrize("name,strategy", [
        *((name, strategy) for name in ("gemver", "gesummv")
          for strategy in ("random", "ga", "mfga")),
        *((name, strategy) for name in ("batax", "atax", "vadd")
          for strategy in ("mf", "orthogonal", "exhaustive")),
    ])
    def test_batches_change_nothing(self, all_graphs, name, strategy,
                                    budget):
        g = all_graphs[name]
        cfg = SearchConfig(population=6, generations=5, seed=3, budget=budget)
        solo = run_strategy(strategy, g, cfg, analytic(g))
        fitness = Batched(analytic(g).fn)
        batched = run_strategy(strategy, g, cfg, cached(fitness))
        assert [e.as_dict() for e in batched.log] == \
            [e.as_dict() for e in solo.log]
        assert (batched.evaluations, batched.cache_hits, batched.best_key,
                batched.sweeps) == (solo.evaluations, solo.cache_hits,
                                    solo.best_key, solo.sweeps)
        # every evaluation came from a batch, each organism built once and
        # asked for, in order
        assert fitness.alone == []
        built = [key for keys in fitness.batches for key in keys]
        assert built == [e.key for e in solo.log]
        cap = math.inf if budget is None else max(budget, 1)
        done = 0
        for keys in fitness.batches:
            assert 0 < len(keys) <= cap - done
            done += len(keys)

    def test_walk_batches_hold_a_population_at_most(self, corpus_graphs):
        g = corpus_graphs["gemver"]
        fitness = Batched(analytic(g).fn)
        run_strategy("random", g, SearchConfig(population=5, budget=23),
                     cached(fitness))
        assert [len(keys) for keys in fitness.batches] == [5, 5, 5, 5, 3]

    def test_empirical_walk_logs_the_solo_keys(self, batax, toolchain):
        timer = EmpiricalTimer(batax, toolchain, {"M": 32, "N": 32}, reps=1)
        cfg = SearchConfig(population=3, budget=5, seed=2, core_count=2)
        batched = run_strategy("random", batax, cfg, cached(timer))
        solo = run_strategy("random", batax, cfg, cached(timer.__call__))
        assert [e.key for e in batched.log] == [e.key for e in solo.log]
        assert (batched.evaluations, batched.cache_hits) == \
            (solo.evaluations, solo.cache_hits)
        assert not any(math.isinf(e.fitness) for e in batched.log)

    def test_empirical_orthogonal_builds_in_batches(self, corpus_graphs,
                                                     toolchain, monkeypatch):
        g = corpus_graphs["vadd"]
        timer = EmpiricalTimer(g, toolchain,
                               {n: 32 for n in g.extent_names}, reps=1)
        cfg = SearchConfig(population=3, seed=0, core_count=2)
        solo = run_strategy("orthogonal", g, cfg, cached(timer.__call__))
        compiles, batches = [], []
        real_compile, real_batch = Toolchain.compile, Toolchain.compile_batch

        def compile_(self, *args, **kwargs):
            compiles.append(args)
            return real_compile(self, *args, **kwargs)

        def compile_batch(self, jobs):
            batches.append(len(jobs))
            return real_batch(self, jobs)

        monkeypatch.setattr(Toolchain, "compile", compile_)
        monkeypatch.setattr(Toolchain, "compile_batch", compile_batch)
        batched = run_strategy("orthogonal", g, cfg, cached(timer))
        assert compiles == []
        assert sum(batches) == batched.evaluations
        assert all(0 < size <= cfg.population for size in batches)
        assert [e.key for e in batched.log] == [e.key for e in solo.log]
        assert (batched.evaluations, batched.cache_hits, batched.sweeps) == \
            (solo.evaluations, solo.cache_hits, solo.sweeps)
        assert not any(math.isinf(e.fitness) for e in batched.log)
