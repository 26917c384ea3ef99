import math
import tempfile

from matfuse.cost import (
    EmpiricalTimer, MachineModel, cached, estimate_cost, measure_empirical,
)
from matfuse.fuse import Organism, parse_notation, initial_forest
from matfuse.search import max_fuse


MACHINE = MachineModel(core_count=8, extents=(("M", 1000), ("N", 1000)))


class TestAnalytic:
    def test_batax_unfused_matches_hand_count(self, batax):
        # each root streams its distinct operands once:
        #   op1: A (M*N) + x (N) + t0 (M)
        #   op2: A + t0 + t1
        #   op3: t1 + beta + y
        M = N = 1000
        expected = 8.0 * (
            (M * N + N + M) + (M * N + M + N) + (N + 1 + N)
        )
        report = estimate_cost(initial_forest(batax), batax, MACHINE)
        assert report.total == expected
        assert report.partition_nodes == 0
        assert report.contracted == ()

    def test_batax_max_fuse_matches_hand_count(self, batax):
        # fused region: A + x + t1 (t0 contracts to a scalar), divided by
        # 8 threads plus one launch overhead; op3's region streams
        # t1 + beta + y the same way
        M = N = 1000
        expected = 8.0 * (
            (M * N + N + N) / 8 + 5000.0 + (N + 1 + N) / 8 + 5000.0
        )
        org = max_fuse(batax, 8)
        report = estimate_cost(org, batax, MACHINE)
        assert report.total == expected
        assert report.contracted == ("t0",)
        assert report.partition_nodes == 2

    def test_fusion_beats_unfused(self, batax):
        unfused = estimate_cost(initial_forest(batax), batax, MACHINE)
        fused = estimate_cost(max_fuse(batax, 8), batax, MACHINE)
        assert fused.total < unfused.total

    def test_empty_kernel_costs_nothing(self, batax):
        report = estimate_cost(Organism((), ()), batax, MACHINE)
        assert report.total == 0.0

    def test_vadd_four_threads_beat_one(self, corpus_graphs):
        g = corpus_graphs["vadd"]
        machine = MachineModel(core_count=8, extents=(("M", 10**6),))
        serial = parse_notation("{_k 1 2}", g)
        par1 = parse_notation("{_{p(k)}{_k 1 2}}", g, threads=1)
        par4 = parse_notation("{_{p(k)}{_k 1 2}}", g, threads=4)
        c_serial = estimate_cost(serial, g, machine).total
        c_par4 = estimate_cost(par4, g, machine).total
        # w, y, z, x stream; t0 contracts: 4M elements
        assert c_serial == 8.0 * 4 * 10**6
        assert c_par4 == 8.0 * (4 * 10**6 / 4 + 5000.0)
        assert c_par4 < c_serial
        # one thread pays the launch overhead for nothing
        assert estimate_cost(par1, g, machine).total > c_serial

    def test_pure_function(self, batax):
        org = max_fuse(batax, 8)
        a = estimate_cost(org, batax, MACHINE)
        b = estimate_cost(org, batax, MACHINE)
        assert a == b

    def test_breakdown_sums_to_total(self, batax):
        org = max_fuse(batax, 8)
        report = estimate_cost(org, batax, MACHINE)
        assert math.isclose(sum(report.per_root), report.total)

    def test_thread_counts_above_cores_do_not_help(self, batax):
        org = max_fuse(batax, 8)
        at_cores = estimate_cost(org, batax, MACHINE).total
        over = Organism(org.forest, tuple(64 for _ in org.threads))
        assert estimate_cost(over, batax, MACHINE).total == at_cores

    def test_adding_contracting_fusion_never_costs_more(self, batax,
                                                        corpus_graphs):
        from matfuse.fuse import Limits, enumerate_space, fusion_legal
        from matfuse.search import (
            _apply_root_merge, _apply_sibling_merge, _loop_fusion_sites,
        )

        for g in (batax, corpus_graphs["vadd"]):
            machine = MachineModel(core_count=8,
                                   extents=(("M", 500), ("N", 400)))
            for org in enumerate_space(g, Limits(max_threads=2)):
                base = estimate_cost(org, g, machine).total
                for site in _loop_fusion_sites(org):
                    if site[0] == "roots":
                        cand = _apply_root_merge(org, g, site[1], site[2],
                                                 site[3])
                    else:
                        cand = _apply_sibling_merge(org, g, site)
                    if fusion_legal(cand, g) is not None:
                        continue
                    assert estimate_cost(cand, g, machine).total <= base


class TestCaching:
    class CountingFitness:
        parallel_safe = True

        def __init__(self, graph):
            self.graph = graph
            self.calls = 0

        def key_salt(self):
            return "count"

        def __call__(self, org):
            self.calls += 1
            return estimate_cost(org, self.graph, MACHINE)

    def test_same_organism_evaluates_once(self, batax):
        fn = cached(self.CountingFitness(batax))
        org = max_fuse(batax, 8)
        fn(org)
        fn(org)
        assert fn.fn.calls == 1
        assert fn.hits == 1 and fn.misses == 1

    def test_structurally_equal_builds_share_one_evaluation(self, batax):
        fn = cached(self.CountingFitness(batax))
        a = parse_notation("{_{p(i)}{_i{_j 1}{_j 2}}}{_{p(j)}{_j 3}}",
                           batax, threads=8)
        b = max_fuse(batax, 8)
        fn(a)
        fn(b)
        assert fn.fn.calls == 1

    def test_disabled_cache_evaluates_twice(self, batax):
        fn = cached(self.CountingFitness(batax), enabled=False)
        org = max_fuse(batax, 8)
        fn(org)
        fn(org)
        assert fn.fn.calls == 2

    def test_thread_counts_distinguish_keys(self, batax):
        fn = cached(self.CountingFitness(batax))
        org = max_fuse(batax, 8)
        fn(org)
        fn(Organism(org.forest, tuple(4 for _ in org.threads)))
        assert fn.fn.calls == 2


class TestEmpirical:
    def test_batax_organism_times_and_validates(self, batax, toolchain):
        org = max_fuse(batax, 2)
        report = measure_empirical(org, batax, toolchain,
                                   {"M": 200, "N": 200}, reps=2)
        assert report.source == "empirical"
        assert not report.failed
        assert report.total > 0

    def test_corrupted_source_reports_compile_failure(self, batax, toolchain):
        report = measure_empirical(
            initial_forest(batax), batax, toolchain, {"M": 50, "N": 50},
            reps=1, source_filter=lambda s: s.replace("double", "dubble", 1),
        )
        assert report.failed
        assert report.diagnostic.startswith("compile-failure")

    def test_wrong_answers_never_get_finite_fitness(self, batax, toolchain):
        report = measure_empirical(
            initial_forest(batax), batax, toolchain, {"M": 50, "N": 50},
            reps=1, source_filter=lambda s: s.replace("+=", "=", 1),
        )
        assert report.failed
        assert report.diagnostic.startswith("numerical-mismatch")

    def test_timer_class_wraps_measurement(self, batax, toolchain):
        timer = EmpiricalTimer(batax, toolchain, {"M": 64, "N": 64}, reps=1)
        report = timer(initial_forest(batax))
        assert report.source == "empirical" and not report.failed


class TestEmpiricalHygiene:
    def test_broken_timing_main_reports_compile_failure(self, batax,
                                                        toolchain):
        guard = "#ifndef MATFUSE_NO_MAIN"
        report = measure_empirical(
            initial_forest(batax), batax, toolchain, {"M": 50, "N": 50},
            reps=1, source_filter=lambda s: s.replace(
                guard, guard + "\n#error broken timing main", 1),
        )
        assert report.failed
        assert report.diagnostic.startswith("compile-failure")

    def test_evaluations_leave_no_temp_dirs(self, batax, toolchain, tmp_path,
                                            monkeypatch):
        monkeypatch.setenv("TMPDIR", str(tmp_path))
        monkeypatch.setattr(tempfile, "tempdir", None)
        timer = EmpiricalTimer(batax, toolchain, {"M": 32, "N": 32}, reps=1)
        assert not timer(max_fuse(batax, 2)).failed
        broken = EmpiricalTimer(batax, toolchain, {"M": 32, "N": 32}, reps=1,
                                source_filter=lambda s: s + "#error x\n")
        assert broken(max_fuse(batax, 2)).failed
        assert not list(tmp_path.glob("matfuse-*"))
