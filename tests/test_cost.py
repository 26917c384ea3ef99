import math
import os
import signal
import subprocess
import tempfile
import time

import numpy as np
import pytest

from matfuse import cli, cost, runtime
from matfuse.cost import (
    EmpiricalTimer, MachineModel, cached, estimate_cost, measure_empirical,
)
from matfuse.cemit import emit_c
from matfuse.corpus import kernel_path, load_graph
from matfuse.fuse import Organism, parse_notation, initial_forest, with_threads
from matfuse.lower import lower
from matfuse.runtime import Toolchain, max_rel_error
from matfuse.search import SearchConfig, max_fuse, run_strategy


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
        report = estimate_cost(Organism(()), batax, MACHINE)
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
        over = with_threads(org, tuple(64 for _ in org.threads))
        assert estimate_cost(over, batax, MACHINE).total == at_cores

    def test_adding_contracting_fusion_never_costs_more(self, batax,
                                                        corpus_graphs):
        from matfuse.fuse import Limits, enumerate_space, fusion_legal
        from matfuse.search import _edit, _fusion_moves

        for g in (batax, corpus_graphs["vadd"]):
            machine = MachineModel(core_count=8,
                                   extents=(("M", 500), ("N", 400)))
            for org in enumerate_space(g, Limits(max_threads=2)):
                base = estimate_cost(org, g, machine).total
                for move in _fusion_moves(org):
                    cand = _edit(org, g, *move)
                    if fusion_legal(cand, g) is not None:
                        continue
                    assert estimate_cost(cand, g, machine).total <= base


class TestCaching:
    class CountingFitness:
        parallel_safe = True

        def __init__(self, graph):
            self.graph = graph
            self.calls = 0

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

    def test_thread_counts_distinguish_keys(self, batax):
        fn = cached(self.CountingFitness(batax))
        org = max_fuse(batax, 8)
        fn(org)
        fn(with_threads(org, tuple(4 for _ in org.threads)))
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

    @pytest.mark.parametrize("store", [";", "y[j] = 0.0 / 0.0;"])
    def test_unwritten_or_nan_output_is_a_mismatch(self, batax, toolchain,
                                                   store):
        report = measure_empirical(
            max_fuse(batax, 2), batax, toolchain, {"M": 64, "N": 64},
            reps=1, source_filter=lambda s: s.replace(
                "y[j] = t1[j] * beta;", store, 1),
        )
        assert report.failed
        assert report.diagnostic.startswith("numerical-mismatch")

    def test_timer_class_wraps_measurement(self, batax, toolchain):
        timer = EmpiricalTimer(batax, toolchain, {"M": 64, "N": 64}, reps=1)
        report = timer(initial_forest(batax))
        assert report.source == "empirical" and not report.failed

    @pytest.mark.parametrize("reps", [0, -1])
    def test_fewer_than_one_rep_is_rejected(self, batax, toolchain, tmp_path,
                                            reps):
        # with no timed rep, main would print its initial 1e300 as seconds
        with pytest.raises(ValueError, match="reps"):
            EmpiricalTimer(batax, toolchain, {"M": 64, "N": 64}, reps=reps)
        kernel = emit_c(lower(initial_forest(batax), batax))
        binary = toolchain.compile(kernel.source, tmp_path)
        with pytest.raises(ValueError, match="reps"):
            runtime.time_binary(binary, {"M": 8, "N": 8}, batax.extent_names,
                                reps=reps)


def test_validation_runs_the_tail_rows(toolchain, monkeypatch):
    """Validation at an odd extent splits ATAX's rows into blocks that
    are not all multiples of four, so it runs the jammed loop's tail: an
    emptied tail is a mismatch.  At 64 rows, two blocks of 32 have no
    tail rows and the same candidate would validate."""
    g = load_graph("atax")
    tail = "for (long i = i_hi - (i_hi - i_lo) % 4; i < i_hi; ++i)"

    def empty_tail(source):
        assert tail in source
        return source.replace(tail, "for (long i = i_hi; i < i_hi; ++i)")

    timer = EmpiricalTimer(g, toolchain, {"M": 64, "N": 64}, reps=1,
                           source_filter=empty_tail)
    report = timer(max_fuse(g, 2))
    assert report.failed
    assert report.diagnostic.startswith("numerical-mismatch")
    monkeypatch.setattr(cost, "VALIDATION_EXTENT", 64)
    assert not timer(max_fuse(g, 2)).failed


def test_nan_outputs_never_validate():
    want = {"y": np.zeros(3), "s": 1.0}
    for got in ({"y": np.array([0.0, np.nan, 0.0]), "s": 1.0},
                {"y": np.zeros(3), "s": math.nan},
                {"y": np.full(3, np.inf), "s": 1.0}):
        assert not max_rel_error(got, want) < 1e-10


def at_kernel_top(stmt: str):
    """A source filter that makes `stmt` the kernel function's first
    statement (the first ") {" of the emitted file opens its body)."""
    def put(source: str) -> str:
        head, brace, body = source.partition(") {\n")
        return f"{head}{brace}    {stmt}\n{body}"
    return put


@pytest.fixture
def children(tmp_path, monkeypatch):
    """Temporary files under tmp_path, and the pid of every child started:
    each leads its own process group."""
    monkeypatch.setenv("TMPDIR", str(tmp_path))
    monkeypatch.setattr(tempfile, "tempdir", None)
    pids = []

    class Recorded(subprocess.Popen):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            pids.append(self.pid)

    monkeypatch.setattr(subprocess, "Popen", Recorded)
    return pids


def assert_nothing_left(tmp_path, pids):
    assert pids
    assert not list(tmp_path.glob("matfuse-*"))
    for pid in pids:  # no process is left in any child's group
        with pytest.raises(ProcessLookupError):
            os.killpg(pid, 0)


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
                                            children):
        timer = EmpiricalTimer(batax, toolchain, {"M": 32, "N": 32}, reps=1)
        assert not timer(max_fuse(batax, 2)).failed
        broken = EmpiricalTimer(batax, toolchain, {"M": 32, "N": 32}, reps=1,
                                source_filter=lambda s: s + "#error x\n")
        assert broken(max_fuse(batax, 2)).failed
        assert_nothing_left(tmp_path, children)


class TestFaultIsolation:
    """A candidate that crashes or hangs costs one +inf with a diagnostic;
    the search goes on and nothing of the candidate is left behind."""

    def test_segfault_is_a_runtime_crash_and_the_search_goes_on(
            self, batax, toolchain, tmp_path, children):
        crash = at_kernel_top("*(volatile double *)0 = 0.0;")
        report = measure_empirical(max_fuse(batax, 2), batax, toolchain,
                                   {"M": 32, "N": 32}, reps=1,
                                   source_filter=crash)
        assert report.failed
        assert report.diagnostic.startswith("runtime-crash: kernel binary "
                                             "failed (signal SIG")
        timer = EmpiricalTimer(batax, toolchain, {"M": 32, "N": 32}, reps=1,
                               source_filter=crash)
        res = run_strategy("random", batax,
                           SearchConfig(budget=3, seed=0, core_count=2),
                           cached(timer))
        assert len(res.log) == 3
        assert all(math.isinf(e.fitness) for e in res.log)
        assert res.best_report.diagnostic.startswith("runtime-crash")
        assert_nothing_left(tmp_path, children)

    def test_hang_is_a_timeout(self, batax, toolchain, tmp_path, children,
                               monkeypatch):
        monkeypatch.setattr(runtime, "RUN_TIMEOUT_S", 1.0)
        report = measure_empirical(max_fuse(batax, 2), batax, toolchain,
                                   {"M": 32, "N": 32}, reps=1,
                                   source_filter=at_kernel_top("for (;;);"))
        assert report.failed
        assert report.diagnostic.startswith("timeout: kernel binary timed "
                                            "out after 1 s")
        assert_nothing_left(tmp_path, children)

    def test_validation_run_limit_follows_its_size(self, batax, toolchain,
                                                   monkeypatch):
        """A 64x64 validation run may take seconds, not the timing run's
        RUN_TIMEOUT_S, so a hung candidate costs little."""
        limits = []
        real = runtime._run

        def recorded(argv, timeout, kind, what):
            limits.append((what, timeout))
            return real(argv, timeout, kind, what)

        monkeypatch.setattr(runtime, "_run", recorded)
        report = measure_empirical(max_fuse(batax, 2), batax, toolchain,
                                   {"M": 64, "N": 64}, reps=1)
        assert not report.failed
        (compile_, _), (validate, limit), (time_, timed) = limits
        assert (compile_, validate, time_) == \
            ("compile", "kernel binary", "kernel binary")
        assert limit <= 10.0
        assert timed == runtime.RUN_TIMEOUT_S
        assert runtime.validation_timeout(10 ** 12) == runtime.RUN_TIMEOUT_S


class TestOneCompilePerCandidate:
    @pytest.fixture
    def compiles(self, monkeypatch):
        calls = []
        real = Toolchain.compile

        def counted(self, *args, **kwargs):
            calls.append(args)
            return real(self, *args, **kwargs)

        monkeypatch.setattr(Toolchain, "compile", counted)
        return calls

    def test_measure_empirical_compiles_once(self, batax, toolchain,
                                             compiles):
        report = measure_empirical(max_fuse(batax, 2), batax, toolchain,
                                   {"M": 64, "N": 64}, reps=1)
        assert not report.failed
        assert len(compiles) == 1

    def test_cli_validation_compiles_once(self, toolchain, compiles, tmp_path,
                                          capsys):
        code = cli.main(["compile", str(kernel_path("batax")), "-o",
                         str(tmp_path / "k.c"), "--extents", "20,20"])
        assert code == 0 and "validated" in capsys.readouterr().out
        assert len(compiles) == 1


def batch_organisms(graph):
    """Two unpartitioned and two partitioned organisms of BATAX."""
    return [initial_forest(graph),
            parse_notation("{_i{_j 1}{_j 2}}{_j 3}", graph),
            max_fuse(graph, 2),
            parse_notation("{_{p(i)}{_i{_j 1}{_j 2}}}{_j 3}", graph,
                           threads=2)]


@pytest.fixture
def timeline(monkeypatch):
    """("start" or "end", what, pid) for each child started and each child
    waited for, in order: a child runs at most from its start to its
    end."""
    events = []
    real_start, real_wait = runtime._start, runtime._wait

    def start(argv, kind, what):
        proc = real_start(argv, kind, what)
        events.append(("start", what, proc.pid))
        return proc

    def wait(proc, deadline, timeout, kind, what):
        try:
            return real_wait(proc, deadline, timeout, kind, what)
        finally:
            events.append(("end", what, proc.pid))

    monkeypatch.setattr(runtime, "_start", start)
    monkeypatch.setattr(runtime, "_wait", wait)
    return events


def most_compiles_at_once(events) -> int:
    """The most compiles alive at once; asserts that no kernel binary
    (validation or timing) is alive while a compile is."""
    alive: dict[int, str] = {}
    most = 0
    for event, what, pid in events:
        if event == "end":
            del alive[pid]
            continue
        assert not alive or {what, *alive.values()} == {what}, \
            f"a {what} started while {sorted(set(alive.values()))} ran"
        alive[pid] = what
        most = max(most, sum(w == "compile" for w in alive.values()))
    assert not alive
    return most


class TestBatch:
    """EmpiricalTimer.batch builds its candidates at once, one compile per
    CPU at most, then validates and times them one at a time; each
    candidate still fails on its own."""

    def test_every_candidate_validates_and_times(self, batax, toolchain):
        timer = EmpiricalTimer(batax, toolchain, {"M": 32, "N": 32}, reps=1)
        orgs = batch_organisms(batax)
        reports = timer.batch(orgs)
        assert len(reports) == len(orgs)
        assert all(r.source == "empirical" and not r.failed for r in reports)

    def test_compile_failures_stay_with_their_candidates(
            self, batax, toolchain, tmp_path, children):
        def break_partitioned(source):
            if "#pragma omp parallel for" in source:
                return source + "#error partitioned\n"
            return source

        timer = EmpiricalTimer(batax, toolchain, {"M": 32, "N": 32}, reps=1,
                               source_filter=break_partitioned)
        orgs = batch_organisms(batax)
        reports = timer.batch(orgs)
        for idx, (org, report) in enumerate(zip(orgs, reports)):
            if org.threads:
                assert report.diagnostic.startswith("compile-failure")
                assert f"/{idx}/kernel.c" in report.diagnostic
            else:
                assert not report.failed
        assert sum(r.failed for r in reports) == 2
        assert_nothing_left(tmp_path, children)

    def test_hung_compiles_each_time_out(self, batax, toolchain, tmp_path,
                                         children, monkeypatch):
        # exec: the sleep is the child itself, so no killed grandchild can
        # linger as a zombie in its group until init reaps it
        monkeypatch.setattr(runtime, "COMPILE_TIMEOUT_S", 1.0)
        hung = Toolchain(toolchain.cc, "sh -c 'exec sleep 30' {src} {bin}")
        timer = EmpiricalTimer(batax, hung, {"M": 32, "N": 32}, reps=1)
        start = time.monotonic()
        reports = timer.batch(batch_organisms(batax))
        assert time.monotonic() - start < 15.0
        assert [r.diagnostic.split(":")[0:2] for r in reports] == \
            [["timeout", " compile timed out after 1 s"]] * 4
        assert_nothing_left(tmp_path, children)

    def test_a_build_done_in_time_survives_a_hung_one(
            self, batax, toolchain, tmp_path, children, monkeypatch):
        """The partitioned candidate's compile hangs and is killed at its
        limit; the other one, started beside it, finished long before it
        is waited for, after its own limit, and still validates."""
        monkeypatch.setattr(runtime, "COMPILE_TIMEOUT_S", 1.0)
        monkeypatch.setattr(runtime.os, "sched_getaffinity",
                            lambda pid: {0, 1})
        real_wait = runtime._wait

        def late_wait(*args):
            try:
                return real_wait(*args)
            finally:  # the next child's limit surely passes meanwhile
                time.sleep(0.2)

        monkeypatch.setattr(runtime, "_wait", late_wait)
        hang_if_partitioned = Toolchain(
            toolchain.cc, "sh -c 'if grep -q \"omp parallel\" \"$0\"; then "
            "exec sleep 30; fi; exec {cc} -O3 -fopenmp \"$0\" -o \"$1\"' "
            "{src} {bin}")
        timer = EmpiricalTimer(batax, hang_if_partitioned, {"M": 32, "N": 32},
                               reps=1)
        hung, done = timer.batch([max_fuse(batax, 2), initial_forest(batax)])
        assert hung.diagnostic.startswith("timeout: compile timed out")
        assert not done.failed
        assert_nothing_left(tmp_path, children)

    def test_an_interrupt_kills_every_compile(self, batax, toolchain,
                                              tmp_path, children):
        hung = Toolchain(toolchain.cc, "sh -c 'exec sleep 30' {src} {bin}")
        timer = EmpiricalTimer(batax, hung, {"M": 32, "N": 32}, reps=1)

        def interrupt(signum, frame):
            raise KeyboardInterrupt

        previous = signal.signal(signal.SIGALRM, interrupt)
        try:
            signal.setitimer(signal.ITIMER_REAL, 0.5)
            with pytest.raises(KeyboardInterrupt):
                timer.batch(batch_organisms(batax))
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        assert_nothing_left(tmp_path, children)

    def test_no_kernel_binary_runs_beside_a_compile(self, batax, toolchain,
                                                    timeline):
        timer = EmpiricalTimer(batax, toolchain, {"M": 32, "N": 32}, reps=1)
        orgs = batch_organisms(batax)
        assert not any(r.failed for r in timer.batch(orgs))
        cpus = len(os.sched_getaffinity(0))
        assert most_compiles_at_once(timeline) == min(cpus, len(orgs))
        whats = [what for event, what, _ in timeline if event == "start"]
        # every build first, then validation and timing of each in turn
        assert whats == ["compile"] * 4 + ["kernel binary"] * 8

    def test_compiles_at_once_never_exceed_the_cpus(self, batax, toolchain,
                                                    timeline, monkeypatch):
        monkeypatch.setattr(runtime.os, "sched_getaffinity",
                            lambda pid: {0})
        timer = EmpiricalTimer(batax, toolchain, {"M": 32, "N": 32}, reps=1)
        assert not any(r.failed for r in timer.batch(batch_organisms(batax)))
        assert most_compiles_at_once(timeline) == 1
