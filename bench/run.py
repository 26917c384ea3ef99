#!/usr/bin/env python3
"""matfuse benchmark: analytic search, empirical tuning and the speed of
the generated kernels, end to end and layer by layer.

    python3 bench/run.py --workload search-analytic --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --smoke

Run from anywhere inside a checkout; matfuse is imported from its `src/`.
With --trace 0 the last line of standard output is one JSON object with
the end-to-end metrics; with --trace 1 it holds the per-layer metrics of
a traced run.  Full results go to bench/out/.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
TMP = OUT / f"tmp-{os.getpid()}"  # one per process: runs may share a checkout
WORKLOAD_NAMES = ("search-analytic", "tune-empirical", "codegen-corpus")
TRACED_KERNELS = ("atax", "axpydot", "batax", "dgemv", "dgemvt", "gemver",
                  "gesummv", "vadd", "waxpby")  # BICGK's timing binary fails


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="every workload at tiny sizes, every check, once")
    args = p.parse_args(argv)
    if not args.smoke and args.workload is None:
        p.error("--workload is required (or --smoke)")
    return args


def pin_environment():
    """Two threads everywhere, and temp files inside the checkout.  Must
    run before numpy is imported."""
    TMP.mkdir(parents=True, exist_ok=True)
    os.environ.update(OMP_NUM_THREADS="2", OPENBLAS_NUM_THREADS="2",
                      MKL_NUM_THREADS="2", TMPDIR=str(TMP))
    tempfile.tempdir = str(TMP)
    sys.path[:0] = [str(SRC), str(BENCH)]


def setup_seconds(kernels) -> tuple[float, float]:
    """One fresh interpreter's import + parse + type-check of `kernels`:
    (CPU seconds, wall seconds)."""
    out = subprocess.run([sys.executable, str(BENCH / "setup_probe.py"), *kernels],
                         capture_output=True, text=True, timeout=120, check=True)
    cpu, wall = out.stdout.split()[-2:]
    return float(cpu), float(wall)


def install_tracing(tracer, bench):
    """Wrap each layer's public functions where their callers look them up."""
    from matfuse import cemit, cost, fuse, graph, interp, lang, runtime, search
    from workloads import lowering

    def compiled(out, args):
        if tracer.active("cost.empirical"):
            tracer.count("runtime.compile.in_eval")

    def evaluated(report, args):
        tracer.count("cost.empirical.failed", int(report.failed))
        bench.candidates.append((args[0], report.total))

    sites = [
        (lang, "parse_kernel", "lang.parse_kernel", None),
        (graph, "infer_types", "graph.infer_types", None),
        (search, "max_fuse", "search.max_fuse", None),
        (search, "crossover", "search.crossover", None),
        (search, "mutate", "search.mutate", None),
        (search, "fusion_legal", "fuse.fusion_legal", None),
        (fuse, "fusion_legal", "fuse.fusion_legal", None),
        (search, "canonicalize", "fuse.canonicalize", None),
        (fuse, "canonicalize", "fuse.canonicalize", None),
        (cost, "estimate_cost", "cost.estimate", None),
        (cost, "measure_empirical", "cost.empirical", evaluated),
        (runtime.Toolchain, "compile", "runtime.compile", compiled),
        (runtime, "run_kernel", "runtime.run_kernel", None),
        (runtime, "time_binary", "runtime.time_binary", None),
        (interp, "reference_evaluate", "interp.reference", None),
        (lowering, "lower", "lower.lower", None),
        (lowering, "contract_arrays", "lower.contract_arrays",
         lambda ir, args: tracer.count("lower.contracted", len(ir.contracted))),
        (cemit, "emit_c", "cemit.emit_c",
         lambda k, args: tracer.count("cemit.bytes", len(k.source))),
    ]
    for owner, attr, name, on_result in sites:
        tracer.install(owner, attr, name, on_result)


def run_rounds(bench, tracer, seconds: float, trace: bool):
    """Whole rounds until `seconds` have passed.  A traced run alternates
    untraced and traced rounds (at least one of each)."""
    plain, traced = [], []
    t0 = time.perf_counter()
    while True:
        on = trace and len(plain) > len(traced)
        if on:
            tracer.reset()
            bench.candidates.clear()
            install_tracing(tracer, bench)
            tracer.enabled = True
        try:
            fig = bench.round()
        finally:
            if on:
                tracer.enabled = False
                tracer.uninstall()
        if on:
            fig.update(tracer.snapshot())
            fig["cost.rank_corr"], fig["cost.regret"] = bench.model_fidelity()
            traced.append(fig)
        else:
            plain.append(fig)
        if time.perf_counter() - t0 >= seconds and (not trace or traced):
            return plain, traced


def median_of(figs, key) -> float:
    return statistics.median(f.get(key, 0.0) for f in figs)


def end_to_end(bench, plain) -> dict:
    import workloads

    return {
        "setup_s": (statistics.median(bench.samples["setup_s"]["probe"]), "s"),
        "search_s.mfga": (bench.total("search_s.mfga"), "s"),
        "search_s.ga": (bench.total("search_s.ga"), "s"),
        "search_s.random": (bench.total("search_s.random"), "s"),
        "best_cost.mfga": (median_of(plain, "best_cost.mfga"), "cost-units"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "tune_s": (bench.total("tune_s"), "s"),
        "compile_s": (bench.total("compile_s"), "s"),
        "kernel_s": (workloads.geomean(bench.kernel_seconds().values()), "s"),
    }


def per_layer(bench, plain, traced, ref) -> dict:
    def med(key):
        return median_of(traced, key)

    out = {}
    for name in ("search.crossover", "fuse.fusion_legal", "fuse.canonicalize",
                 "search.mutate", "cost.estimate"):
        out[f"{name}.calls"] = (med(f"{name}.calls"), "count")
        out[f"{name}.self_s"] = (med(f"{name}.self_s"), "s")
    calls = med("search.fitness_calls")
    evals = med("cost.empirical.calls")
    out.update({
        "search.fitness_calls": (calls, "count"),
        "search.unique_evals": (med("search.unique_evals"), "count"),
        "search.cache_hits": (med("search.cache_hits"), "count"),
        "search.unique_ratio": (med("search.unique_evals") / calls if calls else 0.0, "ratio"),
        "search.mfga_best_cost": (med("best_cost.mfga"), "cost-units"),
        "runtime.compile.calls": (med("runtime.compile.calls"), "count"),
        "runtime.compile.s": (med("runtime.compile.s"), "s"),
        "runtime.compiles_per_eval": (med("runtime.compile.in_eval") / evals if evals else 0.0,
                                      "ratio"),
        "runtime.time_binary.s": (med("runtime.time_binary.s"), "s"),
        "runtime.run_kernel.s": (med("runtime.run_kernel.s"), "s"),
        "interp.reference.s": (med("interp.reference.s"), "s"),
        "cost.empirical.calls": (evals, "count"),
        "cost.empirical.failed": (med("cost.empirical.failed"), "count"),
        "runtime.tmp_dirs_left": (med("tmp_dirs_left"), "count"),
        "lower.s": (med("lower.lower.s") + med("lower.contract_arrays.s"), "s"),
        "lower.contracted": (med("lower.contracted"), "count"),
        "cemit.emit_c.s": (med("cemit.emit_c.s"), "s"),
        "cemit.bytes": (med("cemit.bytes"), "B"),
    })
    for kernel in TRACED_KERNELS:
        k = ref["kernels"].get(kernel, {})
        out[f"kernel.{kernel}.s"] = (k.get("max_fuse_s", 0.0), "s")
        out[f"kernel.{kernel}.gbs"] = (k.get("max_fuse_gbs", 0.0), "GB/s")
        out[f"kernel.{kernel}.speedup_unfused"] = (k.get("speedup_unfused", 0.0), "x")
    plain_work = median_of(plain, "work_s")
    traced_work = median_of(traced, "work_s")
    out.update({
        "cost.rank_corr": (med("cost.rank_corr"), "ratio"),
        "cost.regret": (med("cost.regret"), "ratio"),
        "lang.parse_kernel.s": (med("lang.parse_kernel.s"), "s"),
        "graph.infer_types.s": (med("graph.infer_types.s"), "s"),
        "trace.overhead": (100.0 * (traced_work / plain_work - 1.0), "%"),
    })
    return out


def run_workload(args) -> int:
    import reference
    import workloads
    from tracer import Tracer

    w = workloads.WORKLOADS[args.workload]
    tracer = Tracer()
    bench = workloads.Bench(w, args.seed, TMP, tracer, setup_probe=setup_seconds)
    try:
        bench.prepare()
        plain, traced = run_rounds(bench, tracer, args.seconds, bool(args.trace))
        ref = reference.figures(bench, workloads.VECTOR_N) if args.trace else None
    except workloads.CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": max(bench.attempted, 1),
                          "failed": bench.failed, "metrics": {}}))
        return 1
    finally:
        bench.close()
    if args.trace:
        metrics = per_layer(bench, plain, traced, ref)
    else:
        metrics = end_to_end(bench, plain)
    result = {
        "correct": True,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    stem = f"{args.workload}.seed{args.seed}.trace{args.trace}"
    (OUT / f"BENCH_{stem}.json").write_text(json.dumps({
        **result, "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "failures": bench.failures,
        "rounds": len(plain) + len(traced),
        "samples": {m: {str(op): v for op, v in ops.items()}
                    for m, ops in bench.samples.items()},
        "cpu_seconds": {m: {str(op): v for op, v in ops.items()}
                        for m, ops in bench.cpu.items()},
    }, indent=1) + "\n")
    if args.trace:
        (OUT / f"trace_{stem}.json").write_text(json.dumps({
            "reference": ref, "plain_rounds": plain, "traced_rounds": traced,
            "spans": tracer.spans}, indent=1) + "\n")
    print(f"{args.workload}: {len(plain) + len(traced)} rounds, "
          f"failures: {bench.failures or 'none'}", file=sys.stderr)
    print(json.dumps(result))
    return 0


def smoke() -> int:
    """Every workload at tiny sizes, traced and untraced, every check, and
    two checks that must fail on a corrupted kernel."""
    import reference
    import workloads
    from matfuse import cost, search
    from tracer import Tracer

    for name in WORKLOAD_NAMES:
        w = workloads.smoke_version(workloads.WORKLOADS[name])
        tracer = Tracer()
        bench = workloads.Bench(w, 0, TMP, tracer, setup_probe=setup_seconds)
        bench.prepare()
        plain, traced = run_rounds(bench, tracer, 0.0, True)
        ref = reference.figures(bench, 1 << 16)
        bench.close()
        metrics = {**end_to_end(bench, plain), **per_layer(bench, plain, traced, ref)}
        bad = [k for k, (v, _) in metrics.items() if not math.isfinite(v)]
        assert not bad, f"{name}: non-finite metrics {bad}"
        print(f"smoke {name}: {bench.attempted} operations, {bench.failed} failed "
              f"({bench.failures or 'none'}), {len(metrics)} metrics", file=sys.stderr)

    # A wrong answer must not pass: the benchmark's own check, and the
    # validation inside EmpiricalTimer.
    g = workloads.load("gemver")
    org = search.max_fuse(g, workloads.CORES)
    bench = workloads.Bench(workloads.WORKLOADS["tune-empirical"], 0, TMP, Tracer())
    try:
        bench.check_winner("gemver", g, org, source_filter=workloads.corrupt)
    except workloads.CheckFailed as exc:
        print(f"smoke corrupted kernel: caught ({exc})", file=sys.stderr)
    else:
        raise AssertionError("a corrupted kernel passed the formula check")
    timer = cost.EmpiricalTimer(g, extents={"M": 64, "N": 64}, reps=1,
                                source_filter=workloads.corrupt)
    report = timer(org)
    assert report.failed and report.diagnostic.startswith("numerical-mismatch"), report
    print(f"smoke EmpiricalTimer(source_filter=corrupt): {report.diagnostic}",
          file=sys.stderr)
    bench.sweep_tmp()
    print(json.dumps({"smoke": "ok"}))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "matfuse" / "__init__.py").is_file():
        print(f"error: no matfuse sources under {SRC}", file=sys.stderr)
        return 2
    pin_environment()
    try:
        return smoke() if args.smoke else run_workload(args)
    finally:
        shutil.rmtree(TMP, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
