"""Reference figures for a traced run: each max-fuse kernel next to its
unfused organism, next to the same computation as a sequence of numpy
(BLAS) calls, and a measured streaming bandwidth.  None of these is an
end-to-end metric; they put the generated code's speed in context.
"""

from __future__ import annotations

import subprocess
import tempfile
import time
from pathlib import Path

from matfuse import cemit, fuse, runtime

import oracles
from workloads import lowering

NUMPY_REPS = 3

# STREAM-style triad a = b + s*c on 2 threads; prints the best GB/s
# (24 computed bytes per element) over 10 repetitions.
TRIAD_C = r"""
#include <stdio.h>
#include <stdlib.h>
#include <time.h>
static double now_(void) {
    struct timespec ts; clock_gettime(CLOCK_MONOTONIC, &ts);
    return (double)ts.tv_sec + 1e-9 * (double)ts.tv_nsec;
}
int main(int argc, char **argv) {
    long n = argc > 1 ? atol(argv[1]) : 8388608;
    double *a = malloc(sizeof(double) * n), *b = malloc(sizeof(double) * n),
           *c = malloc(sizeof(double) * n);
    #pragma omp parallel for num_threads(2) schedule(static)
    for (long i = 0; i < n; ++i) { a[i] = 0.0; b[i] = 1.0; c[i] = 2.0; }
    double best = 1e300;
    for (int r = 0; r < 10; ++r) {
        double t0 = now_();
        #pragma omp parallel for num_threads(2) schedule(static)
        for (long i = 0; i < n; ++i) a[i] = b[i] + 3.0 * c[i];
        double dt = now_() - t0;
        if (dt < best) best = dt;
    }
    printf("gbs %.6f\ncheck %.1f\n", 24.0 * (double)n / best / 1e9, a[n - 1]);
    free(a); free(b); free(c);
    return 0;
}
"""


def stream_gbs(toolchain, tmp: Path, n: int) -> float:
    with tempfile.TemporaryDirectory(prefix="bench-", dir=tmp) as wd:
        binary = toolchain.compile(TRIAD_C, wd, name="triad")
        out = subprocess.run([str(binary), str(n)], capture_output=True,
                             text=True, timeout=120, check=True).stdout
    fields = dict(line.split() for line in out.splitlines())
    assert float(fields["check"]) == 7.0, out
    return float(fields["gbs"])


def numpy_seconds(kernel: str, inputs: dict) -> float:
    times = []
    for _ in range(NUMPY_REPS):
        t0 = time.perf_counter()
        oracles.expected(kernel, inputs)
        times.append(time.perf_counter() - t0)
    return min(times)


def unfused_seconds(toolchain, tmp: Path, g, extents: dict[str, int], reps: int):
    org = fuse.initial_forest(g)
    kern = cemit.emit_c(lowering.contract_arrays(lowering.lower(org, g)), extents)
    with tempfile.TemporaryDirectory(prefix="bench-", dir=tmp) as wd:
        binary = toolchain.compile(kern.source, wd, name="unfused")
        return runtime.time_binary(binary, extents, g.extent_names, reps)


def figures(bench, stream_n: int) -> dict:
    """Per max-fuse kernel of the run: seconds and computed GB/s of the
    max-fuse and unfused organisms and of numpy; plus triad bandwidth."""
    kernels = {}
    seconds = bench.kernel_seconds()
    for t in bench.targets:
        if (t.kernel, t.key) not in seconds:
            continue
        s = seconds[(t.kernel, t.key)]
        nbytes = oracles.computed_bytes(t.graph, t.extents)
        unfused = unfused_seconds(bench.toolchain, bench.tmp, t.graph, t.extents, t.reps)
        np_s = numpy_seconds(t.kernel, bench.inputs(t.graph, t.extents))
        kernels[t.kernel] = {
            "extents": t.extents, "computed_bytes": nbytes,
            "max_fuse_s": s, "max_fuse_gbs": nbytes / s / 1e9,
            "unfused_s": unfused, "unfused_gbs": nbytes / unfused / 1e9,
            "numpy_s": np_s, "numpy_gbs": nbytes / np_s / 1e9,
            "speedup_unfused": unfused / s,
        }
    return {"kernels": kernels,
            "stream_triad_gbs": stream_gbs(bench.toolchain, bench.tmp, stream_n),
            "stream_triad_elements": stream_n}
