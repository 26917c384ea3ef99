"""The benchmark's workloads: their rounds, checks and figures.

Every round of every workload runs the same three parts, each through
matfuse's public API, and the workload sets how large each part is:

- search: `run_strategy` with mfga, ga and random on GEMVER under
  `AnalyticCost` (no C compiler);
- tune: an empirical tuning run (`random` strategy, `EmpiricalTimer`);
- build: organisms turned into validated binaries the way `matfuse
  compile` turns them (max-fuse -> lower -> contract -> emit -> cc ->
  validate), then the timing binary, launched several times.

A workload runs the part it is for at full size and the other two at a
small fixed size, so that every end-to-end metric is measured on every
workload.  Checks run between the parts, untimed and untraced.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import math
import re
import resource
import shutil
import statistics
import subprocess
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from matfuse import cemit, corpus, cost, fuse, graph, interp, lang, runtime, search

import oracles
from tracer import Tracer

lowering = importlib.import_module("matfuse.lower")  # `matfuse.lower` is the function

CORES = 2  # nproc of the reference machine: search, kernels and numpy use 2
STRATEGIES = ("mfga", "ga", "random")
CHECK_EXTENTS = (37, 23)  # small, unequal, not powers of two
VALIDATE_MAX = 64  # builds validate at min(extent, 64), like EmpiricalTimer
MATRIX_N = 3000  # matrix kernels: one 3000 x 3000 matrix is 72 MB
VECTOR_N = 1 << 23  # vector kernels: one vector is 64 MB
SETUP_PER_ROUND = 2  # set-up probes, spread over each round
# Computed traffic of the timed calls in one launch, about half a second
# of calls.  On the 2-vCPU reference machine a two-thread kernel started
# after its second vCPU sat idle lost whole scheduler ticks on every call
# for the first few hundred milliseconds; a launch this long times calls
# past that (see bench/README.md, "Steadiness").
LAUNCH_BYTES = 5e9


@dataclass(frozen=True)
class SearchPart:
    kernel: str
    seeds: tuple[int, ...]
    generations: int
    random_budget: int
    extents: int = 2000
    repeat: int = 1  # runs of each search per round


@dataclass(frozen=True)
class TunePart:
    kernel: str
    extents: int
    budget: int
    reps: int = 5
    repeat: int = 1  # tuning runs per round


@dataclass(frozen=True)
class BuildPart:
    """The max-fuse organism of each listed kernel."""

    kernels: tuple[str, ...]
    extents: int | None = None  # None: MATRIX_N or VECTOR_N by kernel shape
    repeat: int = 1  # builds of each organism per round


@dataclass(frozen=True)
class Workload:
    search: SearchPart
    tune: TunePart
    build: BuildPart


# The parts a workload is not for run small, but several times a round:
# the median of many short runs repeats far better on a shared machine
# than one short run per round.
SMALL_SEARCH = SearchPart("gemver", seeds=(0,), generations=4, random_budget=150,
                          repeat=3)
SMALL_TUNE = TunePart("gemver", extents=100, budget=2, reps=3, repeat=2)
CORPUS = tuple(corpus.available())

WORKLOADS = {
    "search-analytic": Workload(
        search=SearchPart("gemver", seeds=(0, 1, 2), generations=10,
                          random_budget=400),
        tune=SMALL_TUNE,
        build=BuildPart(("gemver",), repeat=2),
    ),
    "tune-empirical": Workload(
        search=SMALL_SEARCH,
        tune=TunePart("gemver", extents=1000, budget=10),
        build=BuildPart(("gemver",), repeat=2),
    ),
    "codegen-corpus": Workload(
        search=SMALL_SEARCH,
        tune=SMALL_TUNE,
        build=BuildPart(CORPUS),
    ),
}


def smoke_version(w: Workload) -> Workload:
    """The same workload at tiny sizes: one seed, a few evaluations."""
    return Workload(
        search=dataclasses.replace(w.search, seeds=w.search.seeds[:1], generations=2,
                                   random_budget=20, extents=200, repeat=1),
        tune=dataclasses.replace(w.tune, extents=64, budget=2, reps=1, repeat=1),
        build=dataclasses.replace(w.build, extents=64, repeat=1),
    )


def workload_kernels(w: Workload) -> list[str]:
    return sorted({w.search.kernel, w.tune.kernel, *w.build.kernels})


def load(name: str):
    """Parse and type-check one bundled kernel.  The calls go through the
    module attributes, so a traced round sees them."""
    spec = lang.parse_kernel(corpus.kernel_source(name))
    return graph.infer_types(graph.build_dataflow(spec))


def uniform(g, n: int) -> dict[str, int]:
    return {name: n for name in g.extent_names}


def geomean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


def spearman(a, b) -> float:
    """Spearman rank correlation, average ranks for ties, numpy only."""
    def ranks(x):
        x = np.asarray(x, dtype=np.float64)
        r = np.empty(len(x))
        r[np.argsort(x, kind="mergesort")] = np.arange(len(x), dtype=np.float64)
        for v in np.unique(x):
            r[x == v] = r[x == v].mean()
        return r
    ra, rb = ranks(a), ranks(b)
    if len(ra) < 2 or ra.std() == 0 or rb.std() == 0:
        return 0.0
    return float(np.corrcoef(ra, rb)[0, 1])


def describe(task) -> str:
    """`build_op(atax)` for a task made with functools.partial."""
    args = [str(getattr(a, "kernel", a)) for a in getattr(task, "args", ())]
    return f"{getattr(task, 'func', task).__name__}({', '.join(args)})"


class CheckFailed(AssertionError):
    pass


def require(ok: bool, what: str):
    if not ok:
        raise CheckFailed(what)


def corrupt(source: str) -> str:
    """Add 1.0 to the first array element the kernel stores: a wrong
    answer that still compiles."""
    return re.sub(r"(\n\s+\w+\[[^\]\n]+\] = )", r"\g<1>1.0 + ", source, count=1)


def cpu_seconds() -> float:
    """CPU time of this process and of its children that have ended (the
    C compiler, the timing binaries).  Kept next to the wall time as a
    diagnostic: unlike wall time it leaves out the time the hypervisor
    gives this machine's vCPUs to other guests."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


class Clock:
    """Measures a block in wall seconds (`wall`) and CPU seconds (`cpu`)."""

    def __enter__(self):
        self.c0, self.w0 = cpu_seconds(), time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.cpu = cpu_seconds() - self.c0
        self.wall = time.perf_counter() - self.w0
        return False


def interleave(groups: list[list]) -> list:
    """Merge task lists so that each list's tasks spread evenly over the
    round: a slow spell of the shared machine then hits every metric
    alike instead of one metric's whole sample."""
    keyed = [((i + 0.5) / len(g), gi, i, task)
             for gi, g in enumerate(groups) for i, task in enumerate(g)]
    return [task for *_, task in sorted(keyed, key=lambda k: k[:3])]


@dataclass
class Target:
    """One kernel whose max-fuse organism the build part turns into a
    binary every round."""

    kernel: str
    graph: object
    key: str
    extents: dict[str, int]
    reps: int  # timed calls per launch
    binary: Path | None = None  # built once before the rounds, for launches


class Bench:
    """One benchmark run of one workload: rounds of interleaved tasks,
    their checks, and the samples the metrics come from."""

    def __init__(self, workload: Workload, seed: int, tmp: Path, tracer: Tracer,
                 setup_probe=None):
        self.w = workload
        self.rng = np.random.default_rng(seed)
        self.tmp = tmp
        self.tracer = tracer
        self.setup_probe = setup_probe
        self.toolchain = runtime.Toolchain()
        if not self.toolchain.available:
            raise RuntimeError("no C compiler found (set MATFUSE_CC or install cc)")
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        # metric -> operation -> wall seconds, one entry per run of the
        # operation; `cpu` holds the same runs' CPU seconds (a diagnostic)
        self.samples: dict[str, dict[object, list[float]]] = {}
        self.cpu: dict[str, dict[object, list[float]]] = {}
        self.checked: set[tuple[str, str]] = set()  # organisms compiled once
        self.tune_keys: list[str] | None = None
        self.mfga_keys: dict[int, str] = {}
        self.candidates: list[tuple[object, float]] = []  # traced tune evals
        self.fig: dict = {}

    def _failed(self, what: str):
        self.failed += 1
        if what not in self.failures:
            self.failures.append(what)

    def _sample(self, metric: str, op, seconds: float, cpu: float | None = None):
        self.samples.setdefault(metric, {}).setdefault(op, []).append(seconds)
        if cpu is not None:
            self.cpu.setdefault(metric, {}).setdefault(op, []).append(cpu)

    def _machine(self, g, n: int):
        return cost.MachineModel(core_count=CORES, extents=tuple(uniform(g, n).items()))

    # -- before the rounds (untimed) ------------------------------------------

    def prepare(self):
        """The organisms to build, and one timing binary for each."""
        w = self.w
        self.search_graph = load(w.search.kernel)
        self.search_machine = self._machine(self.search_graph, w.search.extents)
        self.tune_graph = load(w.tune.kernel)
        self.targets: list[Target] = []
        self.bins = Path(tempfile.mkdtemp(prefix="bench-bins-", dir=self.tmp))
        for i, kernel in enumerate(w.build.kernels):
            g = load(kernel)
            n = w.build.extents or (MATRIX_N if len(g.extent_names) > 1 else VECTOR_N)
            org = search.max_fuse(g, CORES)
            ext = uniform(g, n)
            reps = max(3, math.ceil(LAUNCH_BYTES / oracles.computed_bytes(g, ext)))
            t = Target(kernel, g, fuse.canonical_key(org), ext, reps)
            self.targets.append(t)
            kern = cemit.emit_c(lowering.contract_arrays(lowering.lower(org, g)),
                                t.extents)
            wd = self.bins / str(i)
            wd.mkdir()
            try:
                t.binary = self.toolchain.compile(kern.source, wd, name="kernel_main")
            except runtime.ToolchainError:
                continue  # counted in every round's build of this target
            self.check_checksum(t.kernel, t.graph, t.binary)

    def _search_config(self, strategy: str, seed: int):
        part = self.w.search
        return search.SearchConfig(
            generations=part.generations,
            budget=part.random_budget if strategy == "random" else None,
            seed=seed, core_count=CORES)

    # -- tasks ----------------------------------------------------------------

    def search_op(self, strategy: str, seed: int):
        g, machine = self.search_graph, self.search_machine
        fitness = cost.cached(cost.AnalyticCost(g, machine))
        cfg = self._search_config(strategy, seed)
        self.attempted += 1
        with self.tracer.op("search", strategy=strategy, seed=seed), Clock() as clock:
            res = search.run_strategy(strategy, g, cfg, fitness)
        self._sample(f"search_s.{strategy}", seed, clock.wall, clock.cpu)
        self.fig["work_s"] += clock.wall
        self.tracer.count("search.fitness_calls", res.evaluations + res.cache_hits)
        self.tracer.count("search.unique_evals", res.evaluations)
        self.tracer.count("search.cache_hits", res.cache_hits)
        if strategy == "mfga":
            self.fig["mfga_best"][seed] = res.best_fitness
        with self.tracer.paused():
            kernel = self.w.search.kernel
            self.check_winner(kernel, g, res.best)
            again = cost.estimate_cost(res.best, g, machine).total
            require(again == res.best_fitness,
                    f"{strategy}: estimate_cost gives {again}, "
                    f"the search reported {res.best_fitness}")
            if strategy == "mfga":
                seed_cost = cost.estimate_cost(search.max_fuse(g, CORES), g, machine).total
                require(res.best_fitness <= seed_cost,
                        f"mfga best {res.best_fitness} costs more than "
                        f"its max-fuse seed {seed_cost}")
                first = self.mfga_keys.setdefault(seed, res.best_key)
                require(res.best_key == first,
                        f"mfga seed {seed} found {res.best_key}, not {first} as before")

    def tune_op(self):
        part, g = self.w.tune, self.tune_graph
        timer = cost.EmpiricalTimer(g, self.toolchain, uniform(g, part.extents),
                                    reps=part.reps)
        cfg = search.SearchConfig(budget=part.budget, seed=0, core_count=CORES)
        self.attempted += 1
        with self.tracer.op("tune", kernel=part.kernel), Clock() as clock:
            res = search.run_strategy("random", g, cfg, cost.cached(timer))
        self._sample("tune_s", part.kernel, clock.wall, clock.cpu)
        self.fig["work_s"] += clock.wall
        if any(math.isinf(e.fitness) for e in res.log):
            self._failed(f"tuning {part.kernel}: a candidate failed")
        with self.tracer.paused():
            keys = [e.key for e in res.log]
            if self.tune_keys is None:
                self.tune_keys = keys
            require(keys == self.tune_keys,
                    "the tuning run evaluated a different key sequence")
            require(len(keys) == part.budget,
                    f"the tuning run made {len(keys)} evaluations, not {part.budget}")
            self.check_winner(part.kernel, g, res.best)

    def build_op(self, t: Target):
        """max-fuse -> lower -> contract -> emit -> cc -> validate, then cc
        of the timing binary: one kernel into a validated binary."""
        g = t.graph
        vext = {n: min(VALIDATE_MAX, v) for n, v in t.extents.items()}
        inputs = self.inputs(g, vext)
        self.attempted += 1
        with tempfile.TemporaryDirectory(prefix="bench-", dir=self.tmp) as wd:
            with self.tracer.op("build", kernel=t.kernel), Clock() as clock:
                org = search.max_fuse(g, CORES)
                kern = cemit.emit_c(lowering.contract_arrays(lowering.lower(org, g)),
                                    t.extents)
                lib = self.toolchain.compile(kern.source, wd, name="kernel", shared=True)
                got = runtime.run_kernel(lib, kern, g, inputs, vext)
                own_err = runtime.max_rel_error(
                    got, interp.reference_evaluate(g.spec, inputs))
                try:
                    binary = self.toolchain.compile(kern.source, wd, name="kernel_main")
                except runtime.ToolchainError:
                    binary = None
            self._sample("compile_s", (t.kernel, t.key), clock.wall, clock.cpu)
            self.fig["work_s"] += clock.wall
            if binary is None:
                self._failed(f"timing build of {t.kernel}")
            with self.tracer.paused():
                require(fuse.canonical_key(org) == t.key,
                        f"{t.kernel}: built {fuse.canonical_key(org)}, expected {t.key}")
                require(own_err < oracles.REL_TOL,
                        f"{t.kernel}: matfuse's own validation error {own_err:.3e}")
                err = oracles.rel_error(got, oracles.expected(t.kernel, inputs))
                require(err < oracles.REL_TOL,
                        f"{t.kernel}: output error {err:.3e} against the numpy formula")
                if binary is not None:
                    self.check_checksum(t.kernel, g, binary)

    def launch_op(self, t: Target):
        self.attempted += 1
        with self.tracer.op("launch", kernel=t.kernel):
            try:
                s = runtime.time_binary(t.binary, t.extents, t.graph.extent_names, t.reps)
            except runtime.ToolchainError:
                self._failed(f"launch of {t.kernel}")
                return
        self._sample("kernel_s", (t.kernel, t.key), s)

    def setup_op(self):
        self.attempted += 1
        cpu, wall = self.setup_probe(workload_kernels(self.w))
        self._sample("setup_s", "probe", wall, cpu)

    # -- checks (untimed, untraced) -------------------------------------------

    def inputs(self, g, extents: dict[str, int]) -> dict:
        """Check inputs drawn from the run's `--seed`."""
        return runtime.random_inputs(g, extents, seed=int(self.rng.integers(1 << 31)))

    def check_checksum(self, kernel: str, g, binary: Path):
        ext = dict(zip(g.extent_names, CHECK_EXTENTS))
        argv = [str(binary)] + [str(ext[n]) for n in g.extent_names] + ["1"]
        out = subprocess.run(argv, capture_output=True, text=True, timeout=60)
        require(out.returncode == 0, f"{kernel}: timing binary exit {out.returncode}")
        lines = [ln for ln in out.stdout.splitlines() if ln.startswith("checksum ")]
        require(len(lines) == 1, f"{kernel}: the timing binary printed no checksum")
        got = float(lines[0].split()[1])
        want = oracles.expected_checksum(kernel, g, ext)
        require(oracles.checksum_ok(got, want),
                f"{kernel}: checksum {got!r}, formula gives {want!r}")

    def check_winner(self, kernel: str, g, org, source_filter=None):
        """Legality, then compile at small extents and compare with the
        formula.  Each organism is compiled once per run."""
        key = fuse.canonical_key(org)
        if source_filter is None and (kernel, key) in self.checked:
            return
        require(fuse.fusion_legal(org, g) is None, f"{kernel}: winner {key} is illegal")
        ext = dict(zip(g.extent_names, CHECK_EXTENTS))
        kern = cemit.emit_c(lowering.contract_arrays(lowering.lower(org, g)), ext)
        text = kern.source if source_filter is None else source_filter(kern.source)
        with tempfile.TemporaryDirectory(prefix="bench-", dir=self.tmp) as wd:
            lib = self.toolchain.compile(text, wd, name="check", shared=True)
            inputs = self.inputs(g, ext)
            got = runtime.run_kernel(lib, kern, g, inputs, ext)
        err = oracles.rel_error(got, oracles.expected(kernel, inputs))
        require(err < oracles.REL_TOL, f"{kernel}: organism {key} error {err:.3e}")
        if source_filter is None:
            self.checked.add((kernel, key))

    # -- rounds ---------------------------------------------------------------

    def round(self) -> dict:
        """Every task of the workload once, interleaved; returns the
        round's own figures."""
        w = self.w
        self.fig = {"work_s": 0.0, "mfga_best": {}}
        for name in workload_kernels(w):
            load(name)
        tasks = [
            [functools.partial(self.search_op, strategy, seed)
             for _ in range(w.search.repeat)
             for seed in w.search.seeds for strategy in STRATEGIES],
            [self.tune_op] * w.tune.repeat,
            [functools.partial(self.build_op, t)
             for _ in range(w.build.repeat) for t in self.targets],
            [functools.partial(self.launch_op, t) for t in self.targets if t.binary],
        ]
        if self.setup_probe is not None:
            tasks.append([self.setup_op] * SETUP_PER_ROUND)
        for task in interleave(tasks):
            try:
                task()
            except CheckFailed:
                raise
            except Exception as exc:  # a fault of the program: count it, go on
                self._failed(f"{describe(task)}: {type(exc).__name__}: {exc}")
        self.fig["best_cost.mfga"] = sum(self.fig.pop("mfga_best").values())
        self.fig["tmp_dirs_left"] = self.sweep_tmp()
        return self.fig

    def sweep_tmp(self) -> int:
        """Count the program's leftover `matfuse-*` directories, then
        delete them and every other round-scoped file."""
        left = 0
        for entry in self.tmp.iterdir():
            if entry.name.startswith("bench-bins-"):
                continue
            left += entry.name.startswith("matfuse-")
            if entry.is_dir():
                shutil.rmtree(entry, ignore_errors=True)
            else:
                entry.unlink(missing_ok=True)
        return left

    def close(self):
        shutil.rmtree(self.bins, ignore_errors=True)

    # -- metrics --------------------------------------------------------------

    def model_fidelity(self) -> tuple[float, float]:
        """Over the traced round's tuning candidates: the Spearman
        correlation of analytic cost with measured seconds, and the
        measured time of the model's pick over the measured best."""
        machine = self._machine(self.tune_graph, self.w.tune.extents)
        model = [cost.estimate_cost(org, self.tune_graph, machine).total
                 for org, _ in self.candidates]
        measured = [s for _, s in self.candidates]
        pick = min(range(len(model)), key=model.__getitem__)
        return spearman(model, measured), measured[pick] / min(measured)

    def total(self, metric: str) -> float:
        """Sum over the metric's operations of each one's median."""
        return sum(statistics.median(v) for v in self.samples[metric].values())

    def kernel_seconds(self) -> dict[tuple[str, str], float]:
        """Per launched organism: the fastest launch's min-of-reps.  Noise
        here only ever slows a launch (a vCPU lent to another guest stalls
        a two-thread kernel for whole 4 ms scheduler ticks), so the fastest
        launch is the steadiest estimate."""
        return {op: min(v) for op, v in sorted(self.samples.get("kernel_s", {}).items())}
