"""Command-line driver.

Subcommands:

    compile    lower one kernel (max-fuse or a given organism) to C
    search     run a search strategy, write best.c + log.jsonl + summary
    enumerate  list the legal organisms search --strategy exhaustive walks
    corpus     type-check, max-fuse and validate the bundled kernels

Each command takes only the options it reads; any other is a usage
error.  Exit codes are a stable contract (EXIT_CODES maps each error to
its code): 0 success, 1 usage or environment problem, 2 kernel
legality/type error, 3 toolchain error (for search: also no candidate
succeeded).  A corpus run that fails several ways exits with the first
of 1, 3, 2 that applies.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import sys
import tempfile
from pathlib import Path

from . import corpus as corpus_mod
from .cost import AnalyticCost, EmpiricalTimer, MachineModel, cached
from .cemit import emit_c
from .fuse import (
    THREAD_MODES, Limits, NotationError, SpaceError, canonical_key,
    digit_space_size, enumerate_space, format_notation, fusion_legal,
    parse_notation,
)
from .graph import TypeCheckError, build_dataflow, infer_types
from .lang import KernelSpecError, KernelSyntaxError, free_vars, parse_kernel
from .lower import contract_arrays, lower
from .runtime import REL_TOL, Toolchain, ToolchainError, validation_error
from .search import STRATEGIES, SearchConfig, max_fuse, run_strategy

EXIT_USAGE = 1
EXIT_KERNEL = 2
EXIT_TOOLCHAIN = 3

# the exit code of each error a command reports without a traceback, found
# by the error's nearest class here.  OSError and UnicodeError: a file that
# is missing, a directory or unreadable, or a kernel file that is not UTF-8
EXIT_CODES = {
    KernelSyntaxError: EXIT_KERNEL,
    KernelSpecError: EXIT_KERNEL,
    TypeCheckError: EXIT_KERNEL,
    NotationError: EXIT_KERNEL,
    ToolchainError: EXIT_TOOLCHAIN,
    SpaceError: EXIT_USAGE,
    OSError: EXIT_USAGE,
    UnicodeError: EXIT_USAGE,
}
REPORTED = tuple(EXIT_CODES)


def _exit_code(exc: Exception) -> int:
    return next(EXIT_CODES[cls] for cls in type(exc).__mro__
                if cls in EXIT_CODES)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _load_graph(path: str):
    text = corpus_mod.read_source(path)
    return infer_types(build_dataflow(parse_kernel(text)))


def _json(value, indent: int | None = None) -> str:
    """JSON text of `value`, with null for every non-finite float: the
    Infinity and NaN that json.dumps would write are not JSON."""
    def finite(v):
        if isinstance(v, float) and not math.isfinite(v):
            return None
        if isinstance(v, dict):
            return {k: finite(x) for k, x in v.items()}
        if isinstance(v, list):
            return [finite(x) for x in v]
        return v
    return json.dumps(finite(value), indent=indent, allow_nan=False)


def _at_least(low: int):
    """An argparse type: an integer no smaller than `low`."""
    def integer(text: str) -> int:
        value = int(text)  # argparse reports a ValueError as invalid
        if value < low:
            raise argparse.ArgumentTypeError(
                f"must be at least {low}, got {value}")
        return value

    return integer


def _extent_list(text: str) -> list[int]:
    """An argparse type: comma-separated non-negative extents."""
    try:
        vals = [int(v) for v in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"extents must be comma-separated integers, got {text!r}"
        ) from None
    if min(vals) < 0:
        raise argparse.ArgumentTypeError(
            f"extents must not be negative, got {text!r}")
    return vals


def _bind_extents(vals: list[int], graph) -> dict[str, int]:
    """The kernel's extent names bound in order; the last value repeats."""
    names = list(graph.extent_names)
    if len(vals) < len(names):
        vals = vals + [vals[-1]] * (len(names) - len(vals))
    return dict(zip(names, vals))


def _emit(org, graph, extents):
    return emit_c(contract_arrays(lower(org, graph)), extents)


def _toolchain(args, empirical: bool = False) -> Toolchain | None:
    """The command's one C compiler: for validating the C it writes unless
    --no-validate, and for `empirical` fitness.  None when nothing needs
    one; finding none is a toolchain error."""
    if args.no_validate and not empirical:
        return None
    toolchain = Toolchain(args.cc, args.cc_template)
    if not toolchain.available:
        raise ToolchainError("compile-failure", (
            "empirical fitness needs a C compiler" if args.no_validate
            else "validation needs a C compiler (or --no-validate)"))
    return toolchain


def _check(kernel, graph, extents, toolchain: Toolchain | None,
           entry: dict | None = None) -> int:
    """Build the written `kernel` once in a temporary directory and run it
    in validation mode at `extents`, unless `toolchain` is None: the exit
    code, 0 when it matches the reference.  The result is printed, or
    recorded in a corpus report's `entry`."""
    if toolchain is None:
        return 0
    with tempfile.TemporaryDirectory(prefix="matfuse-") as wd:
        binary = toolchain.compile(kernel.source, wd)
        err = validation_error(binary, graph, extents, seed=11)
    code = 0 if err < REL_TOL else EXIT_KERNEL
    if entry is not None:
        entry.update(max_rel_error=err, validated=not code)
    else:
        print(f"validated against reference: max relative error {err:.3e}")
        if code:
            print("error: kernel output mismatch", file=sys.stderr)
    return code


# ---------------------------------------------------------------------------
# compile

def cmd_compile(args) -> int:
    graph = _load_graph(args.kernel)
    if args.organism:
        org = parse_notation(args.organism, graph, threads=args.cores)
        diag = fusion_legal(org, graph, not args.no_prune)
        if diag is not None:
            print(f"error: {diag}", file=sys.stderr)
            return EXIT_KERNEL
    else:
        org = max_fuse(graph, args.cores)
    extents = _bind_extents(args.extents, graph)
    kernel = _emit(org, graph, extents)
    out = Path(args.output)
    out.write_text(kernel.source)
    print(f"organism: {format_notation(org) or '(scalar)'}")
    if org.threads:
        print(f"threads: {','.join(str(t) for t in org.threads)}")
    print(f"wrote {out}")
    return _check(kernel, graph, extents, _toolchain(args))


# ---------------------------------------------------------------------------
# search

def cmd_search(args) -> int:
    graph = _load_graph(args.kernel)
    extents = _bind_extents(args.extents, graph)
    toolchain = _toolchain(args, empirical=args.fitness == "empirical")
    cfg = SearchConfig(
        population=args.population,
        tournament_k=args.tournament,
        generations=args.generations,
        budget=args.budget,
        seed=args.seed,
        thread_mode=args.threads_mode,
        core_count=args.cores,
        max_ops_exhaustive=args.max_ops,
        require_shared_operand=not args.no_prune,
    )
    if args.fitness == "analytic":
        machine = MachineModel(
            core_count=args.cores,
            extents=tuple(extents.items()),
        )
        fitness = cached(AnalyticCost(graph, machine))
    else:
        fitness = cached(EmpiricalTimer(graph, toolchain, extents,
                                        reps=args.reps))
    result = run_strategy(args.strategy, graph, cfg, fitness)
    outdir = Path(args.out_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    log_path = outdir / "log.jsonl"
    with log_path.open("a") as fh:
        for entry in result.log:
            fh.write(_json(entry.as_dict()) + "\n")
    kernel = _emit(result.best, graph, extents)
    (outdir / "best.c").write_text(kernel.source)
    summary = {
        "kernel": graph.spec.name,
        "strategy": result.strategy,
        "best": result.best_key,
        "fitness": result.best_fitness,
        "evaluations": result.evaluations,
        "cache_hits": result.cache_hits,
        "sweep_candidates": result.sweeps,
        "seed": cfg.seed,
        "fitness_source": args.fitness,
    }
    (outdir / "summary.json").write_text(_json(summary, indent=2) + "\n")
    print(_json(summary, indent=2))
    if result.best_report.failed:
        print(f"error: no candidate succeeded "
              f"({result.best_report.diagnostic})", file=sys.stderr)
        return EXIT_TOOLCHAIN
    return _check(kernel, graph, extents,
                  None if args.no_validate else toolchain)


# ---------------------------------------------------------------------------
# enumerate

def cmd_enumerate(args) -> int:
    graph = _load_graph(args.kernel)
    limits = Limits(
        max_ops=args.max_ops,
        max_threads=args.cores,
        thread_mode=args.threads_mode,
        partitions=not args.fusion_only,
        require_shared_operand=not args.no_prune,
    )
    count = 0
    for org in enumerate_space(graph, limits):
        count += 1
        if not args.count_only:
            print(canonical_key(org))
    print(f"total {count}")
    if args.digit_space:
        n = len(graph.ops)
        max_depth = max(
            (len(op.nest.labels()) for op in graph.ops), default=0
        ) + 1  # one partition level on top of the deepest loop nest
        size = digit_space_size(n, max_depth, args.cores)
        print(f"digit-space {size}")
        print(f"ratio {count / size:.6%}")
    return 0


# ---------------------------------------------------------------------------
# corpus

def cmd_corpus(args) -> int:
    directory = Path(args.corpus_dir) if args.corpus_dir else None
    if directory is not None and not any(directory.glob("*.bto")):
        print(f"error: no kernels found in {directory}", file=sys.stderr)
        return EXIT_USAGE
    names = [args.kernel.lower()] if args.kernel else list(
        corpus_mod.TABLE_KERNELS)
    toolchain = _toolchain(args)
    report = []
    failures = set()  # the exit code of each way an entry failed
    for name in names:
        entry = {"kernel": name}
        try:
            spec = corpus_mod.load_kernel(name, directory)
            graph = infer_types(build_dataflow(spec))
            org = max_fuse(graph, args.cores)
            reuse = {}
            for out, _ in spec.outputs:
                uses = sum(
                    1 for stmt in spec.statements
                    if out in free_vars(stmt.value)
                )
                if uses:
                    reuse[out] = uses
            entry.update(
                statements=len(spec.statements),
                ops=len(graph.ops),
                output_reuse=reuse,
                max_fuse=format_notation(org),
            )
            if toolchain is not None:
                extents = _bind_extents(args.extents, graph)
                failures.add(_check(_emit(org, graph, extents), graph,
                                    extents, toolchain, entry))
        except REPORTED as exc:
            entry["error"] = str(exc)
            failures.add(_exit_code(exc))
        report.append(entry)
    print(_json(report, indent=2))
    return next((code for code in (EXIT_USAGE, EXIT_TOOLCHAIN, EXIT_KERNEL)
                 if code in failures), 0)


# ---------------------------------------------------------------------------

# options that several commands take, by flag
OPTIONS = {
    "--cores": dict(type=_at_least(1), default=8,
                    help="the largest thread count: max-fuse's and "
                         "--organism's partitions get it, and the thread "
                         "sweep and enumerate stop there"),
    "--extents": dict(type=_extent_list, default="1000,1000",
                      help="problem extents, comma separated (M,N)"),
    "--cc": dict(default=None, help="C compiler (env MATFUSE_CC)"),
    "--cc-template": dict(
        default="", help="compile command template with {cc} {src} {bin}"),
    "--no-validate": dict(action="store_true",
                          help="skip reference validation of written C"),
    "--no-prune": dict(
        action="store_true",
        help="disable the shared-operand fusion pruning heuristic"),
    "--threads-mode": dict(choices=THREAD_MODES, default="global"),
}
BUILD = ("--extents", "--cc", "--cc-template", "--no-validate")


def _add(p, *flags):
    for flag in flags:
        p.add_argument(flag, **OPTIONS[flag])


def build_parser() -> _Parser:
    parser = _Parser(prog="matfuse",
                     description="fused matrix-algebra kernel compiler "
                                 "and autotuner")
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compile", help="emit C for one kernel")
    p.add_argument("kernel", help="kernel .bto file")
    p.add_argument("--organism", default=None,
                   help="fuse-set notation; default: max-fuse result")
    p.add_argument("-o", "--output", default="kernel.c")
    _add(p, "--cores", *BUILD, "--no-prune")
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("search", help="run a search strategy")
    p.add_argument("kernel")
    p.add_argument("--strategy", choices=STRATEGIES, default="mfga")
    p.add_argument("--fitness", choices=("analytic", "empirical"),
                   default="analytic")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget", type=_at_least(0), default=None,
                   help="max unique fitness evaluations")
    p.add_argument("--generations", type=_at_least(0), default=50)
    p.add_argument("--population", type=_at_least(2), default=20)
    p.add_argument("--tournament", type=_at_least(1), default=2)
    _add(p, "--threads-mode")
    p.add_argument("--max-ops", type=_at_least(1), default=4,
                   help="exhaustive/orthogonal enumeration op limit")
    p.add_argument("--reps", type=_at_least(1), default=5,
                   help="timing repetitions for empirical fitness")
    p.add_argument("--out-dir", default="search-out")
    _add(p, "--cores", *BUILD, "--no-prune")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("enumerate", help="list every legal organism")
    p.add_argument("kernel")
    p.add_argument("--max-ops", type=_at_least(1), default=4)
    _add(p, "--threads-mode")
    p.add_argument("--fusion-only", action="store_true",
                   help="enumerate loop fusion only, no partitions")
    p.add_argument("--count-only", action="store_true")
    p.add_argument("--digit-space", action="store_true",
                   help="also print the legacy digit-encoding size")
    _add(p, "--cores", "--no-prune")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("corpus", help="check the bundled kernels")
    p.add_argument("--kernel", default=None, help="run one kernel only")
    p.add_argument("--corpus-dir", default=None)
    _add(p, "--cores", *BUILD)
    p.set_defaults(func=cmd_corpus)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.WARNING
    )
    try:
        return args.func(args)
    except REPORTED as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _exit_code(exc)


if __name__ == "__main__":
    sys.exit(main())
