"""Command-line driver.

Subcommands:

    compile    lower one kernel (max-fuse or a given organism) to C
    search     run a search strategy, write best.c + log.jsonl + summary
    enumerate  list every legal organism of a small kernel
    corpus     type-check, max-fuse and validate the bundled kernels

Exit codes are a stable contract: 0 success, 1 usage or environment
problem, 2 kernel legality/type error, 3 toolchain error (for search:
also no candidate succeeded).  A corpus run that fails several ways
exits with the first of 1, 3, 2 that applies.
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
    Limits, NotationError, SpaceError, canonical_key, dependence_diagnostic,
    digit_space_size, enumerate_space, format_notation, fusion_legal,
    parse_notation,
)
from .graph import TypeCheckError, bits, build_dataflow, infer_types
from .lang import KernelSpecError, KernelSyntaxError, free_vars, parse_kernel
from .lower import contract_arrays, lower
from .runtime import REL_TOL, Toolchain, ToolchainError, validation_error
from .search import STRATEGIES, SearchConfig, max_fuse, run_strategy

logger = logging.getLogger(__name__)

EXIT_USAGE = 1
EXIT_KERNEL = 2
EXIT_TOOLCHAIN = 3

# a file that is missing, a directory or unreadable, or a kernel file that
# is not UTF-8 text: an environment problem, reported without a traceback
FILE_ERRORS = (OSError, UnicodeError)


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


def _grouping_diagnostic(exc: NotationError, graph):
    """When a notation fails, check whether the top-level groups the
    parser read already break dependence convexity, to report the real
    problem."""
    for group in exc.groups:
        if group.bit_count() > 1:
            diag = dependence_diagnostic(list(bits(group)), graph)
            if diag is not None:
                return diag
    return None


def _emit(org, graph, extents):
    return emit_c(contract_arrays(lower(org, graph)), extents)


def _validate(kernel, graph, extents, toolchain) -> float:
    """Build `kernel` once in a temporary directory and run that binary in
    validation mode at `extents`."""
    with tempfile.TemporaryDirectory(prefix="matfuse-") as wd:
        binary = toolchain.compile(kernel.source, wd)
        return validation_error(binary, graph, extents, seed=11)


def _validator(args) -> Toolchain | None:
    """The compiler that validates the C a command writes, or None under
    --no-validate.  Finding none is a toolchain error."""
    if args.no_validate:
        return None
    toolchain = Toolchain(args.cc, args.cc_template)
    if not toolchain.available:
        raise ToolchainError("compile-failure", "validation needs a C "
                             "compiler (or --no-validate)")
    return toolchain


def _check(kernel, graph, extents, toolchain: Toolchain | None) -> int:
    """Validate the written `kernel` unless `toolchain` is None: the exit
    code, 0 when it matches the reference."""
    if toolchain is None:
        return 0
    err = _validate(kernel, graph, extents, toolchain)
    print(f"validated against reference: max relative error {err:.3e}")
    if not err < REL_TOL:
        print("error: kernel output mismatch", file=sys.stderr)
        return EXIT_KERNEL
    return 0


# ---------------------------------------------------------------------------
# compile

def cmd_compile(args) -> int:
    graph = _load_graph(args.kernel)
    if args.organism:
        try:
            org = parse_notation(args.organism, graph, threads=args.cores)
        except NotationError as exc:
            diag = _grouping_diagnostic(exc, graph)
            print(f"error: {diag or exc}", file=sys.stderr)
            return EXIT_KERNEL
        diag = fusion_legal(org, graph)
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
    return _check(kernel, graph, extents, _validator(args))


# ---------------------------------------------------------------------------
# search

def cmd_search(args) -> int:
    graph = _load_graph(args.kernel)
    extents = _bind_extents(args.extents, graph)
    validator = _validator(args)
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
        toolchain = Toolchain(args.cc, args.cc_template)
        if not toolchain.available:
            print("error: empirical fitness needs a C compiler",
                  file=sys.stderr)
            return EXIT_TOOLCHAIN
        fitness = cached(EmpiricalTimer(graph, toolchain, extents,
                                        reps=args.reps))
    try:
        result = run_strategy(args.strategy, graph, cfg, fitness)
    except SpaceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
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
    return _check(kernel, graph, extents, validator)


# ---------------------------------------------------------------------------
# enumerate

def cmd_enumerate(args) -> int:
    graph = _load_graph(args.kernel)
    limits = Limits(
        max_ops=args.max_ops,
        max_threads=args.max_threads,
        thread_mode=args.threads_mode,
        core_count=args.cores,
        partitions=not args.fusion_only,
        require_shared_operand=not args.no_prune,
    )
    try:
        count = 0
        for org in enumerate_space(graph, limits):
            count += 1
            if not args.count_only:
                print(canonical_key(org))
        print(f"total {count}")
    except SpaceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.digit_space:
        n = len(graph.ops)
        max_depth = max(
            (len(op.nest.labels()) for op in graph.ops), default=0
        ) + 1  # one partition level on top of the deepest loop nest
        size = digit_space_size(n, max_depth, args.max_threads)
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
    toolchain = _validator(args)
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
                err = _validate(_emit(org, graph, extents), graph, extents,
                                toolchain)
                entry["max_rel_error"] = err
                entry["validated"] = bool(err < REL_TOL)
                if not entry["validated"]:
                    failures.add(EXIT_KERNEL)
        except (KernelSyntaxError, KernelSpecError, TypeCheckError) as exc:
            entry["error"] = str(exc)
            failures.add(EXIT_KERNEL)
        except FILE_ERRORS as exc:
            entry["error"] = str(exc)
            failures.add(EXIT_USAGE)
        except ToolchainError as exc:
            entry["error"] = str(exc)
            failures.add(EXIT_TOOLCHAIN)
        report.append(entry)
    print(_json(report, indent=2))
    return next((code for code in (EXIT_USAGE, EXIT_TOOLCHAIN, EXIT_KERNEL)
                 if code in failures), 0)


# ---------------------------------------------------------------------------

def _add_common(p):
    p.add_argument("--cores", type=_at_least(1), default=8,
                   help="core count for partitioning and thread sweeps")
    p.add_argument("--extents", type=_extent_list, default="1000,1000",
                   help="problem extents, comma separated (M,N)")
    p.add_argument("--cc", default=None, help="C compiler (env MATFUSE_CC)")
    p.add_argument("--cc-template", default="",
                   help="compile command template with {cc} {src} {bin}")
    p.add_argument("--no-validate", action="store_true",
                   help="skip reference validation of written C")
    p.add_argument("--no-prune", action="store_true",
                   help="disable the shared-operand fusion pruning heuristic")


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
    _add_common(p)
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
    p.add_argument("--threads-mode", choices=("const", "global", "exhaustive"),
                   default="global")
    p.add_argument("--max-ops", type=_at_least(1), default=4,
                   help="exhaustive/orthogonal enumeration op limit")
    p.add_argument("--reps", type=_at_least(1), default=5,
                   help="timing repetitions for empirical fitness")
    p.add_argument("--out-dir", default="search-out")
    _add_common(p)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("enumerate", help="list every legal organism")
    p.add_argument("kernel")
    p.add_argument("--max-ops", type=_at_least(1), default=4)
    p.add_argument("--max-threads", type=_at_least(1), default=8)
    p.add_argument("--threads-mode", choices=("const", "global", "exhaustive"),
                   default="global")
    p.add_argument("--fusion-only", action="store_true",
                   help="enumerate loop fusion only, no partitions")
    p.add_argument("--count-only", action="store_true")
    p.add_argument("--digit-space", action="store_true",
                   help="also print the legacy digit-encoding size")
    _add_common(p)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("corpus", help="check the bundled kernels")
    p.add_argument("--kernel", default=None, help="run one kernel only")
    p.add_argument("--corpus-dir", default=None)
    _add_common(p)
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
    except (KernelSyntaxError, KernelSpecError, TypeCheckError,
            NotationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_KERNEL
    except ToolchainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_TOOLCHAIN
    except FILE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
