"""C code emission for lowered kernels.

Emits a self-contained C99 file: the kernel function (arrays first in
declaration order, then output pointers, then extents) plus a timing and
validation main guarded by MATFUSE_NO_MAIN.  Partition nodes become
parallel-for pragmas over block indices with the thread count baked in;
the pragmas degrade to serial loops when compiled without OpenMP.
Partitioned reductions accumulate into per-thread partial buffers joined
in ascending block order after the region, so results are bit-stable
run to run at a fixed thread count.

Emission is deterministic: the same organism always yields byte-identical
source.
"""

from __future__ import annotations

from dataclasses import dataclass

from .fuse import canonical_key
from .graph import DataflowGraph, OpNode
from .lower import IRLoop, IRParallel, IRStmt, LoopIR, Storage, _unique


@dataclass(frozen=True)
class GeneratedKernel:
    source: str
    kernel_name: str
    params: tuple[tuple[str, str], ...]  # (C declaration, logical name)
    organism_key: str
    threads: tuple[int, ...]


class _Writer:
    def __init__(self):
        self.lines: list[str] = []
        self.depth = 0

    def put(self, text: str = ""):
        self.lines.append("    " * self.depth + text if text else "")

    def open(self, text: str):
        self.put(text + " {")
        self.depth += 1

    def close(self, suffix: str = ""):
        self.depth -= 1
        self.put("}" + suffix)

    def text(self) -> str:
        return "\n".join(self.lines) + "\n"


def _index(storage: Storage, block: str | None = None) -> str:
    """Flat index expression; loop variables are the axis labels."""
    labs = storage.labels
    exts = storage.extents
    if storage.order == "scalar":
        core = None
    elif storage.order == "vec":
        core = labs[0]
    elif storage.order == "row":
        core = f"{labs[0]} * {exts[1]} + {labs[1]}"
    else:  # col
        core = f"{labs[0]} + {labs[1]} * {exts[0]}"
    if block is None:
        return core or ""
    # partial buffer: leading per-block dim
    size = " * ".join(exts) if exts else "1"
    if core is None:
        return block
    return f"{block} * ({size}) + {core}"


class _Emitter:
    def __init__(self, ir: LoopIR):
        self.ir = ir
        self.graph = ir.graph
        self.w = _Writer()
        self.declared_contracted: set[str] = set()
        # collision-safe local names for contracted scalars
        self.scalar_names = {name: _unique(ir.storage, f"{name}_s")
                             for name, s in ir.storage.items()
                             if s.cls == "contracted"}
        # the kernel's own names, which the body's fixed names must avoid
        self.taken = {*ir.storage, *self.scalar_names.values(),
                      *self.graph.extent_names,
                      *(a.label for op in self.graph.ops for a in op.nest.axes)}

    def name(self, want: str) -> str:
        """`want`, or `want` plus underscores when the kernel uses it."""
        return _unique(self.taken, want)

    # -- reference rendering -------------------------------------------------

    def ref(self, name: str, block: str | None = None) -> str:
        s = self.ir.storage[name]
        if s.cls == "contracted":
            return self.scalar_names[name]
        if s.order == "scalar":
            if s.cls == "output":
                return f"(*{name})"
            return name
        if s.cls == "partial":
            return f"{name}[{_index(s, block)}]"
        return f"{name}[{_index(s)}]"

    # -- statements -----------------------------------------------------------

    def emit_stmt(self, stmt: IRStmt, block: str | None, in_region: bool):
        if stmt.role == "init":
            self.emit_init(stmt, block)
            return
        op = self.graph.op(stmt.op_id)
        operands = [self.ref(r.name) for r in op.operands]
        if op.kind == "copy":
            expr = operands[0]
        elif op.kind == "add":
            expr = f"{operands[0]} + {operands[1]}"
        elif op.kind == "subtract":
            expr = f"{operands[0]} - {operands[1]}"
        else:  # scale | multiply
            expr = f"{operands[0]} * {operands[1]}"
        accum = op.nest.reduction_axis is not None
        target = self.target_ref(op, block, in_region)
        res = self.ir.storage[op.result]
        if (res.cls == "contracted" and not accum
                and op.result not in self.declared_contracted):
            self.declared_contracted.add(op.result)
            self.w.put(f"double {target} = {expr};")
        elif accum:
            self.w.put(f"{target} += {expr};")
        else:
            self.w.put(f"{target} = {expr};")

    def target_ref(self, op: OpNode, block: str | None, in_region: bool) -> str:
        partial = self.ir.partial_for(op.result) if in_region else None
        if partial is not None:
            return f"{partial.name}[{_index(partial, block)}]"
        return self.ref(op.result)

    def emit_init(self, stmt: IRStmt, block: str | None):
        name = stmt.target
        s = self.ir.storage[name]
        if s.cls == "partial":
            self.w.put(f"{name}[{_index(s, block)}] = 0.0;")
        elif s.cls == "contracted":
            local = self.scalar_names[name]
            if name in self.declared_contracted:
                self.w.put(f"{local} = 0.0;")
            else:
                self.declared_contracted.add(name)
                self.w.put(f"double {local} = 0.0;")
        else:
            self.w.put(f"{self.ref(name)} = 0.0;")

    # -- structure -------------------------------------------------------------

    def emit_items(self, items: list, block: str | None, in_region: bool):
        for item in items:
            if isinstance(item, IRStmt):
                self.emit_stmt(item, block, in_region)
            elif isinstance(item, IRLoop):
                self.emit_loop(item, block, in_region)
            else:
                self.emit_region(item)

    def emit_loop(self, loop: IRLoop, block: str | None, in_region: bool):
        v = loop.axis
        if loop.sliced:
            lo, hi = self.name(f"{v}_lo"), self.name(f"{v}_hi")
            rng = f"long {v} = {lo}; {v} < {hi}; ++{v}"
        else:
            rng = f"long {v} = 0; {v} < {loop.extent}; ++{v}"
        self.w.open(f"for ({rng})")
        self.emit_items(loop.body, block, in_region)
        self.w.close()

    def emit_region(self, region: IRParallel):
        t = region.threads
        block = self.name(f"p{region.slot}")
        for result in region.partials:
            p = self.ir.partial_for(result)
            size = " * ".join([str(t)] + [f"(size_t){e}" for e in p.extents])
            self.w.put(
                f"double *{p.name} = (double *)malloc(sizeof(double) * "
                f"(size_t){size});"
            )
        self.w.put(
            f"#pragma omp parallel for num_threads({t}) schedule(static)"
        )
        self.w.open(f"for (long {block} = 0; {block} < {t}; ++{block})")
        ax, ext = region.axis, region.extent
        lo, hi = self.name(f"{ax}_lo"), self.name(f"{ax}_hi")
        self.w.put(f"long {lo} = ({ext} * {block}) / {t};")
        self.w.put(f"long {hi} = ({ext} * ({block} + 1)) / {t};")
        self.emit_items(region.body, block, True)
        self.w.close()
        for result in region.partials:
            self.emit_join(result, t)
        for result in region.partials:
            self.w.put(f"free({self.ir.partial_for(result).name});")

    def emit_join(self, result: str, t: int):
        p = self.ir.partial_for(result)
        b = self.name("b")
        if not p.extents:  # scalar reduction
            acc = self.name(f"{result}_acc")
            self.w.put(f"double {acc} = {p.name}[0];")
            self.w.open(f"for (long {b} = 1; {b} < {t}; ++{b})")
            self.w.put(f"{acc} += {p.name}[{b}];")
            self.w.close()
            self.w.put(f"{self.ref(result)} = {acc};")
            return
        assert len(p.extents) == 1, "only vector/scalar reductions join"
        lab, ext = p.labels[0], p.extents[0]
        acc = self.name("acc")
        self.w.open(f"for (long {lab} = 0; {lab} < {ext}; ++{lab})")
        self.w.put(f"double {acc} = {p.name}[{lab}];")
        self.w.open(f"for (long {b} = 1; {b} < {t}; ++{b})")
        self.w.put(f"{acc} += {p.name}[{b} * ({ext}) + {lab}];")
        self.w.close()
        self.w.put(f"{self.ref(result)} = {acc};")
        self.w.close()


def kernel_params(graph: DataflowGraph) -> list[tuple[str, str]]:
    """(C parameter declaration, name) in the fixed signature order."""
    spec = graph.spec
    params: list[tuple[str, str]] = []
    for name, decl in spec.inputs:
        if decl.kind == "scalar":
            params.append((f"double {name}", name))
        else:
            params.append((f"const double *restrict {name}", name))
    for name, decl in spec.outputs:
        if decl.kind == "scalar":
            params.append((f"double *{name}", name))
        else:
            params.append((f"double *restrict {name}", name))
    for ext in graph.extent_names:
        params.append((f"long {ext}", ext))
    return params


def _elements(storage: Storage) -> str:
    if not storage.extents:
        return "1"
    return " * ".join(f"(size_t){e}" for e in storage.extents)


def emit_c(ir: LoopIR, extents: dict[str, int] | None = None) -> GeneratedKernel:
    """Render a lowered (usually contracted) IR as a standalone C file."""
    graph = ir.graph
    spec = graph.spec
    extents = dict(extents or {})
    for name in graph.extent_names:
        extents.setdefault(name, 200)
    key = canonical_key(ir.organism)
    em = _Emitter(ir)
    w = em.w

    kname = spec.name.lower()
    params = kernel_params(graph)
    w.put(f"/* {spec.name}: generated kernel")
    w.put(f" * organism: {key or '(scalar)'}")
    w.put(" */")
    w.put("#include <stdio.h>")
    w.put("#include <stdlib.h>")
    w.put("#include <time.h>")
    w.put()
    w.open(f"void {kname}({', '.join(d for d, _ in params)})")

    # scalar temporaries up front, array temporaries on the heap
    for s in ir.storage.values():
        if s.cls == "temp" and s.order == "scalar":
            w.put(f"double {s.name} = 0.0;")
    for s in ir.storage.values():
        if s.cls == "temp" and s.order != "scalar":
            w.put(
                f"double *{s.name} = (double *)malloc(sizeof(double) * "
                f"{_elements(s)});"
            )
    em.emit_items(ir.roots, None, False)
    for s in ir.storage.values():
        if s.cls == "temp" and s.order != "scalar":
            w.put(f"free({s.name});")
    w.close()
    w.put()
    _emit_main(w, ir, kname, extents)
    return GeneratedKernel(
        w.text(), kname, tuple(params), key, ir.organism.threads
    )


def _emit_main(w: _Writer, ir: LoopIR, kname: str, extents: dict[str, int]):
    graph = ir.graph
    spec = graph.spec
    names = graph.extent_names
    # main's own locals and helpers must not shadow the kernel's names
    taken = {kname, *names, *(n for n, _ in spec.inputs + spec.outputs)}

    def local(want: str) -> str:
        name = _unique(taken, want)
        taken.add(name)
        return name

    rng_state, rnd, now, argc, argv, reps, q, best, r, t0, dt, checksum = map(
        local, ("rng_state_", "rnd_", "now_", "argc", "argv", "reps", "q",
                "best", "r", "t0", "dt", "checksum"))
    w.put("#ifndef MATFUSE_NO_MAIN")
    w.put(f"static unsigned long long {rng_state} = 88172645463325252ULL;")
    w.open(f"static double {rnd}(void)")
    w.put(f"{rng_state} = {rng_state} * 6364136223846793005ULL + "
          "1442695040888963407ULL;")
    w.put(f"return (double)({rng_state} >> 11) / 9007199254740992.0;")
    w.close()
    w.open(f"static double {now}(void)")
    w.put("struct timespec ts;")
    w.put("clock_gettime(CLOCK_MONOTONIC, &ts);")
    w.put("return (double)ts.tv_sec + 1e-9 * (double)ts.tv_nsec;")
    w.close()
    w.open(f"int main(int {argc}, char **{argv})")
    for pos, ext in enumerate(names):
        w.put(f"long {ext} = {argc} > {pos + 1} ? atol({argv}[{pos + 1}]) : "
              f"{extents[ext]};")
    w.put(f"long {reps} = {argc} > {len(names) + 1} ? "
          f"atol({argv}[{len(names) + 1}]) : 5;")
    args = []
    for name, decl in spec.inputs:
        s = ir.storage[name]
        if decl.kind == "scalar":
            w.put(f"double {name} = {rnd}();")
            args.append(name)
        else:
            w.put(f"double *{name} = (double *)malloc(sizeof(double) * "
                  f"{_elements(s)});")
            w.open(f"for (size_t {q} = 0; {q} < {_elements(s)}; ++{q})")
            w.put(f"{name}[{q}] = {rnd}();")
            w.close()
            args.append(name)
    for name, decl in spec.outputs:
        s = ir.storage[name]
        if decl.kind == "scalar":
            w.put(f"double {name} = 0.0;")
            args.append(f"&{name}")
        else:
            w.put(f"double *{name} = (double *)calloc({_elements(s)}, "
                  "sizeof(double));")
            args.append(name)
    call = f"{kname}({', '.join(args + list(names))});"
    w.put(call + " /* warm-up, untimed */")
    w.put(f"double {best} = 1e300;")
    w.open(f"for (long {r} = 0; {r} < {reps}; ++{r})")
    w.put(f"double {t0} = {now}();")
    w.put(call)
    w.put(f"double {dt} = {now}() - {t0};")
    w.put(f"if ({dt} < {best}) {best} = {dt};")
    w.close()
    w.put(f"double {checksum} = 0.0;")
    for name, decl in spec.outputs:
        s = ir.storage[name]
        if decl.kind == "scalar":
            w.put(f"{checksum} += {name};")
        else:
            w.open(f"for (size_t {q} = 0; {q} < {_elements(s)}; ++{q})")
            w.put(f"{checksum} += {name}[{q}];")
            w.close()
    w.put(f'printf("seconds %.9e\\nchecksum %.17g\\n", {best}, {checksum});')
    w.put("return 0;")
    w.close()
    w.put("#endif /* MATFUSE_NO_MAIN */")
