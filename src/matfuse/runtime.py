"""Compile and run generated kernels: toolchain config, ctypes loading.

The toolchain is a command template with {cc}, {src} and {bin} holes,
overridable via the MATFUSE_CC and MATFUSE_CC_TEMPLATE environment
variables.  Validation builds a shared object (main compiled out) and
calls the kernel through ctypes on numpy buffers; timing builds the
standalone binary and parses the "seconds <float>" line it prints.
"""

from __future__ import annotations

import atexit
import ctypes
import math
import os
import shlex
import shutil
import subprocess
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import interp
from .cemit import GeneratedKernel
from .graph import DataflowGraph

DEFAULT_TEMPLATE = "{cc} -O3 -fopenmp {src} -o {bin}"


class ToolchainError(RuntimeError):
    pass


def find_cc() -> str | None:
    env = os.environ.get("MATFUSE_CC")
    if env:
        return env
    for cand in ("cc", "gcc", "clang"):
        if shutil.which(cand):
            return cand
    return None


@dataclass
class Toolchain:
    cc: str | None = None
    template: str = ""

    def __post_init__(self):
        if not self.cc:
            self.cc = find_cc()
        if not self.template:
            self.template = os.environ.get("MATFUSE_CC_TEMPLATE",
                                           DEFAULT_TEMPLATE)

    @property
    def available(self) -> bool:
        return self.cc is not None and shutil.which(self.cc) is not None

    def command(self, src: str, binary: str,
                extra: tuple[str, ...] = ()) -> list[str]:
        if not self.available:
            raise ToolchainError(
                "no C compiler found (set MATFUSE_CC or install cc/gcc)"
            )
        words = shlex.split(
            self.template.format(cc=self.cc, src=src, bin=binary)
        )
        return words + list(extra)

    def compile(self, source: str, workdir: str | Path,
                name: str = "kernel", shared: bool = False) -> Path:
        workdir = Path(workdir)
        src = workdir / f"{name}.c"
        src.write_text(source)
        binary = workdir / (f"{name}.so" if shared else name)
        extra = ("-shared", "-fPIC", "-DMATFUSE_NO_MAIN") if shared else ()
        cmd = self.command(str(src), str(binary), extra)
        proc = subprocess.run(cmd, capture_output=True, text=True)
        if proc.returncode != 0:
            raise ToolchainError(
                f"compile failed ({' '.join(cmd)}):\n{proc.stderr.strip()}"
            )
        return binary


def _numpy_order(node) -> str:
    """The numpy order of a node's C layout: "F" for a column-major
    matrix, else "C"."""
    if len(node.dims) == 2 and node.ctype is not None \
            and node.ctype.orientation == "R":
        return "F"
    return "C"


def _flatten(name: str, value, extents: dict[str, int], node) -> np.ndarray:
    arr = np.asarray(value, dtype=np.float64)
    want = tuple(extents[d] for d in node.dims)
    if arr.shape != want:
        raise ValueError(f"{name}: expected shape {want}, got {arr.shape}")
    return np.ascontiguousarray(arr.ravel(order=_numpy_order(node)))


def run_kernel(
    binary: Path,
    kernel: GeneratedKernel,
    graph: DataflowGraph,
    inputs: dict,
    extents: dict[str, int],
) -> dict:
    """Call the compiled kernel on numpy inputs; returns outputs dict.

    Output buffers start as NaN so an uninitialized read is loud.
    """
    lib = ctypes.CDLL(str(binary))
    fn = getattr(lib, kernel.kernel_name)
    fn.restype = None
    spec = graph.spec
    args = []
    keep = []
    for name, decl in spec.inputs:
        node = graph.data[name]
        if decl.kind == "scalar":
            args.append(ctypes.c_double(float(inputs[name])))
        else:
            flat = _flatten(name, inputs[name], extents, node)
            keep.append(flat)
            args.append(flat.ctypes.data_as(ctypes.POINTER(ctypes.c_double)))
    out_bufs = {}
    for name, decl in spec.outputs:
        node = graph.data[name]
        size = 1
        for d in node.dims:
            size *= extents[d]
        buf = np.full(size, np.nan, dtype=np.float64)
        out_bufs[name] = buf
        keep.append(buf)
        args.append(buf.ctypes.data_as(ctypes.POINTER(ctypes.c_double)))
    for ext in graph.extent_names:
        args.append(ctypes.c_long(extents[ext]))
    fn(*args)
    outputs = {}
    for name, decl in spec.outputs:
        node = graph.data[name]
        buf = out_bufs[name]
        if decl.kind == "scalar":
            outputs[name] = float(buf[0])
        else:
            shape = tuple(extents[d] for d in node.dims)
            outputs[name] = buf.reshape(shape, order=_numpy_order(node))
    return outputs


def random_inputs(graph: DataflowGraph, extents: dict[str, int],
                  seed: int = 0) -> dict:
    rng = np.random.default_rng(seed)
    inputs = {}
    for name, decl in graph.spec.inputs:
        node = graph.data[name]
        if decl.kind == "scalar":
            inputs[name] = float(rng.uniform(0.1, 1.0))
        else:
            shape = tuple(extents[d] for d in node.dims)
            inputs[name] = rng.uniform(-1.0, 1.0, size=shape)
    return inputs


def max_rel_error(got: dict, want: dict) -> float:
    """Largest |got - want| / max(|want|, 1) over every output element;
    inf when any element is NaN or infinite (an output never written
    stays NaN), since max() would skip a NaN."""
    worst = 0.0
    for name, expected in want.items():
        g = np.asarray(got[name], dtype=np.float64)
        e = np.asarray(expected, dtype=np.float64)
        scale = np.maximum(np.abs(e), 1.0)
        err = float(np.max(np.abs(g - e) / scale)) if e.size else 0.0
        worst = max(worst, err if math.isfinite(err) else math.inf)
    return worst


def validation_error(kernel: GeneratedKernel, graph: DataflowGraph,
                     extents: dict[str, int], toolchain: Toolchain,
                     seed: int) -> float:
    """Build the kernel as a shared object in a temporary directory, run it
    on seeded random inputs at `extents`, and return its max relative
    error against the reference evaluator.

    A failed compile raises ToolchainError; a failed call raises what
    ctypes or the output check raised.
    """
    inputs = random_inputs(graph, extents, seed)
    with tempfile.TemporaryDirectory(prefix="matfuse-") as wd:
        lib = toolchain.compile(kernel.source, wd, shared=True)
        got = run_kernel(lib, kernel, graph, inputs, extents)
    return max_rel_error(got, interp.reference_evaluate(graph.spec, inputs))


def time_binary(binary: Path, extents: dict[str, int],
                extent_names: tuple[str, ...], reps: int = 5) -> float:
    """Run the standalone binary, parse the minimum-seconds line."""
    argv = [str(binary)] + [str(extents[n]) for n in extent_names] + [str(reps)]
    proc = subprocess.run(argv, capture_output=True, text=True)
    if proc.returncode != 0:
        raise ToolchainError(
            f"kernel binary crashed (exit {proc.returncode}): "
            f"{proc.stderr.strip()}"
        )
    for line in proc.stdout.splitlines():
        if line.startswith("seconds "):
            return float(line.split()[1])
    raise ToolchainError(f"no timing line in output: {proc.stdout!r}")


def workdir() -> Path:
    """A scratch directory that lives until the process exits, for callers
    that keep a loaded kernel beyond one block; the program itself builds
    inside tempfile.TemporaryDirectory."""
    path = tempfile.mkdtemp(prefix="matfuse-")
    atexit.register(shutil.rmtree, path, True)
    return Path(path)
