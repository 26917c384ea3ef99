"""Compile and run generated kernels, each in a child process.

The toolchain is a command template with {cc}, {src} and {bin} holes,
overridable via the MATFUSE_CC and MATFUSE_CC_TEMPLATE environment
variables.  A candidate is built once, as the standalone binary whose
main cemit emits, and that one binary is both validated and timed:

- validation (`validation_outputs`, `validation_error`):
  `binary <extents> <reps> <in> <out>` reads the inputs as raw doubles in
  signature order from `in`, calls the kernel once on NaN-filled outputs
  and writes them to `out`;
- timing (`time_binary`): `binary <extents> <reps>` fills the inputs
  from a fixed LCG and prints "seconds <float>" and "checksum <float>".

`Toolchain.compile_batch` builds many candidates at once, one compiler
per CPU this process may use, each into its own directory, and returns
when every build has ended; the caller validates and times them after
that, one at a time.

Every compile and every run is a child in its own process group with a
timeout: COMPILE_TIMEOUT_S for a compile, RUN_TIMEOUT_S for a timing run,
and for a validation run a limit that grows with the doubles it reads and
writes (`validation_timeout`), since validation runs at small extents and
takes milliseconds.  A candidate that fails to compile, crashes or hangs
therefore raises ToolchainError, whose `kind` names the failure, and
cannot kill or stall its caller; a hung child is killed with its whole
group, and so is every running child on an interrupt.  `run_kernel`
still calls a shared object (main compiled out) in-process through
ctypes, for tests and the benchmark's own checks.

numpy and the reference interpreter are imported by the functions that
read or write arrays, so building and timing load neither.
"""

from __future__ import annotations

import atexit
import contextlib
import ctypes
import math
import os
import shlex
import shutil
import signal
import subprocess
import tempfile
import time
from collections import deque
from dataclasses import dataclass
from pathlib import Path

from .cemit import GeneratedKernel
from .graph import DataflowGraph

DEFAULT_TEMPLATE = "{cc} -O3 -fopenmp {src} -o {bin}"
COMPILE_TIMEOUT_S = 120.0  # one compiler run; these kernels take well under 1 s
RUN_TIMEOUT_S = 120.0  # one timing run; caps a validation run's limit
REL_TOL = 1e-10  # the max relative error a validated kernel may show


class ToolchainError(RuntimeError):
    """A failed compile or kernel run.  `kind` names the failure:
    "compile-failure", "runtime-crash" (a non-zero or signal exit) or
    "timeout"."""

    def __init__(self, kind: str, message: str):
        super().__init__(message)
        self.kind = kind


def _start(argv: list[str], kind: str, what: str) -> subprocess.Popen:
    """Start `argv` as a child in a new process group, its output piped.
    A child that cannot start raises ToolchainError(kind)."""
    try:
        return subprocess.Popen(argv, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True,
                                errors="replace", start_new_session=True)
    except OSError as exc:
        raise ToolchainError(kind, f"{what} could not start: {exc}") from None


def _wait(proc: subprocess.Popen, deadline: float, timeout: float,
          kind: str, what: str) -> str:
    """Wait for a child of _start and return its stdout.

    A child that exits non-zero or by a signal raises ToolchainError(kind).
    One still running at `deadline` (a time.monotonic() instant, `timeout`
    seconds after its start) is killed together with its group (a
    compiler's own children too) and raises ToolchainError("timeout"); a
    child that had exited by then is judged by its exit as usual.  An
    interrupt kills the child with its group and is re-raised.
    """
    shown = " ".join(proc.args)
    with proc:
        try:
            out, err = proc.communicate(
                timeout=max(deadline - time.monotonic(), 0.0))
        except BaseException as exc:  # the timeout, or an interrupt
            running = proc.poll() is None
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
            out, err = proc.communicate()
            if not isinstance(exc, subprocess.TimeoutExpired):
                raise
            if running:
                raise ToolchainError(
                    "timeout", f"{what} timed out after {timeout:g} s: {shown}"
                ) from None
    code = proc.returncode
    if code != 0:
        try:
            status = f"exit status {code}" if code > 0 \
                else f"signal {signal.Signals(-code).name}"
        except ValueError:  # a signal without a name (a real-time one)
            status = f"signal {-code}"
        detail = err.strip()
        raise ToolchainError(
            kind, f"{what} failed ({status}): {shown}"
            + (f":\n{detail}" if detail else "")
        )
    return out


def _run(argv: list[str], timeout: float, kind: str, what: str) -> str:
    """Run `argv` as a child in a new process group and return its stdout,
    killing it with its group after `timeout` seconds (see _wait)."""
    proc = _start(argv, kind, what)
    return _wait(proc, time.monotonic() + timeout, timeout, kind, what)


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
                "compile-failure",
                "no C compiler found (set MATFUSE_CC or install cc/gcc)",
            )
        words = shlex.split(
            self.template.format(cc=self.cc, src=src, bin=binary)
        )
        return words + list(extra)

    def _command_for(self, source: str, workdir: Path, name: str,
                     shared: bool) -> tuple[list[str], Path]:
        """Write `source` to workdir/name.c; the command that builds it,
        and the binary (a shared object, main compiled out, if `shared`)."""
        src = workdir / f"{name}.c"
        src.write_text(source)
        binary = workdir / (f"{name}.so" if shared else name)
        extra = ("-shared", "-fPIC", "-DMATFUSE_NO_MAIN") if shared else ()
        return self.command(str(src), str(binary), extra), binary

    def compile(self, source: str, workdir: str | Path,
                name: str = "kernel", shared: bool = False) -> Path:
        argv, binary = self._command_for(source, Path(workdir), name, shared)
        _run(argv, COMPILE_TIMEOUT_S, "compile-failure", "compile")
        return binary

    def compile_batch(self, jobs: list[tuple[str, Path]]
                      ) -> list[Path | ToolchainError]:
        """Build each (source, workdir) job as `compile` would, into its
        own workdir: for each job, in order, its binary or the
        ToolchainError `compile` would have raised.

        The compiles run at once, at most one per CPU this process may use
        and never more than there are jobs; a compile starts when the
        oldest running one ends.  Each is its own process group, killed
        with its group COMPILE_TIMEOUT_S after its start, and every one
        still running is killed on an interrupt.  All have ended when this
        returns.
        """
        results: list[Path | ToolchainError | None] = [None] * len(jobs)
        width = min(len(os.sched_getaffinity(0)), len(jobs))
        running: deque = deque()  # (job index, child, deadline, binary)

        def finish():
            idx, proc, deadline, binary = running.popleft()
            try:
                _wait(proc, deadline, COMPILE_TIMEOUT_S, "compile-failure",
                      "compile")
                results[idx] = binary
            except ToolchainError as exc:
                results[idx] = exc

        try:
            for idx, (source, workdir) in enumerate(jobs):
                if len(running) == width:
                    finish()
                try:
                    argv, binary = self._command_for(source, Path(workdir),
                                                     "kernel", False)
                    proc = _start(argv, "compile-failure", "compile")
                except ToolchainError as exc:
                    results[idx] = exc
                    continue
                deadline = time.monotonic() + COMPILE_TIMEOUT_S
                running.append((idx, proc, deadline, binary))
            while running:
                finish()
        finally:  # after an interrupt, no compile outlives the batch
            for _, proc, _, _ in running:
                with proc:
                    with contextlib.suppress(ProcessLookupError):
                        os.killpg(proc.pid, signal.SIGKILL)
                    proc.communicate()
        return results


def _numpy_order(node) -> str:
    """The numpy order of a node's C layout: "F" for a column-major
    matrix, else "C"."""
    return "F" if node.order == "col" else "C"


def _flatten(name: str, value, extents: dict[str, int], node) -> np.ndarray:
    import numpy as np

    arr = np.asarray(value, dtype=np.float64)
    want = tuple(extents[d] for d in node.dims)
    if arr.shape != want:
        raise ValueError(f"{name}: expected shape {want}, got {arr.shape}")
    return np.ascontiguousarray(arr.ravel(order=_numpy_order(node)))


def _size(node, extents: dict[str, int]) -> int:
    return math.prod(extents[d] for d in node.dims)


def _unflatten(graph: DataflowGraph, bufs: dict[str, np.ndarray],
               extents: dict[str, int]) -> dict:
    """Each output's flat buffer in its numpy shape (a float for a scalar)."""
    outputs = {}
    for name, decl in graph.spec.outputs:
        node = graph.data[name]
        if decl.kind == "scalar":
            outputs[name] = float(bufs[name][0])
        else:
            shape = tuple(extents[d] for d in node.dims)
            outputs[name] = bufs[name].reshape(shape,
                                               order=_numpy_order(node))
    return outputs


def run_kernel(
    binary: Path,
    kernel: GeneratedKernel,
    graph: DataflowGraph,
    inputs: dict,
    extents: dict[str, int],
) -> dict:
    """Call the kernel of a shared object in this process, through ctypes,
    on numpy inputs; returns outputs dict.

    Output buffers start as NaN so an uninitialized read is loud.
    """
    import numpy as np

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
        buf = np.full(_size(graph.data[name], extents), np.nan,
                      dtype=np.float64)
        out_bufs[name] = buf
        keep.append(buf)
        args.append(buf.ctypes.data_as(ctypes.POINTER(ctypes.c_double)))
    for ext in graph.extent_names:
        args.append(ctypes.c_long(extents[ext]))
    fn(*args)
    return _unflatten(graph, out_bufs, extents)


def random_inputs(graph: DataflowGraph, extents: dict[str, int],
                  seed: int = 0) -> dict:
    import numpy as np

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
    import numpy as np

    worst = 0.0
    for name, expected in want.items():
        g = np.asarray(got[name], dtype=np.float64)
        e = np.asarray(expected, dtype=np.float64)
        scale = np.maximum(np.abs(e), 1.0)
        err = float(np.max(np.abs(g - e) / scale)) if e.size else 0.0
        worst = max(worst, err if math.isfinite(err) else math.inf)
    return worst


def validation_error(binary: Path, graph: DataflowGraph,
                     extents: dict[str, int], seed: int) -> float:
    """Run a kernel binary (Toolchain.compile of the emitted source) once
    in validation mode on seeded random inputs at `extents` and return its
    max relative error against the reference evaluator.

    The binary fills the outputs with NaN before the call, so an output
    left unwritten fails.  A crash or a hang raises ToolchainError.
    """
    import numpy as np

    from .interp import reference_evaluate

    spec = graph.spec
    inputs = random_inputs(graph, extents, seed)
    flat = validation_outputs(binary, graph, extents, inputs)
    sizes = [_size(graph.data[name], extents) for name, _ in spec.outputs]
    parts = np.split(flat, np.cumsum(sizes)[:-1])
    got = _unflatten(graph, dict(zip((n for n, _ in spec.outputs), parts)),
                     extents)
    return max_rel_error(got, reference_evaluate(spec, inputs))


def validation_timeout(doubles: int) -> float:
    """The limit of a validation run that reads and writes `doubles`
    values: 5 s for start-up and file traffic plus a microsecond per double
    (these kernels stream far faster), capped at RUN_TIMEOUT_S."""
    return min(RUN_TIMEOUT_S, 5.0 + doubles / 1e6)


def validation_outputs(binary: Path, graph: DataflowGraph,
                       extents: dict[str, int], inputs: dict) -> np.ndarray:
    """Run a kernel binary once in validation mode on `inputs`, with its
    input and output files beside it, and return the raw doubles it wrote:
    every output, flat, in signature order.  A crash, a hang or a short
    write raises ToolchainError."""
    import numpy as np

    spec = graph.spec
    src, dst = binary.parent / "inputs.f64", binary.parent / "outputs.f64"
    with src.open("wb") as fh:
        for name, _ in spec.inputs:
            _flatten(name, inputs[name], extents, graph.data[name]).tofile(fh)
    sizes = [_size(graph.data[name], extents) for name, _ in spec.outputs]
    doubles = src.stat().st_size // 8 + sum(sizes)
    argv = [str(binary)] + [str(extents[n]) for n in graph.extent_names]
    _run(argv + ["1", str(src), str(dst)], validation_timeout(doubles),
         "runtime-crash", "kernel binary")
    flat = np.fromfile(dst, dtype=np.float64) if dst.exists() \
        else np.empty(0)
    if flat.size != sum(sizes):
        raise ToolchainError(
            "runtime-crash", f"kernel binary wrote {flat.size} of "
            f"{sum(sizes)} output values: {' '.join(argv)}"
        )
    return flat


def time_binary(binary: Path, extents: dict[str, int],
                extent_names: tuple[str, ...], reps: int = 5) -> float:
    """Run the binary in timing mode, parse the minimum-seconds line.
    With no timed rep main would print its initial 1e300, so `reps` must
    be at least 1."""
    if reps < 1:
        raise ValueError("reps must be at least 1")
    argv = [str(binary)] + [str(extents[n]) for n in extent_names] + [str(reps)]
    out = _run(argv, RUN_TIMEOUT_S, "runtime-crash", "kernel binary")
    for line in out.splitlines():
        if line.startswith("seconds "):
            return float(line.split()[1])
    raise ToolchainError("runtime-crash", f"no timing line in output: {out!r}")


def workdir() -> Path:
    """A scratch directory that lives until the process exits, for callers
    that keep a loaded kernel beyond one block; the program itself builds
    inside tempfile.TemporaryDirectory."""
    path = tempfile.mkdtemp(prefix="matfuse-")
    atexit.register(shutil.rmtree, path, True)
    return Path(path)
