"""Bundled kernel corpus.

Nine standard dense matrix-algebra sequences (AXPYDOT, VADD, WAXPBY,
ATAX, BICGK, DGEMV, DGEMVT, GEMVER, GESUMMV) plus BATAX, the worked
example used throughout the docs and tests.  Sources live as .bto files
next to this module; TABLE_KERNELS lists the nine benchmark kernels in
their conventional order (vector-vector first, then matrix-vector).
"""

from __future__ import annotations

from importlib import resources
from pathlib import Path

from .graph import DataflowGraph, build_dataflow, infer_types
from .lang import KernelSpec, parse_kernel

TABLE_KERNELS = (
    "axpydot", "vadd", "waxpby",
    "atax", "bicgk", "dgemv", "dgemvt", "gemver", "gesummv",
)

SMALL_KERNELS = ("atax", "axpydot", "bicgk", "vadd", "waxpby")


def corpus_dir() -> Path:
    return Path(resources.files("matfuse") / "kernels")


def kernel_path(name: str, directory: str | Path | None = None) -> Path:
    base = Path(directory) if directory else corpus_dir()
    path = base / f"{name.lower()}.bto"
    if not path.exists():
        raise FileNotFoundError(f"no kernel file {path}")
    return path


def read_source(path: str | Path) -> str:
    """A kernel file's text; a file that is not UTF-8 raises a UnicodeError
    that names it."""
    try:
        return Path(path).read_text()
    except UnicodeDecodeError as exc:
        raise UnicodeError(f"{path} is not UTF-8 text ({exc.reason} at "
                           f"byte {exc.start})") from None


def kernel_source(name: str, directory: str | Path | None = None) -> str:
    return read_source(kernel_path(name, directory))


def load_kernel(name: str, directory: str | Path | None = None) -> KernelSpec:
    return parse_kernel(kernel_source(name, directory))


def load_graph(name: str, directory: str | Path | None = None) -> DataflowGraph:
    return infer_types(build_dataflow(load_kernel(name, directory)))


def available(directory: str | Path | None = None) -> list[str]:
    base = Path(directory) if directory else corpus_dir()
    return sorted(p.stem for p in base.glob("*.bto"))
