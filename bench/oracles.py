"""Correctness oracles for the benchmark, written independently of matfuse.

Each bundled kernel has one plain numpy formula here.  Outputs of compiled
organisms are compared against these formulas, never against the
compiler's own reference interpreter or a stored copy of earlier output.
The generated timing binaries fill their inputs from a fixed 64-bit LCG;
`binary_inputs` reproduces that stream so the checksum a binary prints
can be checked against the same formulas.
"""

from __future__ import annotations

import math

import numpy as np

REL_TOL = 1e-10  # outputs of a compiled organism vs. the formula
CHECKSUM_TOL = 1e-9  # summation order differs between C and numpy


def _gemver(A, u1, v1, u2, v2, alpha, beta, y, z):
    B = A + np.outer(u1, v1) + np.outer(u2, v2)
    x = beta * (B.T @ y) + z
    return {"B": B, "x": x, "w": alpha * (B @ x)}


def _dgemvt(alpha, beta, A, y, z):
    x = beta * (A.T @ y) + z
    return {"x": x, "w": alpha * (A @ x)}


def _axpydot(w, v, u, alpha):
    z = w - alpha * v
    return {"z": z, "beta": float(z @ u)}


FORMULAS = {
    "atax": lambda A, x: {"y": A.T @ (A @ x)},
    "axpydot": _axpydot,
    "batax": lambda x, beta, A: {"y": beta * (A.T @ (A @ x))},
    "bicgk": lambda A, p, r: {"q": A @ p, "s": A.T @ r},
    "dgemv": lambda alpha, A, x, beta, y: {"z": alpha * (A @ x) + beta * y},
    "dgemvt": _dgemvt,
    "gemver": _gemver,
    "gesummv": lambda alpha, beta, A, B, x: {"y": alpha * (A @ x)
                                             + beta * (B @ x)},
    "vadd": lambda w, y, z: {"x": w + y + z},
    "waxpby": lambda alpha, x, beta, y: {"w": alpha * x + beta * y},
}


def expected(name: str, inputs: dict) -> dict:
    """The kernel's outputs by its numpy formula."""
    return FORMULAS[name](**inputs)


def shape_of(graph, name: str, extents: dict[str, int]) -> tuple[int, ...]:
    return tuple(extents[d] for d in graph.data[name].dims)


def rel_error(got: dict, want: dict) -> float:
    """Largest |got - want| / max(|want|, 1) over every output element."""
    worst = 0.0
    for name, w in want.items():
        if name not in got:
            return math.inf
        g = np.asarray(got[name], dtype=np.float64)
        w = np.asarray(w, dtype=np.float64)
        if g.shape != w.shape:
            return math.inf
        if w.size:
            err = np.abs(g - w) / np.maximum(np.abs(w), 1.0)
            worst = max(worst, float(np.max(err)) if np.all(np.isfinite(err))
                        else math.inf)
    return worst


# -- the timing binary's own inputs -------------------------------------------

_LCG_MUL = np.uint64(6364136223846793005)
_LCG_ADD = np.uint64(1442695040888963407)
_LCG_SEED = np.uint64(88172645463325252)


def lcg_stream(count: int) -> np.ndarray:
    """The first `count` values of the generated main's rnd_() in [0, 1).

    state_k = a^k s0 + c (a^(k-1) + ... + 1) mod 2^64, computed for all k
    at once; numpy's uint64 products and sums wrap modulo 2^64.
    """
    powers = np.cumprod(np.full(count, _LCG_MUL, dtype=np.uint64))
    geometric = np.ones(count, dtype=np.uint64)
    geometric[1:] += np.cumsum(powers[:-1], dtype=np.uint64)
    state = powers * _LCG_SEED + geometric * _LCG_ADD
    return (state >> np.uint64(11)).astype(np.float64) / 9007199254740992.0


def _storage_order(graph, name: str) -> str:
    node = graph.data[name]
    if len(node.dims) == 2 and node.ctype.orientation == "R":
        return "F"
    return "C"


def binary_inputs(graph, extents: dict[str, int]) -> dict:
    """The inputs the timing binary draws, in declaration order."""
    sizes = [math.prod(shape_of(graph, n, extents)) if d.kind != "scalar" else 1
             for n, d in graph.spec.inputs]
    stream = lcg_stream(sum(sizes))
    inputs, at = {}, 0
    for (name, decl), size in zip(graph.spec.inputs, sizes):
        chunk = stream[at:at + size]
        at += size
        if decl.kind == "scalar":
            inputs[name] = float(chunk[0])
        else:
            inputs[name] = chunk.reshape(shape_of(graph, name, extents),
                                         order=_storage_order(graph, name))
    return inputs


def expected_checksum(name: str, graph, extents: dict[str, int]) -> float:
    """Sum of every output element for the binary's LCG inputs."""
    want = expected(name, binary_inputs(graph, extents))
    return math.fsum(float(v) for out, _ in graph.spec.outputs
                     for v in np.ravel(want[out]))


def checksum_ok(got: float, want: float) -> bool:
    return abs(got - want) <= CHECKSUM_TOL * max(abs(want), 1.0)


def computed_bytes(graph, extents: dict[str, int]) -> int:
    """Bytes of every input and output, each moved once (a lower bound)."""
    names = [n for n, _ in graph.spec.inputs] + [n for n, _ in graph.spec.outputs]
    return 8 * sum(math.prod(shape_of(graph, n, extents)) for n in names)
