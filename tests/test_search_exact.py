"""The fast legality paths explore exactly what the full checks would.

Crossover checks only the root that received an op (plus root order);
these tests hold that verdict against re-checking the whole growing child,
and pin fixed-seed search logs on every bundled kernel to a digest taken
before the bitmask legality checks existed, and every verdict
fusion_legal gives in those searches and in small-kernel enumeration to
a digest taken before it shared its rules with the notation parser and
joint_partitions, and the C emitted for a wide set of organisms to a
digest taken before lowering placed its reduction bookkeeping in one walk.
"""

import hashlib
import json
import random

from matfuse import fuse, search
from matfuse.cemit import emit_c
from matfuse.corpus import SMALL_KERNELS, available, load_graph
from matfuse.cost import AnalyticCost, MachineModel, cached
from matfuse.fuse import (
    Limits, LoopNode, OpLeaf, Organism, canonical_key, canonicalize,
    enumerate_space, fusion_legal, initial_forest,
)
from matfuse.graph import build_dataflow, infer_types
from matfuse.lang import parse_kernel
from matfuse.lower import contract_arrays, lower
from matfuse.search import (
    SearchConfig, crossover, max_fuse, random_organism, run_strategy,
)

# sha256 of the logs below as the op-by-op legality checks produced them
SEARCH_LOG_DIGEST = \
    "43bbecf23e4064845cc77aa8c413b34990fee42a961579138503df8019129eb2"
# sha256 of the legality verdicts below, taken before the notation parser
# and joint_partitions deferred to fusion_legal's rules
LEGALITY_VERDICT_DIGEST = \
    "b20c9f67312d17e6b9ecc4d66edee126dacc61a46a822278782911cd71741eed"
# sha256 of the C emitted for the organisms below, taken when main gained
# its validation mode; the kernel functions (all before main's
# MATFUSE_NO_MAIN guard) are byte-identical to those behind the previous
# digest 493e5f71..., taken before lowering placed reduction inits and
# partial buffers during its one tree walk
EMIT_DIGEST = \
    "033b674b82563d7e4e0541d52f501aa148d860eaa0f7b4fe7f1a71b45c318969"


def test_root_local_check_equals_full_check(monkeypatch):
    full_check = search._placement_legal
    verdicts = []

    def both(roots, changed, graph):
        got = full_check(roots, changed, graph)
        want = fusion_legal(canonicalize(Organism(tuple(roots)), graph),
                            graph, partial=True) is None
        assert got == want, roots
        verdicts.append(got)
        return got

    monkeypatch.setattr(search, "_placement_legal", both)
    cfg = SearchConfig(core_count=8)
    for name in available():
        g = load_graph(name)
        rng = random.Random(name)
        pool = [initial_forest(g), max_fuse(g, 8)]
        pool += [random_organism(g, rng, cfg, start=rng.choice(pool[:2]))
                 for _ in range(20)]
        for _ in range(150):
            child = crossover(rng.choice(pool), rng.choice(pool), g, rng)
            assert fusion_legal(child, g) is None, name
            pool.append(child)
    assert True in verdicts and False in verdicts


def test_roots_legal_alone_but_cyclic_are_rejected():
    # {1,4} and {2,3} each pass alone, but 1 feeds 2 and 3 feeds 4
    g = infer_types(build_dataflow(parse_kernel(
        "CYC in: a : vector(column), b : vector(column), "
        "c : vector(column), d : vector(column) "
        "out: u : vector(column), w : vector(column) "
        "{ t = a + b  u = t + c  v = c + d  w = v + a }")))
    roots = [LoopNode("k", (OpLeaf(1), OpLeaf(4))),
             LoopNode("k", (OpLeaf(2), OpLeaf(3)))]
    for r in roots:
        assert fusion_legal(canonicalize(Organism((r,)), g), g,
                            partial=True) is None
    diag = fusion_legal(canonicalize(Organism(tuple(roots)), g), g,
                        partial=True)
    assert diag is not None and diag.rule == "order"
    assert not search._placement_legal(roots, 0, g)


def search_log_digest() -> str:
    h = hashlib.sha256()
    for name in available():
        g = load_graph(name)
        extents = tuple((n, 1000) for n in g.extent_names)
        for strategy in ("mfga", "ga", "random"):
            for seed in (0, 1):
                cfg = SearchConfig(seed=seed, population=10, generations=8,
                                   budget=80)
                fitness = cached(AnalyticCost(
                    g, MachineModel(core_count=8, extents=extents)))
                res = run_strategy(strategy, g, cfg, fitness)
                h.update(f"{name} {strategy} {seed} {res.evaluations} "
                         f"{res.cache_hits} {res.best_key}\n".encode())
                for entry in res.log:
                    h.update((json.dumps(entry.as_dict(), sort_keys=True)
                              + "\n").encode())
    return h.hexdigest()


def test_fixed_seed_search_logs_unchanged():
    assert search_log_digest() == SEARCH_LOG_DIGEST


def legality_verdict_digest(monkeypatch) -> str:
    """sha256 of the distinct (key, require_shared_operand, rule) verdicts
    fusion_legal gives during the logged searches above and during the
    full enumerations of the small kernels and BATAX, pruning on and off
    (enumerate_space checks every candidate it builds)."""
    check = fuse.fusion_legal
    verdicts = set()

    def recorded(org, graph, require_shared_operand=True, partial=False):
        diag = check(org, graph, require_shared_operand, partial)
        verdicts.add(f"{canonical_key(org)}\t{require_shared_operand}\t"
                     f"{diag.rule if diag else None}")
        return diag

    monkeypatch.setattr(fuse, "fusion_legal", recorded)
    monkeypatch.setattr(search, "fusion_legal", recorded)
    search_log_digest()
    for name in SMALL_KERNELS + ("batax",):
        g = load_graph(name)
        for prune in (True, False):
            for _ in enumerate_space(g, Limits(require_shared_operand=prune)):
                pass
    return hashlib.sha256("\n".join(sorted(verdicts)).encode()).hexdigest()


def test_legality_verdicts_unchanged(monkeypatch):
    assert legality_verdict_digest(monkeypatch) == LEGALITY_VERDICT_DIGEST


def emit_digest() -> str:
    """sha256 of the C emitted, contracted and uncontracted, at unequal
    small extents, for the initial forest, max-fuse at 2 and 3 cores and
    60 seeded random organisms of every bundled kernel, plus the whole
    enumerated space of each kernel with at most four ops."""
    h = hashlib.sha256()
    for name in available():
        g = load_graph(name)
        extents = {n: 5 + 2 * i for i, n in enumerate(g.extent_names)}
        rng = random.Random(f"emit {name}")
        orgs = [initial_forest(g), max_fuse(g, 2), max_fuse(g, 3)]
        orgs += [random_organism(g, rng, SearchConfig(core_count=3))
                 for _ in range(60)]
        if len(g.ops) <= Limits().max_ops:
            orgs += list(enumerate_space(g))
        for org in orgs:
            ir = lower(org, g)
            for emitted in (ir, contract_arrays(ir)):
                h.update(emit_c(emitted, extents).source.encode())
    return h.hexdigest()


def test_emitted_c_unchanged():
    assert emit_digest() == EMIT_DIGEST
