"""The fast legality paths explore exactly what the full checks would.

Crossover checks only the root that received an op (plus root order);
these tests hold that verdict against re-checking the whole growing child,
and pin fixed-seed search logs on every bundled kernel to a digest taken
before the bitmask legality checks existed, and every verdict
fusion_legal gives in those searches and in small-kernel enumeration to
a digest taken before it shared its rules with the notation parser and
joint_partitions.
"""

import hashlib
import json
import random

from matfuse import fuse, search
from matfuse.corpus import SMALL_KERNELS, available, load_graph
from matfuse.cost import AnalyticCost, MachineModel, cached
from matfuse.fuse import (
    Limits, LoopNode, OpLeaf, canonical_key, enumerate_space, fusion_legal,
    initial_forest,
)
from matfuse.graph import build_dataflow, infer_types
from matfuse.lang import parse_kernel
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


def test_root_local_check_equals_full_check(monkeypatch):
    full_check = search._placement_legal
    verdicts = []

    def both(roots, changed, graph):
        got = full_check(roots, changed, graph)
        want = fusion_legal(search._materialize(roots, graph), graph,
                            partial=True) is None
        assert got == want, [r.pairs() for r in roots]
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
    roots = [search._MRoot(None, [LoopNode("k", (OpLeaf(1), OpLeaf(4)))]),
             search._MRoot(None, [LoopNode("k", (OpLeaf(2), OpLeaf(3)))])]
    for r in roots:
        assert fusion_legal(search._materialize([r], g), g,
                            partial=True) is None
    diag = fusion_legal(search._materialize(roots, g), g, partial=True)
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
                                   budget=80, max_random_steps=800)
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
