"""The fast legality paths explore exactly what the full checks would.

Crossover checks only the root that received an op (plus root order);
these tests hold that verdict against re-checking the whole growing child,
and pin fixed-seed search logs on every bundled kernel to a digest taken
before the bitmask legality checks existed.
"""

import hashlib
import json
import random

from matfuse import search
from matfuse.corpus import available, load_graph
from matfuse.cost import AnalyticCost, MachineModel, cached
from matfuse.fuse import LoopNode, OpLeaf, fusion_legal, initial_forest
from matfuse.graph import build_dataflow, infer_types
from matfuse.lang import parse_kernel
from matfuse.search import (
    SearchConfig, crossover, max_fuse, random_organism, run_strategy,
)

# sha256 of the logs below as the op-by-op legality checks produced them
SEARCH_LOG_DIGEST = \
    "43bbecf23e4064845cc77aa8c413b34990fee42a961579138503df8019129eb2"


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
