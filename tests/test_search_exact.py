"""The fast legality paths explore exactly what the full checks would.

Crossover checks only the root that received an op (plus root order);
these tests hold that verdict against re-checking the whole growing child,
and pin fixed-seed search logs on every bundled kernel to a digest taken
before the bitmask legality checks existed, and every verdict
fusion_legal gives in those searches and in small-kernel enumeration to
a digest taken before it shared its rules with the notation parser and
joint_partitions, and the C emitted for a wide set of organisms to a
digest taken when the emitter last changed its loops, and the raw
outputs of compiled kernels to a digest taken before it register-blocked
them.  A run's legality memo answers as the checks it stands for: keyed
on the pruning flag, checking each canonical root once per run, and
starting empty in every run.
"""

import hashlib
import json
import random

import pytest

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
from matfuse.runtime import random_inputs, validation_outputs
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
# sha256 of the C emitted for the organisms below, taken when each heap
# buffer of the kernel moved into a grow-only per-thread workspace kept
# between calls (statements, loops, signature and main unchanged); the
# previous digest 7c3fe132..., taken when the emitter jammed loops whose
# rows share a reduction over their own axis (exact passes plus a tail
# loop) and left out zeroings that a scalar-replacement store overwrites,
# d1766f5e..., taken when it gained scalar replacement and unroll-and-jam,
# and 033b674b... before it hold the same main, and OUTPUT_DIGEST shows
# the kernels compute the same bits
EMIT_DIGEST = \
    "383e250df680369dd23b4ddc3b2204227b491d87aa92cc45f6799f385a9f108c"
# sha256 of the raw validation-mode output bytes of the kernels below,
# taken before the emitter gained scalar replacement and unroll-and-jam:
# neither may change the order of any element's additions
OUTPUT_DIGEST = \
    "8c1ffcd719a04d1cf11b94420f73f1e44a0dd1f8bb044de11adabc3279a19b98"


def test_root_local_check_equals_full_check(monkeypatch):
    full_check = search._placement_legal
    verdicts = []

    def both(roots, changed, graph, memo=None, require_shared_operand=True):
        got = full_check(roots, changed, graph, memo, require_shared_operand)
        want = fusion_legal(canonicalize(Organism(tuple(roots)), graph),
                            graph, require_shared_operand,
                            partial=True) is None
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


def test_unpruned_crossover_keeps_unshared_fusions():
    # mutation under the run's flag fuses ops that share no operand, and
    # crossover asks with the same flag, so its children may keep such
    # fusions: on WAXPBY by regrowing a parent's, on GESUMMV also in
    # children unlike either parent
    for name in ("waxpby", "gesummv"):
        g = load_graph(name)
        rng = random.Random(0)
        cfg = SearchConfig(require_shared_operand=False)
        pool = [random_organism(g, rng, cfg) for _ in range(40)]
        rejected = []  # per child pruning rejects: is it unlike its parents
        for _ in range(200):
            a, b = rng.choice(pool), rng.choice(pool)
            child = crossover(a, b, g, rng, require_shared_operand=False)
            assert fusion_legal(child, g, False) is None, name
            if fusion_legal(child, g) is not None:
                rejected.append(child.key not in (a.key, b.key))
        assert rejected, name
    assert any(rejected)


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


def flag_runs(graphs, strategy: str) -> list:
    """A pruned then an unpruned run, one on each graph: the counts, the
    winner and the log of each."""
    out = []
    for g, prune in zip(graphs, (True, False)):
        cfg = SearchConfig(seed=3, population=10, generations=8, budget=80,
                           require_shared_operand=prune)
        extents = tuple((n, 1000) for n in g.extent_names)
        fitness = cached(AnalyticCost(
            g, MachineModel(core_count=8, extents=extents)))
        res = run_strategy(strategy, g, cfg, fitness)
        out.append((res.evaluations, res.cache_hits, res.best_key,
                    [entry.as_dict() for entry in res.log]))
    return out


@pytest.mark.parametrize("name, strategy", [
    ("gemver", "ga"), ("gemver", "random"), ("gesummv", "ga"),
    ("gesummv", "random"), ("dgemv", "random"), ("waxpby", "mfga"),
])
def test_legality_memo_is_per_run_and_per_flag(name, strategy):
    # the pruning flag changes what these runs explore; within a run
    # crossover and mutation both ask with the run's flag
    g = load_graph(name)
    shared = flag_runs((g, g), strategy)
    assert shared[0] != shared[1]
    assert shared == flag_runs((load_graph(name), load_graph(name)),
                               strategy)


def test_legality_memo_keys_on_the_pruning_flag():
    # within a run every question carries the run's flag, so the flag
    # never flips a verdict there; ask the memo directly, for whole
    # organisms and for crossover's roots
    unpruned = Limits(require_shared_operand=False)
    cases = [(g, org) for g in map(load_graph, SMALL_KERNELS)
             for org in enumerate_space(g, unpruned)
             if fusion_legal(org, g) is not None]
    assert cases
    for g, org in cases[:20]:
        for flags in ((True, False), (False, True)):
            memo = search.LegalityMemo(g)
            for flag in flags:
                want = fusion_legal(org, g, flag) is None
                assert memo.legal(org, flag) == want, (org.key, flag)
                for root in org.forest:
                    alone = canonicalize(Organism((root,)), g)
                    want = fusion_legal(alone, g, flag, partial=True) is None
                    assert memo.root_legal(root, flag) == want, (root, flag)


def test_each_canonical_root_is_checked_once_per_run(monkeypatch):
    check = search.fusion_legal
    roots = []

    def recorded(org, graph, require_shared_operand=True, partial=False):
        if partial:
            roots.append(canonical_key(org))
        return check(org, graph, require_shared_operand, partial)

    monkeypatch.setattr(search, "fusion_legal", recorded)
    g = load_graph("gemver")
    counts = []
    for _ in range(2):  # a memo that outlived the first run checks nothing
        roots.clear()
        cfg = SearchConfig(seed=0, population=10, generations=8)
        run_strategy("mfga", g, cfg, cached(AnalyticCost(
            g, MachineModel(core_count=8))))
        assert roots and len(roots) == len(set(roots))
        counts.append(len(roots))
    assert counts[0] == counts[1]


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


def output_digest(toolchain, tmp_path) -> str:
    """sha256 of the raw output doubles written in validation mode by the
    contracted C of the initial forest, max-fuse at 2 and 3 cores and 2
    seeded random organisms of every bundled kernel, each built once and
    run at extents (37, 23) and (5, 3): blocks whose rows are not a
    multiple of a register block's four, and blocks of fewer rows."""
    h = hashlib.sha256()
    for name in available():
        g = load_graph(name)
        rng = random.Random(f"output {name}")
        orgs = [initial_forest(g), max_fuse(g, 2), max_fuse(g, 3)]
        orgs += [random_organism(g, rng, SearchConfig(core_count=3))
                 for _ in range(2)]
        for n, org in enumerate(orgs):
            kernel = emit_c(contract_arrays(lower(org, g)))
            wd = tmp_path / f"{name}{n}"
            wd.mkdir()
            binary = toolchain.compile(kernel.source, wd)
            for sizes in ((37, 23), (5, 3)):
                extents = dict(zip(g.extent_names, sizes))
                flat = validation_outputs(binary, g, extents,
                                          random_inputs(g, extents, seed=11))
                h.update(f"{name} {canonical_key(org)} {sizes}\n".encode())
                h.update(flat.tobytes())
    return h.hexdigest()


def test_kernel_outputs_unchanged(toolchain, tmp_path):
    assert output_digest(toolchain, tmp_path) == OUTPUT_DIGEST
