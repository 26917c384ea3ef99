"""Search strategies over organisms.

The production strategy is max-fuse followed by a genetic algorithm
("mfga"): a greedy pass fuses as many loops as deeply as legality
allows, the GA population starts as random mutations of that seed, and
a final sweep picks the global thread count.  Baselines: pure random
mutation walk, the GA without the greedy seed, the greedy seed alone,
orthogonal search (exhaustive over fusion with threads pinned, then a
thread sweep on the winner), and full exhaustive enumeration.

Every candidate any strategy evaluates is legality-checked by
construction: mutation and crossover re-validate and fall back to the
unchanged/feasible form, so no fitness evaluation is ever spent on an
illegal organism.  Fitness values are cached on the canonical organism
key; the evaluation budget counts cache misses (real evaluations).
"""

from __future__ import annotations

import logging
import random
import time
from dataclasses import dataclass

from .cost import CachedFitness, CostReport, cached
from .fuse import (
    IterNode, Limits, LoopNode, OpLeaf, Organism, PartitionNode,
    canonical_key, canonicalize, enumerate_partitionings, enumerate_space,
    full_nest, fusion_legal, initial_forest, joint_partitions, ops_under,
)
from .graph import DataflowGraph

logger = logging.getLogger(__name__)

STRATEGIES = ("random", "mf", "ga", "mfga", "orthogonal", "exhaustive")


@dataclass(frozen=True)
class SearchConfig:
    population: int = 20
    tournament_k: int = 2
    generations: int = 50
    budget: int | None = None  # max unique (cache-miss) evaluations
    time_budget_s: float | None = None
    seed: int = 0
    thread_mode: str = "global"  # "const" | "global" | "exhaustive"
    core_count: int = 8
    mutation_prob: float = 0.5  # chance a crossover child is also mutated
    max_ops_exhaustive: int = 4
    max_random_steps: int = 200_000
    require_shared_operand: bool = True  # profitability pruning of fusions

    def __post_init__(self):
        if self.population < 2:
            raise ValueError("population must be at least 2")
        if self.tournament_k < 1:
            raise ValueError("tournament size must be at least 1")
        if self.core_count < 1:
            raise ValueError("core count must be at least 1")
        if self.thread_mode not in ("const", "global", "exhaustive"):
            raise ValueError(f"unknown thread mode {self.thread_mode!r}")


@dataclass
class LogEntry:
    key: str
    fitness: float
    generation: int
    elapsed_s: float
    strategy: str

    def as_dict(self) -> dict:
        return {
            "key": self.key,
            "fitness": self.fitness,
            "generation": self.generation,
            "elapsed_s": self.elapsed_s,
            "strategy": self.strategy,
        }


@dataclass
class SearchResult:
    strategy: str
    best: Organism
    best_fitness: float
    best_report: CostReport
    log: list[LogEntry]
    evaluations: int  # unique fitness evaluations (cache misses)
    cache_hits: int
    sweeps: int = 0  # thread-sweep candidates tried

    @property
    def best_key(self) -> str:
        return canonical_key(self.best)


# ---------------------------------------------------------------------------
# Organism surgery helpers (trees are immutable; rebuild whole forests)

def _with_threads(org: Organism, value: int) -> Organism:
    return Organism(org.forest, (value,) * len(org.threads))


def _with_children(node: IterNode, children: tuple[IterNode, ...]) -> IterNode:
    if isinstance(node, PartitionNode):
        return PartitionNode(node.axis, node.slot, children)
    return LoopNode(node.axis, children)


def replace_at(forest: tuple[IterNode, ...], path: tuple[int, ...],
               node: IterNode) -> tuple[IterNode, ...]:
    """The forest with the node at `path` (a root index, then child
    indices) replaced by `node`."""
    def swap(cur: IterNode, rest: tuple[int, ...]) -> IterNode:
        if not rest:
            return node
        kids = list(cur.children)
        kids[rest[0]] = swap(kids[rest[0]], rest[1:])
        return _with_children(cur, tuple(kids))

    roots = list(forest)
    roots[path[0]] = swap(roots[path[0]], path[1:])
    return tuple(roots)


def _rebuild(roots: list[tuple[IterNode, int | None]],
             graph: DataflowGraph) -> Organism:
    """Build an organism from (root, thread-count-or-None) pairs."""
    forest = []
    threads = []
    for node, t in roots:
        if isinstance(node, PartitionNode):
            forest.append(PartitionNode(node.axis, len(threads), node.children))
            threads.append(t if t else 1)
        else:
            forest.append(node)
    return canonicalize(Organism(tuple(forest), tuple(threads)), graph)


def _root_pairs(org: Organism) -> list[tuple[IterNode, int | None]]:
    return [
        (r, org.threads[r.slot] if isinstance(r, PartitionNode) else None)
        for r in org.forest
    ]


# ---------------------------------------------------------------------------
# Max fuse

def _choice_order(assignments, graph) -> list:
    """Prefer joint assignments with fewer parallel reductions, then by axis."""
    def score(asg):
        reds = sum(1 for c in asg.values() if c.parallel_reduction)
        return (reds, next(iter(asg.values())).axis)

    return sorted(assignments, key=score)


def _merge_loop_siblings(org: Organism, graph: DataflowGraph) -> Organism:
    """Greedily merge sibling loop nodes of equal axis while legal, outermost
    first (breadth-first within each root): one accepted merge restarts the
    scan."""
    def scan(org: Organism) -> Organism | None:
        for ridx, root in enumerate(org.forest):
            queue: list[tuple[IterNode, tuple[int, ...]]] = [(root, (ridx,))]
            while queue:
                node, path = queue.pop(0)
                if isinstance(node, OpLeaf):
                    continue
                kids = node.children
                for ia in range(len(kids)):
                    for ib in range(ia + 1, len(kids)):
                        a, b = kids[ia], kids[ib]
                        if isinstance(a, LoopNode) and isinstance(b, LoopNode) \
                                and a.axis == b.axis:
                            cand = _apply_sibling_merge(
                                org, graph, ("siblings", path, node, ia, ib))
                            if fusion_legal(cand, graph) is None:
                                return cand
                for idx, child in enumerate(kids):
                    queue.append((child, path + (idx,)))
        return None

    while True:
        nxt = scan(org)
        if nxt is None:
            return org
        org = nxt


def max_fuse(graph: DataflowGraph, core_count: int = 8) -> Organism:
    """Greedy maximal fusion over partitioned-but-undecided roots.

    Roots merge pairwise (ascending scan, restart after every merge) when
    a joint partition assignment exists; loop levels then fuse as deeply
    as legality allows.  Leftover single-operation roots get their
    preferred partition axis; scalar operations stay bare.
    """
    roots: list[tuple[IterNode, int | None]] = []
    for op in graph.ops:
        roots.append((full_nest(op), None))

    def try_merge(ia: int, ib: int) -> list | None:
        (ra, _), (rb, _) = roots[ia], roots[ib]
        group = sorted(ops_under(ra) + ops_under(rb))
        assignments = _choice_order(joint_partitions(group, graph), graph)
        inner_a = ra.children if isinstance(ra, PartitionNode) else (ra,)
        inner_b = rb.children if isinstance(rb, PartitionNode) else (rb,)
        for asg in assignments:
            axis = next(iter(asg.values())).axis
            merged = PartitionNode(axis, 0, inner_a + inner_b)
            trial = [p for k, p in enumerate(roots) if k not in (ia, ib)]
            trial.insert(min(ia, ib), (merged, core_count))
            org = _rebuild(trial, graph)
            if fusion_legal(org, graph) is None:
                org = _merge_loop_siblings(org, graph)
                return _root_pairs(org)
        return None

    progressed = True
    while progressed:
        progressed = False
        n = len(roots)
        for ia in range(n):
            for ib in range(ia + 1, n):
                merged = try_merge(ia, ib)
                if merged is not None:
                    roots = merged
                    progressed = True
                    break
            if progressed:
                break

    # partition leftover solo roots on their preferred axis
    final: list[tuple[IterNode, int | None]] = []
    for node, t in roots:
        if isinstance(node, PartitionNode):
            final.append((node, t))
            continue
        ops = ops_under(node)
        if len(ops) == 1:
            choices = enumerate_partitionings(ops[0], graph)
            choices = sorted(choices, key=lambda c: (c.parallel_reduction,
                                                     c.axis))
            placed = False
            for choice in choices:
                cand = PartitionNode(choice.axis, 0, (node,))
                trial = final + [(cand, core_count)] + [
                    p for p in roots[roots.index((node, t)) + 1:]
                ]
                org = _rebuild(trial, graph)
                if fusion_legal(org, graph) is None:
                    final.append((cand, core_count))
                    placed = True
                    break
            if placed:
                continue
        final.append((node, t))
    org = _rebuild(final, graph)
    org = _merge_loop_siblings(org, graph)
    assert fusion_legal(org, graph) is None
    return org


# ---------------------------------------------------------------------------
# Mutation

def _loop_fusion_sites(org: Organism):
    """(description, merged-forest) candidates for one add-fusion step."""
    sites = []
    roots = list(org.forest)
    for ia in range(len(roots)):
        for ib in range(ia + 1, len(roots)):
            a, b = roots[ia], roots[ib]
            if isinstance(a, LoopNode) and isinstance(b, LoopNode) \
                    and a.axis == b.axis:
                merged = LoopNode(a.axis, a.children + b.children)
                sites.append(("roots", ia, ib, merged))
            elif isinstance(a, PartitionNode) and isinstance(b, PartitionNode) \
                    and a.axis == b.axis \
                    and org.threads[a.slot] == org.threads[b.slot]:
                merged = PartitionNode(a.axis, a.slot, a.children + b.children)
                sites.append(("roots", ia, ib, merged))
    # sibling loop-node pairs anywhere; a path is a root index, then
    # child indices
    def walk(node, path):
        if isinstance(node, OpLeaf):
            return
        kids = node.children
        for ia in range(len(kids)):
            for ib in range(ia + 1, len(kids)):
                a, b = kids[ia], kids[ib]
                if isinstance(a, LoopNode) and isinstance(b, LoopNode) \
                        and a.axis == b.axis:
                    sites.append(("siblings", path, node, ia, ib))
        for idx, child in enumerate(kids):
            walk(child, path + (idx,))

    for ridx, root in enumerate(org.forest):
        walk(root, (ridx,))
    return sites


def _apply_root_merge(org, graph, ia, ib, merged) -> Organism:
    pairs = _root_pairs(org)
    t = None
    if isinstance(merged, PartitionNode):
        t = org.threads[merged.slot]
    keep = [p for k, p in enumerate(pairs) if k not in (ia, ib)]
    keep.insert(ia, (merged, t))
    return _rebuild(keep, graph)


def _apply_sibling_merge(org, graph, site) -> Organism:
    _, path, node, ia, ib = site
    kids = list(node.children)
    merged = LoopNode(kids[ia].axis, kids[ia].children + kids[ib].children)
    kids = [c for k, c in enumerate(kids) if k not in (ia, ib)]
    kids.insert(ia, merged)
    forest = replace_at(org.forest, path, _with_children(node, tuple(kids)))
    return canonicalize(Organism(forest, org.threads), graph)


def _split_sites(org: Organism):
    sites = []

    def walk(node, path):
        if isinstance(node, OpLeaf):
            return
        if len(node.children) > 1:
            for pos in range(1, len(node.children)):
                sites.append((path, node, pos))
        for idx, child in enumerate(node.children):
            walk(child, path + (idx,))

    for ridx, root in enumerate(org.forest):
        walk(root, (ridx,))
    return sites


def _apply_split(org, graph, site) -> Organism:
    path, node, pos = site
    left = _with_children(node, node.children[:pos])
    right = _with_children(node, node.children[pos:])
    if len(path) == 1:  # splitting a root: two roots
        pairs = _root_pairs(org)
        t = org.threads[node.slot] if isinstance(node, PartitionNode) else None
        pairs[path[0]:path[0] + 1] = [(left, t), (right, t)]
        return _rebuild(pairs, graph)
    parent = org.forest[path[0]]
    for idx in path[1:-1]:
        parent = parent.children[idx]
    kids = list(parent.children)
    kids[path[-1]:path[-1] + 1] = [left, right]
    forest = replace_at(org.forest, path[:-1],
                        _with_children(parent, tuple(kids)))
    return canonicalize(Organism(forest, org.threads), graph)


def mutate(org: Organism, graph: DataflowGraph, rng: random.Random,
           cfg: SearchConfig) -> Organism:
    """Apply one random change; inapplicable or illegal choices leave the
    organism unchanged.

    The four changes: add/remove a fusion level, add/remove a partition
    level, change a partition axis, change the thread count (by 2,
    clamped to [2, core_count]).
    """
    kind = rng.randrange(4)
    cand: Organism | None = None
    if kind == 0:  # fusion level
        if rng.random() < 0.5:
            sites = _loop_fusion_sites(org)
            if sites:
                site = sites[rng.randrange(len(sites))]
                if site[0] == "roots":
                    cand = _apply_root_merge(org, graph, site[1], site[2],
                                             site[3])
                else:
                    cand = _apply_sibling_merge(org, graph, site)
        else:
            sites = _split_sites(org)
            if sites:
                cand = _apply_split(org, graph, sites[rng.randrange(len(sites))])
    elif kind == 1:  # partition level
        if rng.random() < 0.5:
            bare = [i for i, r in enumerate(org.forest)
                    if not isinstance(r, PartitionNode)
                    and not isinstance(r, OpLeaf)]
            if bare:
                ridx = bare[rng.randrange(len(bare))]
                root = org.forest[ridx]
                assignments = joint_partitions(ops_under(root), graph)
                if assignments:
                    asg = assignments[rng.randrange(len(assignments))]
                    axis = next(iter(asg.values())).axis
                    t = org.threads[0] if org.threads else cfg.core_count
                    pairs = _root_pairs(org)
                    pairs[ridx] = (PartitionNode(axis, 0, (root,)), t)
                    cand = _rebuild(pairs, graph)
        else:
            parts = [i for i, r in enumerate(org.forest)
                     if isinstance(r, PartitionNode)]
            if parts:
                ridx = parts[rng.randrange(len(parts))]
                root = org.forest[ridx]
                pairs = _root_pairs(org)
                pairs[ridx:ridx + 1] = [(c, None) for c in root.children]
                cand = _rebuild(pairs, graph)
    elif kind == 2:  # partition axis
        parts = [i for i, r in enumerate(org.forest)
                 if isinstance(r, PartitionNode)]
        if parts:
            ridx = parts[rng.randrange(len(parts))]
            root = org.forest[ridx]
            axes = [next(iter(a.values())).axis
                    for a in joint_partitions(ops_under(root), graph)]
            axes = [a for a in axes if a != root.axis]
            if axes:
                axis = axes[rng.randrange(len(axes))]
                pairs = _root_pairs(org)
                pairs[ridx] = (PartitionNode(axis, root.slot, root.children),
                               org.threads[root.slot])
                cand = _rebuild(pairs, graph)
    else:  # thread count
        if org.threads and cfg.thread_mode != "const":
            delta = 2 if rng.random() < 0.5 else -2
            lo, hi = 2, max(2, cfg.core_count)
            if cfg.thread_mode == "global":
                t = min(max(org.threads[0] + delta, lo), hi)
                cand = Organism(org.forest, (t,) * len(org.threads))
            else:
                slot = rng.randrange(len(org.threads))
                t = min(max(org.threads[slot] + delta, lo), hi)
                tup = list(org.threads)
                tup[slot] = t
                cand = Organism(org.forest, tuple(tup))
    if cand is None:
        return org
    if fusion_legal(cand, graph, cfg.require_shared_operand) is not None:
        return org
    return cand


def random_organism(graph: DataflowGraph, rng: random.Random,
                    cfg: SearchConfig, steps: int | None = None,
                    start: Organism | None = None) -> Organism:
    org = start if start is not None else initial_forest(graph)
    n = steps if steps is not None else rng.randrange(0, 13)
    for _ in range(n):
        org = mutate(org, graph, rng, cfg)
    return org


# ---------------------------------------------------------------------------
# Crossover

def _partition_info(org: Organism, op_id: int) -> tuple[str, int] | None:
    """(axis, thread count) of the partition over an op, or None."""
    for root in org.forest:
        if root.mask >> op_id & 1:
            if isinstance(root, PartitionNode):
                return root.axis, org.threads[root.slot]
            return None
    return None


class _MRoot:
    """Mutable root while a child organism grows: optional partition plus a
    sibling list of frozen loop subtrees."""

    __slots__ = ("partition", "trees")

    def __init__(self, partition: tuple[str, int] | None,
                 trees: list[IterNode]):
        self.partition = partition  # (axis, threads) or None
        self.trees = trees

    def clone(self) -> "_MRoot":
        return _MRoot(self.partition, list(self.trees))

    def mask(self) -> int:
        out = 0
        for t in self.trees:
            out |= t.mask
        return out

    def pairs(self) -> list[tuple[IterNode, int | None]]:
        if self.partition is not None:
            axis, t = self.partition
            return [(PartitionNode(axis, 0, tuple(self.trees)), t)]
        # bare roots hold exactly one tree; siblings become roots
        return [(tree, None) for tree in self.trees]


def _materialize(roots: list[_MRoot], graph: DataflowGraph) -> Organism:
    return _rebuild([p for r in roots for p in r.pairs()], graph)


def _roots_ordered(masks: list[int], graph: DataflowGraph) -> bool:
    """The disjoint op sets admit a topological order (no dependence cycle)."""
    while masks:
        union = 0
        for m in masks:
            union |= m
        rest = [m for m in masks if graph.up_of(m) & union & ~m]
        if len(rest) == len(masks):
            return False
        masks = rest
    return True


def _placement_legal(roots: list[_MRoot], changed: int,
                     graph: DataflowGraph) -> bool:
    """Whether a growing child stays legal after roots[changed] took an op.

    Checks that root alone, then that all roots can be ordered.  This
    equals fusion_legal(_materialize(roots), graph, partial=True) when
    every other root passed it before: the fused-set, sibling-order and
    reduction rules never span two roots, canonicalize only reorders
    roots, and coverage and dense slots hold by construction.
    """
    alone = _materialize([roots[changed]], graph)
    if fusion_legal(alone, graph, partial=True) is not None:
        return False
    return _roots_ordered([r.mask() for r in roots], graph)


def _level_masks(org: Organism) -> list[dict[int, int]]:
    """levels[d][op] = op mask of the node op shares at that level
    (0 = root, d >= 1 = d-th loop node on its path)."""
    levels: list[dict[int, int]] = [{}]

    def walk(node: IterNode, loop_depth: int):
        if isinstance(node, OpLeaf):
            return
        nxt = loop_depth if isinstance(node, PartitionNode) else loop_depth + 1
        if not isinstance(node, PartitionNode):
            while len(levels) <= nxt:
                levels.append({})
            for op in ops_under(node):
                levels[nxt][op] = node.mask
        for child in node.children:
            walk(child, nxt)

    for root in org.forest:
        for op in ops_under(root):
            levels[0][op] = root.mask
        walk(root, 0)
    return levels


def _insert_into_tree(tree: IterNode, op_id: int, depth: int,
                      graph: DataflowGraph, mates_at, coin) -> IterNode | None:
    """Place op into a frozen loop tree at the given depth, following the
    per-level parent choices; returns the new tree or None if the op's
    axis does not match here."""
    labels = graph.op(op_id).nest.labels()
    if not isinstance(tree, LoopNode) or depth >= len(labels) \
            or tree.axis != labels[depth]:
        return None
    if depth + 1 == len(labels):
        return LoopNode(tree.axis, tree.children + (OpLeaf(op_id),))
    parent = coin()
    mates = mates_at(parent, depth + 2, op_id)  # children are level depth+2
    for idx, child in enumerate(tree.children):
        if isinstance(child, LoopNode) and child.mask & mates:
            deeper = _insert_into_tree(child, op_id, depth + 1, graph,
                                       mates_at, coin)
            if deeper is not None:
                kids = list(tree.children)
                kids[idx] = deeper
                return LoopNode(tree.axis, tuple(kids))
            break
    chain = full_nest(graph.op(op_id), depth + 1)
    return LoopNode(tree.axis, tree.children + (chain,))


def crossover(parent_a: Organism, parent_b: Organism,
              graph: DataflowGraph, rng: random.Random) -> Organism:
    """Recombine two organisms level by level, outermost inward.

    For each operation a coin picks which parent's grouping to follow at
    the root level and again at each loop depth; each choice constrains
    the deeper ones, and the new node inherits the chosen parent's
    partition axis and thread count.  Infeasible placements fall back to
    the other parent, then to a standalone unfused root, so the child is
    always legal.
    """
    parents = (parent_a, parent_b)
    levels = (_level_masks(parent_a), _level_masks(parent_b))

    def mates_at(which: int, level: int, op_id: int) -> int:
        if level >= len(levels[which]):
            return 0
        return levels[which][level].get(op_id, 0) & ~(1 << op_id)

    roots: list[_MRoot] = []

    def attempt(op_id: int, which: int) -> list[_MRoot] | None:
        present = 0
        for r in roots:
            present |= r.mask()
        mates0 = mates_at(which, 0, op_id) & present
        coin = lambda: rng.randrange(2)
        if not mates0:
            idx = len(roots)
            target = _MRoot(_partition_info(parents[which], op_id),
                            [full_nest(graph.op(op_id))])
        else:
            pick = mates0 & -mates0  # the lowest mate op
            idx = next(k for k, r in enumerate(roots) if r.mask() & pick)
            target = roots[idx].clone()
            placed = False
            mates1 = mates_at(coin(), 1, op_id)
            for k, tree in enumerate(target.trees):
                if isinstance(tree, LoopNode) and tree.mask & mates1:
                    new_tree = _insert_into_tree(
                        tree, op_id, 0, graph, mates_at, coin)
                    if new_tree is not None:
                        target.trees[k] = new_tree
                        placed = True
                    break
            if not placed:
                if target.partition is None:
                    return None  # bare root cannot hold unfused siblings
                target.trees.append(full_nest(graph.op(op_id)))
        trial = roots[:idx] + [target] + roots[idx + 1:]
        return trial if _placement_legal(trial, idx, graph) else None

    for op_id in graph.op_ids():
        first = rng.randrange(2)
        placed = attempt(op_id, first) or attempt(op_id, 1 - first)
        if placed is None:
            roots.append(_MRoot(None, [full_nest(graph.op(op_id))]))
        else:
            roots = placed

    child = _materialize(roots, graph)
    if fusion_legal(child, graph) is not None:
        return parent_a  # cannot happen by construction; stay safe
    return child


# ---------------------------------------------------------------------------
# Selection, thread sweep

def tournament_select(population: list[tuple[Organism, float]], k: int,
                      rng: random.Random) -> Organism:
    """Best of k organisms drawn without replacement (uniformly)."""
    k = min(k, len(population))
    picks = rng.sample(range(len(population)), k)
    best = min(picks, key=lambda i: (population[i][1],
                                     canonical_key(population[i][0])))
    return population[best][0]


def thread_sweep(org: Organism, evaluate, core_count: int,
                 per_partition: bool = False,
                 budget: int | None = None) -> tuple[Organism, int]:
    """Try global thread counts {2, 4, ..., core_count} on the organism,
    return (best, candidates tried).  per_partition=True sweeps each
    partition's count independently (bounded by the remaining budget)."""
    if not org.threads:
        return org, 0
    counts = list(range(2, core_count + 1, 2))
    if not counts:
        return org, 0
    candidates: list[Organism]
    if per_partition:
        import itertools as _it
        candidates = []
        for combo in _it.product(counts, repeat=len(org.threads)):
            candidates.append(Organism(org.forest, combo))
            if budget is not None and len(candidates) >= budget:
                break
    else:
        candidates = [_with_threads(org, t) for t in counts]
    best = org
    best_score = evaluate(org).total, canonical_key(org)
    tried = 0
    for cand in candidates:
        report = evaluate(cand)
        tried += 1
        score = (report.total, canonical_key(cand))
        if score < best_score:
            best, best_score = cand, score
    return best, tried


# ---------------------------------------------------------------------------
# Search driver

class _BudgetDone(Exception):
    pass


class _Evaluator:
    """Cached fitness with logging and a unique-evaluation budget."""

    def __init__(self, fitness, strategy: str, cfg: SearchConfig):
        self.fitness = fitness if isinstance(fitness, CachedFitness) \
            else cached(fitness)
        self.strategy = strategy
        self.cfg = cfg
        self.log: list[LogEntry] = []
        self.generation = 0
        self.best: tuple[float, str, Organism] | None = None
        self.best_report: CostReport | None = None
        self.t0 = time.perf_counter()

    def __call__(self, org: Organism) -> CostReport:
        key = self.fitness.key(org)
        fresh = key not in self.fitness._table
        if fresh:
            # the seed evaluation is always allowed, even at budget 0
            if self.cfg.budget is not None and self.fitness.misses > 0 \
                    and self.fitness.misses >= self.cfg.budget:
                raise _BudgetDone()
            if self.cfg.time_budget_s is not None \
                    and time.perf_counter() - self.t0 > self.cfg.time_budget_s:
                raise _BudgetDone()
        report = self.fitness(org)
        if fresh:
            elapsed = 0.0 if report.source == "analytic" \
                else time.perf_counter() - self.t0
            self.log.append(LogEntry(canonical_key(org), report.total,
                                     self.generation, elapsed, self.strategy))
            ranked = (report.total, canonical_key(org))
            if self.best is None or ranked < self.best[:2]:
                self.best = (report.total, canonical_key(org), org)
                self.best_report = report
        return report

    def result(self) -> SearchResult:
        assert self.best is not None, "no evaluations happened"
        return SearchResult(
            strategy=self.strategy,
            best=self.best[2],
            best_fitness=self.best[0],
            best_report=self.best_report,
            log=self.log,
            evaluations=self.fitness.misses,
            cache_hits=self.fitness.hits,
        )


def _ga_loop(graph: DataflowGraph, cfg: SearchConfig, ev: _Evaluator,
             seed_org: Organism, rng: random.Random):
    n = cfg.population
    try:
        ev(seed_org)
        population: list[tuple[Organism, float]] = []
        for _ in range(n):
            org = mutate(seed_org, graph, rng, cfg)
            population.append((org, ev(org).total))
        for gen in range(1, cfg.generations + 1):
            ev.generation = gen
            parents = [tournament_select(population, cfg.tournament_k, rng)
                       for _ in range(2 * n)]
            children = []
            for i in range(n):
                child = crossover(parents[2 * i], parents[2 * i + 1],
                                  graph, rng)
                if rng.random() < cfg.mutation_prob:
                    child = mutate(child, graph, rng, cfg)
                children.append(child)
            scored = [(c, ev(c).total) for c in children]
            # elitism: the incumbent best survives every generation
            best_fit, _, best_org = ev.best
            if min(s for _, s in scored) > best_fit:
                worst = max(range(n), key=lambda i: (scored[i][1],
                            canonical_key(scored[i][0])))
                scored[worst] = (best_org, best_fit)
            population = scored
    except _BudgetDone:
        pass


def _final_sweep(graph, cfg, ev):
    if cfg.thread_mode == "const" or ev.best is None:
        return 0
    try:
        best_org = ev.best[2]
        _, tried = thread_sweep(
            best_org, ev, cfg.core_count,
            per_partition=(cfg.thread_mode == "exhaustive"),
            budget=cfg.budget,
        )
        return tried
    except _BudgetDone:
        return 0


def run_mfga(graph: DataflowGraph, cfg: SearchConfig, fitness) -> SearchResult:
    """Max-fuse seed, genetic algorithm, then a global thread sweep."""
    rng = random.Random(cfg.seed)
    ev = _Evaluator(fitness, "mfga", cfg)
    seed_org = max_fuse(graph, cfg.core_count)
    if cfg.thread_mode == "const":
        seed_org = _with_threads(seed_org, cfg.core_count)
    _ga_loop(graph, cfg, ev, seed_org, rng)
    ev.generation += 1
    sweeps = _final_sweep(graph, cfg, ev)
    result = ev.result()
    result.sweeps = sweeps
    return result


def run_strategy(strategy: str, graph: DataflowGraph, cfg: SearchConfig,
                 fitness) -> SearchResult:
    """Run one search strategy; see STRATEGIES for the choices."""
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    if strategy == "mfga":
        return run_mfga(graph, cfg, fitness)
    rng = random.Random(cfg.seed)
    ev = _Evaluator(fitness, strategy, cfg)
    if strategy == "mf":
        ev(max_fuse(graph, cfg.core_count))
        return ev.result()
    if strategy == "ga":
        try:
            seed_org = initial_forest(graph)
            _ga_loop(graph, cfg, ev, seed_org, rng)
        except _BudgetDone:
            pass
        ev.generation += 1
        sweeps = _final_sweep(graph, cfg, ev)
        result = ev.result()
        result.sweeps = sweeps
        return result
    if strategy == "random":
        org = initial_forest(graph)
        try:
            ev(org)
            budget = cfg.budget if cfg.budget is not None else \
                cfg.generations * cfg.population
            steps = 0
            while ev.fitness.misses < budget + 1 \
                    and steps < cfg.max_random_steps:
                org = mutate(org, graph, rng, cfg)
                ev(org)
                steps += 1
        except _BudgetDone:
            pass
        return ev.result()
    limits = Limits(
        max_ops=cfg.max_ops_exhaustive,
        max_threads=cfg.core_count,
        thread_mode=cfg.thread_mode if strategy == "exhaustive" else "const",
        core_count=cfg.core_count,
        require_shared_operand=cfg.require_shared_operand,
    )
    if strategy == "orthogonal":
        try:
            for org in enumerate_space(graph, limits):
                ev(org)
        except _BudgetDone:
            pass
        ev.generation = 1
        sweeps = _final_sweep(graph, cfg, ev)
        result = ev.result()
        result.sweeps = sweeps
        return result
    # exhaustive
    try:
        for org in enumerate_space(graph, limits):
            ev(org)
    except _BudgetDone:
        pass
    return ev.result()
