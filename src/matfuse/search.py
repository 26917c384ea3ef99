"""Search strategies over organisms.

The production strategy is max-fuse followed by a genetic algorithm
("mfga"): a greedy pass fuses as many loops as deeply as legality
allows, the GA population starts as random mutations of that seed, and
a final sweep picks the global thread count.  Baselines: pure random
mutation walk, the GA without the greedy seed, the greedy seed alone,
orthogonal search (exhaustive over fusion with threads pinned, then a
thread sweep on the winner), and full exhaustive enumeration.  One
driver, run_strategy, runs every strategy; mfga, ga and orthogonal end
with the thread sweep.

Every organism edit is a forest splice (zero or more nodes in place of
the node at a path) followed by canonicalize.  A new partition node
takes the next free slot and its thread count is appended; canonicalize
renumbers the slots in preorder and drops the ones nothing uses.

Every candidate any strategy evaluates is legality-checked by
construction: mutation and crossover re-validate and fall back to the
unchanged/feasible form, so no fitness evaluation is ever spent on an
illegal organism.  Fitness values are cached on the canonical organism
key; the evaluation budget counts cache misses (real evaluations) and,
with the generation and step counts, is what ends a search.
"""

from __future__ import annotations

import contextlib
import itertools
import random
import time
from dataclasses import dataclass

from .cost import CachedFitness, CostReport, cached
from .fuse import (
    IterNode, Limits, LoopNode, OpLeaf, Organism, PartitionNode,
    canonical_key, canonicalize, enumerate_partitionings, enumerate_space,
    full_nest, fusion_legal, initial_forest, joint_partitions,
)
from .graph import DataflowGraph, bits

STRATEGIES = ("random", "mf", "ga", "mfga", "orthogonal", "exhaustive")
_SWEPT = ("mfga", "ga", "orthogonal")  # strategies ending in a thread sweep
MUTATION_PROB = 0.5  # chance a crossover child is also mutated


@dataclass(frozen=True)
class SearchConfig:
    population: int = 20
    tournament_k: int = 2
    generations: int = 50
    budget: int | None = None  # max unique (cache-miss) evaluations
    seed: int = 0
    thread_mode: str = "global"  # "const" | "global" | "exhaustive"
    core_count: int = 8
    max_ops_exhaustive: int = 4
    max_random_steps: int | None = None  # None: 10 x the evaluation budget
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
# Organism surgery (trees are immutable): splice, then canonicalize

def _with_children(node: IterNode, children: tuple[IterNode, ...]) -> IterNode:
    if isinstance(node, PartitionNode):
        return PartitionNode(node.axis, node.slot, children)
    return LoopNode(node.axis, children)


def splice(forest: tuple[IterNode, ...], path: tuple[int, ...],
           nodes: tuple[IterNode, ...]) -> tuple[IterNode, ...]:
    """The forest with `nodes` (zero or more) in place of the node at
    `path`, a root index followed by child indices."""
    kids = list(forest)
    if len(path) == 1:
        kids[path[0]:path[0] + 1] = nodes
    else:
        node = kids[path[0]]
        kids[path[0]] = _with_children(node,
                                       splice(node.children, path[1:], nodes))
    return tuple(kids)


def _edit(org: Organism, graph: DataflowGraph, *splices,
          new_threads: tuple[int, ...] = ()) -> Organism:
    """The canonical organism after applying each (path, nodes) splice in
    turn.  New partition nodes take slots len(org.threads) onward, with
    counts new_threads."""
    forest = org.forest
    for path, nodes in splices:
        forest = splice(forest, path, nodes)
    return canonicalize(Organism(forest, org.threads + new_threads), graph)


# ---------------------------------------------------------------------------
# Max fuse

def _choice_order(assignments, graph) -> list:
    """Prefer joint assignments with fewer parallel reductions, then by axis."""
    def score(asg):
        reds = sum(1 for c in asg.values() if c.parallel_reduction)
        return (reds, next(iter(asg.values())).axis)

    return sorted(assignments, key=score)


def _loop_pairs(kids: tuple[IterNode, ...]):
    """Index pairs ia < ib of sibling loop nodes on the same axis."""
    for ia, ib in itertools.combinations(range(len(kids)), 2):
        a, b = kids[ia], kids[ib]
        if isinstance(a, LoopNode) and isinstance(b, LoopNode) \
                and a.axis == b.axis:
            yield ia, ib


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
                for ia, ib in _loop_pairs(node.children):
                    cand = _apply_sibling_merge(
                        org, graph, ("siblings", path, node, ia, ib))
                    if fusion_legal(cand, graph) is None:
                        return cand
                for idx, child in enumerate(node.children):
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
    def merge_roots(org: Organism, ia: int, ib: int) -> Organism | None:
        ra, rb = org.forest[ia], org.forest[ib]
        group = list(bits(ra.mask | rb.mask))
        inner_a = ra.children if isinstance(ra, PartitionNode) else (ra,)
        inner_b = rb.children if isinstance(rb, PartitionNode) else (rb,)
        for asg in _choice_order(joint_partitions(group, graph), graph):
            axis = next(iter(asg.values())).axis
            part = PartitionNode(axis, len(org.threads), inner_a + inner_b)
            cand = _edit(org, graph, ((ib,), ()), ((ia,), (part,)),
                         new_threads=(core_count,))
            if fusion_legal(cand, graph) is None:
                return _merge_loop_siblings(cand, graph)
        return None

    org = initial_forest(graph)  # canonical: op ids follow program order
    while True:
        pairs = itertools.combinations(range(len(org.forest)), 2)
        merges = (merge_roots(org, ia, ib) for ia, ib in pairs)
        nxt = next(filter(None, merges), None)
        if nxt is None:
            break
        org = nxt

    # partition leftover solo roots on their preferred axis; wrapping a
    # root keeps its place in the canonical root order
    for ridx, root in enumerate(org.forest):
        if isinstance(root, PartitionNode) or root.mask.bit_count() != 1:
            continue
        op_id = root.mask.bit_length() - 1
        choices = sorted(enumerate_partitionings(op_id, graph),
                         key=lambda c: (c.parallel_reduction, c.axis))
        for choice in choices:
            part = PartitionNode(choice.axis, len(org.threads), (root,))
            cand = _edit(org, graph, ((ridx,), (part,)),
                         new_threads=(core_count,))
            if fusion_legal(cand, graph) is None:
                org = cand
                break
    org = _merge_loop_siblings(org, graph)
    assert fusion_legal(org, graph) is None
    return org


# ---------------------------------------------------------------------------
# Mutation

def _inner_nodes(org: Organism):
    """(path, node) of every loop and partition node, in preorder."""
    def walk(node: IterNode, path: tuple[int, ...]):
        if not isinstance(node, OpLeaf):
            yield path, node
            for idx, child in enumerate(node.children):
                yield from walk(child, path + (idx,))

    for ridx, root in enumerate(org.forest):
        yield from walk(root, (ridx,))


def _loop_fusion_sites(org: Organism):
    """Candidates for one add-fusion step: ("roots", ia, ib, merged) for
    two roots, ("siblings", path, node, ia, ib) for two children of the
    node at `path` (a root index, then child indices)."""
    sites = []
    roots = org.forest
    for ia, ib in itertools.combinations(range(len(roots)), 2):
        a, b = roots[ia], roots[ib]
        loops = isinstance(a, LoopNode) and isinstance(b, LoopNode)
        parts = isinstance(a, PartitionNode) and isinstance(b, PartitionNode) \
            and org.threads[a.slot] == org.threads[b.slot]
        if (loops or parts) and a.axis == b.axis:
            sites.append(("roots", ia, ib,
                          _with_children(a, a.children + b.children)))
    for path, node in _inner_nodes(org):
        for ia, ib in _loop_pairs(node.children):
            sites.append(("siblings", path, node, ia, ib))
    return sites


def _apply_root_merge(org, graph, ia, ib, merged) -> Organism:
    return _edit(org, graph, ((ib,), ()), ((ia,), (merged,)))


def _apply_sibling_merge(org, graph, site) -> Organism:
    _, path, node, ia, ib = site
    a, b = node.children[ia], node.children[ib]
    merged = LoopNode(a.axis, a.children + b.children)
    return _edit(org, graph, (path + (ib,), ()), (path + (ia,), (merged,)))


def _split_sites(org: Organism):
    """(path, node, pos): cut the node's children before position pos."""
    return [(path, node, pos) for path, node in _inner_nodes(org)
            for pos in range(1, len(node.children))]


def _apply_split(org, graph, site) -> Organism:
    # a split partition's halves share its slot until canonicalize gives
    # each its own, with the same count
    path, node, pos = site
    halves = (_with_children(node, node.children[:pos]),
              _with_children(node, node.children[pos:]))
    return _edit(org, graph, (path, halves))


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
                    cand = _apply_root_merge(org, graph, *site[1:])
                else:
                    cand = _apply_sibling_merge(org, graph, site)
        else:
            sites = _split_sites(org)
            if sites:
                cand = _apply_split(org, graph, sites[rng.randrange(len(sites))])
    elif kind == 1:  # partition level
        if rng.random() < 0.5:
            bare = [i for i, r in enumerate(org.forest)
                    if isinstance(r, LoopNode)]
            if bare:
                ridx = bare[rng.randrange(len(bare))]
                root = org.forest[ridx]
                assignments = joint_partitions(list(bits(root.mask)), graph)
                if assignments:
                    asg = assignments[rng.randrange(len(assignments))]
                    axis = next(iter(asg.values())).axis
                    t = org.threads[0] if org.threads else cfg.core_count
                    part = PartitionNode(axis, len(org.threads), (root,))
                    cand = _edit(org, graph, ((ridx,), (part,)),
                                 new_threads=(t,))
        else:
            parts = [i for i, r in enumerate(org.forest)
                     if isinstance(r, PartitionNode)]
            if parts:
                ridx = parts[rng.randrange(len(parts))]
                cand = _edit(org, graph, ((ridx,), org.forest[ridx].children))
    elif kind == 2:  # partition axis
        parts = [i for i, r in enumerate(org.forest)
                 if isinstance(r, PartitionNode)]
        if parts:
            ridx = parts[rng.randrange(len(parts))]
            root = org.forest[ridx]
            axes = [next(iter(a.values())).axis
                    for a in joint_partitions(list(bits(root.mask)), graph)]
            axes = [a for a in axes if a != root.axis]
            if axes:
                axis = axes[rng.randrange(len(axes))]
                part = PartitionNode(axis, root.slot, root.children)
                cand = _edit(org, graph, ((ridx,), (part,)))
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
    """The canonical organism of the growing roots; each partition node
    takes the next slot and its count is appended."""
    forest: list[IterNode] = []
    threads: list[int] = []
    for node, t in (p for r in roots for p in r.pairs()):
        if t is not None:
            node = PartitionNode(node.axis, len(threads), node.children)
            threads.append(t)
        forest.append(node)
    return canonicalize(Organism(tuple(forest), tuple(threads)), graph)


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
            for op in bits(node.mask):
                levels[nxt][op] = node.mask
        for child in node.children:
            walk(child, nxt)

    for root in org.forest:
        for op in bits(root.mask):
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
        candidates = []
        for combo in itertools.product(counts, repeat=len(org.threads)):
            candidates.append(Organism(org.forest, combo))
            if budget is not None and len(candidates) >= budget:
                break
    else:
        candidates = [Organism(org.forest, (t,) * len(org.threads))
                      for t in counts]
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
        key = canonical_key(org)
        fresh = org not in self.fitness
        # the seed evaluation is always allowed, even at budget 0
        if fresh and self.cfg.budget is not None \
                and self.fitness.misses >= max(self.cfg.budget, 1):
            raise _BudgetDone()
        report = self.fitness(org)
        if fresh:
            elapsed = 0.0 if report.source == "analytic" \
                else time.perf_counter() - self.t0
            self.log.append(LogEntry(key, report.total, self.generation,
                                     elapsed, self.strategy))
            if self.best is None or (report.total, key) < self.best[:2]:
                self.best = (report.total, key, org)
                self.best_report = report
        return report

    def result(self, sweeps: int) -> SearchResult:
        assert self.best is not None, "no evaluations happened"
        return SearchResult(
            strategy=self.strategy,
            best=self.best[2],
            best_fitness=self.best[0],
            best_report=self.best_report,
            log=self.log,
            evaluations=self.fitness.misses,
            cache_hits=self.fitness.hits,
            sweeps=sweeps,
        )


def _ga_loop(graph: DataflowGraph, cfg: SearchConfig, ev: _Evaluator,
             seed_org: Organism, rng: random.Random):
    """Evolve a population of mutants of the seed with tournament
    selection, crossover, mutation and elitism; the evaluator raises
    _BudgetDone when the budget is spent."""
    n = cfg.population
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
            child = crossover(parents[2 * i], parents[2 * i + 1], graph, rng)
            if rng.random() < MUTATION_PROB:
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


def run_strategy(strategy: str, graph: DataflowGraph, cfg: SearchConfig,
                 fitness) -> SearchResult:
    """Run one search strategy (see STRATEGIES) until it ends or the
    budget is spent; mfga, ga and orthogonal then sweep the winner's
    thread count, logged one generation after the search."""
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    rng = random.Random(cfg.seed)
    ev = _Evaluator(fitness, strategy, cfg)
    with contextlib.suppress(_BudgetDone):
        if strategy == "mf":
            ev(max_fuse(graph, cfg.core_count))
        elif strategy in ("mfga", "ga"):
            seed_org = max_fuse(graph, cfg.core_count) if strategy == "mfga" \
                else initial_forest(graph)
            _ga_loop(graph, cfg, ev, seed_org, rng)
        elif strategy == "random":
            org = initial_forest(graph)
            ev(org)
            budget = cfg.budget if cfg.budget is not None else \
                cfg.generations * cfg.population
            steps = cfg.max_random_steps if cfg.max_random_steps is not None \
                else 10 * budget
            for _ in range(steps):
                if ev.fitness.misses >= budget + 1:
                    break
                org = mutate(org, graph, rng, cfg)
                ev(org)
        else:  # orthogonal pins the thread count, exhaustive enumerates it
            limits = Limits(
                max_ops=cfg.max_ops_exhaustive,
                max_threads=cfg.core_count,
                thread_mode=cfg.thread_mode if strategy == "exhaustive"
                else "const",
                core_count=cfg.core_count,
                require_shared_operand=cfg.require_shared_operand,
            )
            for org in enumerate_space(graph, limits):
                ev(org)
    sweeps = 0
    if strategy in _SWEPT:
        ev.generation += 1
        if cfg.thread_mode != "const":
            with contextlib.suppress(_BudgetDone):
                _, sweeps = thread_sweep(
                    ev.best[2], ev, cfg.core_count,
                    per_partition=(cfg.thread_mode == "exhaustive"),
                    budget=cfg.budget,
                )
    return ev.result(sweeps)
