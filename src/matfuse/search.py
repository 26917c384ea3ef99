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

Every organism move is a list of forest splices (zero or more nodes in
place of the node at a path) that _edit applies before canonicalize.
One generator lists the fusion moves, which mutation samples and
max-fuse's loop-level pass applies in order, and another the splits.
A partition node carries its own thread count, so a move that moves,
splits or merges partitions takes their counts along; a thread-count
change is with_threads.  fuse.partition_axes is the one answer to which
axes a root may be partitioned on.

Every candidate any strategy evaluates is legality-checked by
construction: mutation and crossover re-validate and fall back to the
unchanged/feasible form, so no fitness evaluation is ever spent on an
illegal organism.  Fitness values are cached on the canonical organism
key.  Each run keeps its own count of the distinct organisms it asked
for; that count is the evaluation budget and, with the generation and
step counts, is what ends a search.  A cache shared between runs only
saves computation.

Where a strategy knows its next candidates before it scores any of them
(the GA's initial mutants and each generation's children, the random
walk's next steps, the thread sweep's candidates), it hands them to the
fitness first (_Evaluator.prefetch), so an empirical fitness can build
them all at once.  Only the distinct organisms the run has not asked
for go, no more than the budget leaves, and the run then asks for each
in the same order as it would without: logs, counts and organisms are
unchanged.

Each run also keeps a memo of legality verdicts (LegalityMemo), made
when the run starts and dropped when it ends: the pure checks crossover
and mutation repeat on the same roots and children are computed once
per run and looked up after that, so a run's organisms are those it
would explore without the memo.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import random
import time
from dataclasses import asdict, dataclass

from .cost import CachedFitness, CostReport, cached
from .fuse import (
    IterNode, Limits, LoopNode, OpLeaf, Organism, PartitionNode,
    canonical_key, canonicalize, enumerate_space, full_nest, fusion_legal,
    initial_forest, partition_axes, with_children, with_threads,
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
    diagnostic: str | None = None  # why a failed candidate failed

    def as_dict(self) -> dict:
        entry = asdict(self)
        if self.diagnostic is None:
            del entry["diagnostic"]
        return entry


@dataclass
class SearchResult:
    strategy: str
    best: Organism
    best_fitness: float
    best_report: CostReport
    log: list[LogEntry]
    evaluations: int  # fitness evaluations this run (its cache misses)
    cache_hits: int  # this run's cache hits
    sweeps: int = 0  # thread-sweep candidates tried

    @property
    def best_key(self) -> str:
        return canonical_key(self.best)


# ---------------------------------------------------------------------------
# Legality verdicts, memoized per run

class LegalityMemo:
    """One run's legality verdicts on one graph, each computed by
    canonicalize and fusion_legal the first time it is asked for: a
    crossover root alone, keyed by the (frozen) root, and a whole
    organism, keyed by its canonical key and the shared-operand flag.
    A run owns its memo, so no verdict outlives the run."""

    def __init__(self, graph: DataflowGraph):
        self.graph = graph
        self._roots: dict[IterNode, bool] = {}
        self._organisms: dict[tuple[str, bool], bool] = {}

    def root_legal(self, root: IterNode) -> bool:
        """Whether the root alone, canonicalized, passes the partial
        check."""
        legal = self._roots.get(root)
        if legal is None:
            alone = canonicalize(Organism((root,)), self.graph)
            legal = fusion_legal(alone, self.graph, partial=True) is None
            self._roots[root] = legal
        return legal

    def legal(self, org: Organism,
              require_shared_operand: bool = True) -> bool:
        """Whether the whole organism passes fusion_legal."""
        key = org.key, require_shared_operand
        legal = self._organisms.get(key)
        if legal is None:
            legal = fusion_legal(org, self.graph,
                                 require_shared_operand) is None
            self._organisms[key] = legal
        return legal


# ---------------------------------------------------------------------------
# Organism surgery (trees are immutable): splice, then canonicalize

def splice(forest: tuple[IterNode, ...], path: tuple[int, ...],
           nodes: tuple[IterNode, ...]) -> tuple[IterNode, ...]:
    """The forest with `nodes` (zero or more) in place of the node at
    `path`, a root index followed by child indices."""
    kids = list(forest)
    if len(path) == 1:
        kids[path[0]:path[0] + 1] = nodes
    else:
        node = kids[path[0]]
        kids[path[0]] = with_children(node,
                                      splice(node.children, path[1:], nodes))
    return tuple(kids)


def _edit(org: Organism, graph: DataflowGraph, *splices) -> Organism:
    """The canonical organism after applying each (path, nodes) splice in
    turn."""
    forest = org.forest
    for path, nodes in splices:
        forest = splice(forest, path, nodes)
    return canonicalize(Organism(forest), graph)


# ---------------------------------------------------------------------------
# Moves: each is a list of (path, nodes) splices for _edit

def _inner_nodes(org: Organism):
    """(path, node) of every loop and partition node, in preorder."""
    def walk(node: IterNode, path: tuple[int, ...]):
        if not isinstance(node, OpLeaf):
            yield path, node
            for idx, child in enumerate(node.children):
                yield from walk(child, path + (idx,))

    for ridx, root in enumerate(org.forest):
        yield from walk(root, (ridx,))


def _mergeable(a: IterNode, b: IterNode) -> bool:
    """Siblings one fusion step merges: loops on the same axis, or
    partitions on the same axis with the same count."""
    if isinstance(a, LoopNode) and isinstance(b, LoopNode):
        return a.axis == b.axis
    return isinstance(a, PartitionNode) and isinstance(b, PartitionNode) \
        and (a.axis, a.threads) == (b.axis, b.threads)


def _merge(path: tuple[int, ...], kids: tuple[IterNode, ...], ia: int,
           ib: int):
    """The splices that fold kids[ib] into kids[ia], both children of the
    node at `path` (() for the forest)."""
    a, b = kids[ia], kids[ib]
    merged = with_children(a, a.children + b.children)
    return (path + (ib,), ()), (path + (ia,), (merged,))


def _fusion_moves(org: Organism, roots: bool = True) -> list:
    """Every one-step fusion: pairs of roots first (unless roots=False),
    then the children of each loop or partition node in preorder."""
    levels = [(path, node.children) for path, node in _inner_nodes(org)]
    if roots:
        levels.insert(0, ((), org.forest))
    return [_merge(path, kids, ia, ib) for path, kids in levels
            for ia, ib in itertools.combinations(range(len(kids)), 2)
            if _mergeable(kids[ia], kids[ib])]


def _split_moves(org: Organism) -> list:
    """Every one-step split: a loop or partition node cut in two before
    one of its children."""
    return [((path, (with_children(node, node.children[:pos]),
                     with_children(node, node.children[pos:]))),)
            for path, node in _inner_nodes(org)
            for pos in range(1, len(node.children))]


# ---------------------------------------------------------------------------
# Max fuse

def _axis_order(ops: int, graph: DataflowGraph) -> list[str]:
    """The partition axes of the op set, fewest parallel reductions first,
    then by label."""
    def reductions(axis: str) -> int:
        return sum(graph.op(i).nest.reduction_axis == axis for i in bits(ops))

    return sorted(partition_axes(ops, graph), key=lambda a: (reductions(a), a))


def _merge_loop_siblings(org: Organism, graph: DataflowGraph) -> Organism:
    """Greedily merge sibling loop nodes of equal axis while legal, scanning
    the loop and partition nodes in preorder: one accepted merge restarts
    the scan."""
    while True:
        cands = (_edit(org, graph, *move)
                 for move in _fusion_moves(org, roots=False))
        nxt = next((c for c in cands if fusion_legal(c, graph) is None), None)
        if nxt is None:
            return org
        org = nxt


def max_fuse(graph: DataflowGraph, core_count: int = 8) -> Organism:
    """Greedy maximal fusion over partitioned-but-undecided roots.

    Roots merge pairwise (ascending scan, restart after every merge) when
    a joint partition axis exists; loop levels then fuse as deeply as
    legality allows.  Leftover single-operation roots get their
    preferred partition axis; scalar operations stay bare.
    """
    def merge_roots(org: Organism, ia: int, ib: int) -> Organism | None:
        ra, rb = org.forest[ia], org.forest[ib]
        inner_a = ra.children if isinstance(ra, PartitionNode) else (ra,)
        inner_b = rb.children if isinstance(rb, PartitionNode) else (rb,)
        for axis in _axis_order(ra.mask | rb.mask, graph):
            part = PartitionNode(axis, core_count, inner_a + inner_b)
            cand = _edit(org, graph, ((ib,), ()), ((ia,), (part,)))
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
        for axis in _axis_order(root.mask, graph):
            part = PartitionNode(axis, core_count, (root,))
            cand = _edit(org, graph, ((ridx,), (part,)))
            if fusion_legal(cand, graph) is None:
                org = cand
                break
    org = _merge_loop_siblings(org, graph)
    assert fusion_legal(org, graph) is None
    return org


# ---------------------------------------------------------------------------
# Mutation

def mutate(org: Organism, graph: DataflowGraph, rng: random.Random,
           cfg: SearchConfig, memo: LegalityMemo | None = None) -> Organism:
    """Apply one random change; inapplicable or illegal choices leave the
    organism unchanged.  `memo` is the run's legality memo (a fresh one
    when None).

    The four changes: add/remove a fusion level, add/remove a partition
    level, change a partition axis, change the thread count (by 2,
    clamped to [2, core_count]).
    """
    kind = rng.randrange(4)
    parts = [i for i, r in enumerate(org.forest) if isinstance(r, PartitionNode)]
    cand: Organism | None = None
    if kind == 0:  # fusion level
        moves = _fusion_moves(org) if rng.random() < 0.5 else _split_moves(org)
        if moves:
            cand = _edit(org, graph, *moves[rng.randrange(len(moves))])
    elif kind == 1:  # partition level
        if rng.random() < 0.5:
            bare = [i for i, r in enumerate(org.forest)
                    if isinstance(r, LoopNode)]
            if bare:
                ridx = bare[rng.randrange(len(bare))]
                root = org.forest[ridx]
                axes = partition_axes(root.mask, graph)
                if axes:
                    axis = axes[rng.randrange(len(axes))]
                    t = org.threads[0] if org.threads else cfg.core_count
                    part = PartitionNode(axis, t, (root,))
                    cand = _edit(org, graph, ((ridx,), (part,)))
        elif parts:
            ridx = parts[rng.randrange(len(parts))]
            cand = _edit(org, graph, ((ridx,), org.forest[ridx].children))
    elif kind == 2:  # partition axis
        if parts:
            ridx = parts[rng.randrange(len(parts))]
            root = org.forest[ridx]
            axes = [a for a in partition_axes(root.mask, graph)
                    if a != root.axis]
            if axes:
                axis = axes[rng.randrange(len(axes))]
                part = PartitionNode(axis, root.threads, root.children)
                cand = _edit(org, graph, ((ridx,), (part,)))
    else:  # thread count
        if org.threads and cfg.thread_mode != "const":
            delta = 2 if rng.random() < 0.5 else -2
            lo, hi = 2, max(2, cfg.core_count)
            counts = list(org.threads)
            if cfg.thread_mode == "global":
                t = min(max(counts[0] + delta, lo), hi)
                counts = [t] * len(counts)
            else:
                i = rng.randrange(len(counts))
                counts[i] = min(max(counts[i] + delta, lo), hi)
            cand = with_threads(org, counts)
    if cand is None:
        return org
    if memo is None:
        memo = LegalityMemo(graph)
    return cand if memo.legal(cand, cfg.require_shared_operand) else org


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

def _partition_info(org: Organism, op_id: int) -> PartitionNode | None:
    """The partition root over an op, or None."""
    for root in org.forest:
        if root.mask >> op_id & 1:
            return root if isinstance(root, PartitionNode) else None
    return None


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


def _placement_legal(roots: list[IterNode], changed: int,
                     graph: DataflowGraph,
                     memo: LegalityMemo | None = None) -> bool:
    """Whether a growing child stays legal after roots[changed] took an op.

    Checks that root alone, then that all roots can be ordered.  This
    equals fusion_legal(canonicalize(Organism(roots)), graph, partial=True)
    when every other root passed it before: the fused-set, sibling-order
    and reduction rules never span two roots, canonicalize only reorders
    roots, and coverage holds by construction.  The root's verdict comes
    from `memo`, the run's legality memo (a fresh one when None).
    """
    if memo is None:
        memo = LegalityMemo(graph)
    return memo.root_legal(roots[changed]) \
        and _roots_ordered([r.mask for r in roots], graph)


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
              graph: DataflowGraph, rng: random.Random,
              memo: LegalityMemo | None = None) -> Organism:
    """Recombine two organisms level by level, outermost inward.

    For each operation a coin picks which parent's grouping to follow at
    the root level and again at each loop depth; each choice constrains
    the deeper ones, and the new node inherits the chosen parent's
    partition axis and thread count.  Infeasible placements fall back to
    the other parent, then to a standalone unfused root, so the child is
    always legal.  Legality verdicts come from `memo`, the run's legality
    memo (a fresh one when None).
    """
    if memo is None:
        memo = LegalityMemo(graph)
    parents = (parent_a, parent_b)
    levels = (_level_masks(parent_a), _level_masks(parent_b))

    def mates_at(which: int, level: int, op_id: int) -> int:
        if level >= len(levels[which]):
            return 0
        return levels[which][level].get(op_id, 0) & ~(1 << op_id)

    roots: list[IterNode] = []  # a partition, or one bare loop tree

    def attempt(op_id: int, which: int) -> list[IterNode] | None:
        present = 0
        for r in roots:
            present |= r.mask
        mates0 = mates_at(which, 0, op_id) & present
        coin = lambda: rng.randrange(2)
        if not mates0:
            idx = len(roots)
            target = full_nest(graph.op(op_id))
            part = _partition_info(parents[which], op_id)
            if part is not None:
                target = with_children(part, (target,))
        else:
            pick = mates0 & -mates0  # the lowest mate op
            idx = next(k for k, r in enumerate(roots) if r.mask & pick)
            root = roots[idx]
            partitioned = isinstance(root, PartitionNode)
            trees = root.children if partitioned else (root,)
            mates1 = mates_at(coin(), 1, op_id)
            k = next((k for k, tree in enumerate(trees)
                      if isinstance(tree, LoopNode) and tree.mask & mates1),
                     None)
            new_tree = None if k is None else _insert_into_tree(
                trees[k], op_id, 0, graph, mates_at, coin)
            if new_tree is not None:
                trees = trees[:k] + (new_tree,) + trees[k + 1:]
            elif partitioned:
                trees += (full_nest(graph.op(op_id)),)
            else:
                return None  # bare root cannot hold unfused siblings
            target = with_children(root, trees) if partitioned else trees[0]
        trial = roots[:idx] + [target] + roots[idx + 1:]
        return trial if _placement_legal(trial, idx, graph, memo) else None

    for op_id in graph.op_ids():
        first = rng.randrange(2)
        placed = attempt(op_id, first) or attempt(op_id, 1 - first)
        if placed is None:
            roots.append(full_nest(graph.op(op_id)))
        else:
            roots = placed

    child = canonicalize(Organism(tuple(roots)), graph)
    if not memo.legal(child):
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
    return (best, candidates tried).  per_partition=True tries every
    combination of per-partition counts instead, the first `budget` of
    them; an evaluator that raises when its run's budget is spent ends
    the sweep there.  `evaluate` is a CachedFitness or a run's evaluator:
    its `prefetch` gets the organism and every candidate before any is
    evaluated."""
    if not org.threads:
        return org, 0
    counts = list(range(2, core_count + 1, 2))
    if not counts:
        return org, 0
    candidates: list[Organism]
    if per_partition:
        candidates = []
        for combo in itertools.product(counts, repeat=len(org.threads)):
            candidates.append(with_threads(org, combo))
            if budget is not None and len(candidates) >= budget:
                break
    else:
        candidates = [with_threads(org, (t,) * len(org.threads))
                      for t in counts]
    evaluate.prefetch([org, *candidates])
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
    """Cached fitness with logging and a budget of the distinct organisms
    this run asks for.  The cache may come warm from an earlier run: it
    saves computation only, and the counts it reports are this run's."""

    def __init__(self, fitness, strategy: str, cfg: SearchConfig):
        self.fitness = fitness if isinstance(fitness, CachedFitness) \
            else cached(fitness)
        self.seen: set[str] = set()  # keys of this run's organisms
        self.start = self.fitness.misses, self.fitness.hits
        self.strategy = strategy
        self.cfg = cfg
        self.log: list[LogEntry] = []
        self.generation = 0
        self.best: tuple[float, str, Organism] | None = None
        self.best_report: CostReport | None = None
        self.t0 = time.perf_counter()

    def room(self) -> float:
        """How many more distinct organisms this run may ask for; the seed
        evaluation is always allowed, even at budget 0."""
        if self.cfg.budget is None:
            return math.inf
        return max(self.cfg.budget, 1) - len(self.seen)

    def prefetch(self, orgs: list[Organism]) -> None:
        """Hand the fitness, before any is asked for, the organisms the
        caller will ask for next, in order: the first of each key this run
        has not asked for yet, no more than `room` of them.  Asking stays
        one organism at a time, in the caller's order."""
        fresh: dict[str, Organism] = {}
        for org in orgs:
            key = canonical_key(org)
            if key not in self.seen and len(fresh) < self.room():
                fresh.setdefault(key, org)
        self.fitness.prefetch(list(fresh.values()))

    def __call__(self, org: Organism) -> CostReport:
        key = canonical_key(org)
        fresh = key not in self.seen
        if fresh and self.room() <= 0:
            raise _BudgetDone()
        report = self.fitness(org)
        if fresh:
            self.seen.add(key)
            elapsed = 0.0 if report.source == "analytic" \
                else time.perf_counter() - self.t0
            self.log.append(LogEntry(key, report.total, self.generation,
                                     elapsed, self.strategy,
                                     report.diagnostic))
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
            evaluations=self.fitness.misses - self.start[0],
            cache_hits=self.fitness.hits - self.start[1],
            sweeps=sweeps,
        )


def _ga_loop(graph: DataflowGraph, cfg: SearchConfig, ev: _Evaluator,
             seed_org: Organism, rng: random.Random, memo: LegalityMemo):
    """Evolve a population of mutants of the seed with tournament
    selection, crossover, mutation and elitism; the evaluator raises
    _BudgetDone when the budget is spent.  The mutants, and each
    generation's children, are all made before any is scored, and handed
    to ev.prefetch together."""
    n = cfg.population
    mutants = [mutate(seed_org, graph, rng, cfg, memo) for _ in range(n)]
    ev.prefetch([seed_org, *mutants])
    ev(seed_org)
    population = [(org, ev(org).total) for org in mutants]
    for gen in range(1, cfg.generations + 1):
        ev.generation = gen
        parents = [tournament_select(population, cfg.tournament_k, rng)
                   for _ in range(2 * n)]
        children = []
        for i in range(n):
            child = crossover(parents[2 * i], parents[2 * i + 1], graph, rng,
                              memo)
            if rng.random() < MUTATION_PROB:
                child = mutate(child, graph, rng, cfg, memo)
            children.append(child)
        ev.prefetch(children)
        scored = [(c, ev(c).total) for c in children]
        # elitism: the incumbent best survives every generation
        best_fit, _, best_org = ev.best
        if min(s for _, s in scored) > best_fit:
            worst = max(range(n), key=lambda i: (scored[i][1],
                        canonical_key(scored[i][0])))
            scored[worst] = (best_org, best_fit)
        population = scored


def _random_walk(graph: DataflowGraph, cfg: SearchConfig, ev: _Evaluator,
                 rng: random.Random, memo: LegalityMemo):
    """Walk by single mutations from the unfused forest, asking for every
    step, until the next step would be a distinct organism beyond the
    budget (cfg.budget, else generations x population; the start organism
    counts, and is always asked for) or 10 x budget steps are taken.

    No step reads a fitness, so the walk runs ahead: its steps are made
    in chunks of at most `population` distinct new organisms, and each
    chunk goes to ev.prefetch before it is asked for, step by step.
    """
    budget = cfg.budget if cfg.budget is not None else \
        cfg.generations * cfg.population
    org = initial_forest(graph)
    chunk, new = [org], {canonical_key(org)}

    def ask():
        ev.prefetch(chunk)
        for step in chunk:
            ev(step)

    # a small kernel's legal space may be smaller than the budget
    for _ in range(10 * budget):
        org = mutate(org, graph, rng, cfg, memo)
        key = canonical_key(org)
        if key not in ev.seen and key not in new:
            if len(ev.seen) + len(new) >= max(budget, 1):
                break
            if len(new) == cfg.population:
                ask()
                chunk, new = [], set()
            new.add(key)
        chunk.append(org)
    ask()


def run_strategy(strategy: str, graph: DataflowGraph, cfg: SearchConfig,
                 fitness) -> SearchResult:
    """Run one search strategy (see STRATEGIES) until it ends or the
    budget is spent; mfga, ga and orthogonal then sweep the winner's
    thread count, logged one generation after the search."""
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    rng = random.Random(cfg.seed)
    ev = _Evaluator(fitness, strategy, cfg)
    memo = LegalityMemo(graph)  # this run's verdicts, dropped at its end
    with contextlib.suppress(_BudgetDone):
        if strategy == "mf":
            ev(max_fuse(graph, cfg.core_count))
        elif strategy in ("mfga", "ga"):
            seed_org = max_fuse(graph, cfg.core_count) if strategy == "mfga" \
                else initial_forest(graph)
            _ga_loop(graph, cfg, ev, seed_org, rng, memo)
        elif strategy == "random":
            _random_walk(graph, cfg, ev, rng, memo)
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
