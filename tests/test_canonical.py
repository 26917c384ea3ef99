"""Organisms canonical by construction.

An edit orders only the nodes it rebuilt, each node renders its brace
text once, and sibling order reads one union mask; each is checked here
against the whole-forest form it replaces.
"""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matfuse import fuse, search
from matfuse.corpus import available, load_graph
from matfuse.cost import AnalyticCost, MachineModel, cached
from matfuse.fuse import (
    LoopNode, OpLeaf, Organism, PartitionNode, _order_children,
    canonical_key, canonicalize, parse_notation,
)
from matfuse.search import (
    SearchConfig, _edit, _fusion_moves, _split_moves, max_fuse,
    random_organism, run_strategy, splice,
)

KERNELS = available()
GRAPHS = {name: load_graph(name) for name in KERNELS}


def render(node) -> str:
    """The brace text of a node, rendered anew from its children."""
    if isinstance(node, OpLeaf):
        return f" {node.op_id}"
    body = "".join(render(c) for c in node.children)
    if isinstance(node, PartitionNode):
        return "{_{p(" + node.axis + ")}" + body + "}"
    return "{_" + node.axis + body + "}"


def nodes_of(org):
    stack = list(org.forest)
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, OpLeaf):
            stack.extend(node.children)


def raw_splices(org, move) -> Organism:
    """The forest the move's splices leave, nothing reordered."""
    forest = org.forest
    for path, nodes in move:
        forest = splice(forest, path, nodes, {})
    return Organism(forest)


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(KERNELS), seed=st.integers(0, 2**31 - 1),
       mode=st.sampled_from(fuse.THREAD_MODES))
def test_edit_equals_canonicalize_of_the_spliced_forest(name, seed, mode):
    g = GRAPHS[name]
    cfg = SearchConfig(core_count=6, thread_mode=mode)
    org = random_organism(g, random.Random(seed), cfg)
    assert org == canonicalize(org, g)
    for move in _fusion_moves(org) + _split_moves(org):
        got = _edit(org, g, *move)
        want = canonicalize(raw_splices(org, move), g)
        assert got == want
        assert canonical_key(got) == canonical_key(want)
        for node in nodes_of(got):
            assert node.text == render(node)


def test_edits_cover_legal_and_illegal_results():
    """The moves of the property above reach both verdicts."""
    g = GRAPHS["gemver"]
    rng = random.Random(3)
    verdicts = set()
    for _ in range(20):
        org = random_organism(g, rng, SearchConfig(core_count=4))
        for move in _fusion_moves(org) + _split_moves(org):
            got = _edit(org, g, *move)
            assert got == canonicalize(raw_splices(org, move), g)
            verdicts.add(fuse.fusion_legal(got, g) is None)
    assert verdicts == {True, False}


def test_edit_reuses_every_subtree_it_did_not_rebuild():
    g = GRAPHS["gemver"]
    org = max_fuse(g, 4)
    for move in _split_moves(org):
        (path, _), = move
        got = _edit(org, g, *move)
        untouched = [r for i, r in enumerate(org.forest) if i != path[0]]
        assert all(any(r is s for s in got.forest) for r in untouched)


def test_random_walk_edits_call_no_canonicalize(monkeypatch):
    g = GRAPHS["gemver"]
    calls = {"canonicalize": 0, "_edit": 0}

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(search, "canonicalize",
                        counting("canonicalize", search.canonicalize))
    monkeypatch.setattr(search, "_edit", counting("_edit", search._edit))
    machine = MachineModel(core_count=2, extents=(("M", 2000), ("N", 2000)))
    run_strategy("random", g, SearchConfig(budget=200, seed=0, core_count=2),
                 cached(AnalyticCost(g, machine)))
    assert calls["_edit"] > 100
    assert calls["canonicalize"] == 0


def pairwise_order(children, graph):
    """Sibling order with a readiness test per pair of siblings."""
    if len(children) < 2:
        return list(children)
    remaining = list(children)
    out = []
    while remaining:
        ready = [c for c in remaining
                 if not any(graph.up_of(c.mask) & o.mask
                            for o in remaining if o is not c)]
        if not ready:
            out.extend(remaining)
            break
        pick = min(ready, key=lambda c: c.mask & -c.mask)
        out.append(pick)
        remaining.remove(pick)
    return out


@pytest.mark.parametrize("name", KERNELS)
def test_one_mask_readiness_orders_like_the_pairwise_test(name):
    g = GRAPHS[name]
    rng = random.Random(len(name))
    cyclic = 0
    for _ in range(300):
        ops = rng.sample(g.op_ids(), rng.randint(1, len(g.ops)))
        groups = [[] for _ in range(rng.randint(1, len(ops)))]
        for op in ops:
            rng.choice(groups).append(op)
        siblings = [LoopNode("i", tuple(OpLeaf(o) for o in grp))
                    for grp in groups if grp]
        rng.shuffle(siblings)
        want = pairwise_order(siblings, g)
        got = _order_children(siblings, g)
        assert len(got) == len(want)
        assert all(a is b for a, b in zip(got, want))
        cyclic += not search._roots_ordered([s.mask for s in siblings], g)
    if name == "gemver":
        assert cyclic > 0  # the fallback order was compared too


@pytest.mark.parametrize("name", KERNELS)
def test_parse_notation_reads_back_every_key(name):
    g = GRAPHS[name]
    orgs = [max_fuse(g, cores) for cores in (2, 8)]
    for mode in fuse.THREAD_MODES:
        rng = random.Random(11)
        cfg = SearchConfig(core_count=8, thread_mode=mode)
        orgs += [random_organism(g, rng, cfg) for _ in range(30)]
    for org in orgs:
        key = canonical_key(org)
        assert parse_notation(key, g) == org
        assert parse_notation(key, g, threads=3) == org  # the suffix wins


@pytest.mark.parametrize("key, message", [
    ("{_{p(i)}{_i{_j 1}{_j 2}}}{_{p(j)}{_j 3}};t=4", "1 thread counts for 2"),
    ("{_{p(i)}{_i{_j 1}{_j 2}}}{_{p(j)}{_j 3}};t=4,4,4", "3 thread counts"),
    ("{_i{_j 1}{_j 2}}{_j 3};t=4", "1 thread counts for 0"),
    ("{_{p(i)}{_i{_j 1}{_j 2}}}{_{p(j)}{_j 3}};t=0,4", "positive"),
    ("{_{p(i)}{_i{_j 1}{_j 2}}}{_{p(j)}{_j 3}};4,4", "expected ';t='"),
    ("{_{p(i)}{_i{_j 1}{_j 2}}}{_{p(j)}{_j 3}};t=4,", "expected ';t='"),
    ("{_{p(i)}{_i{_j 1}{_j 2}}}{_{p(j)}{_j 3}};t=4 4", "expected ';t='"),
    ("{_{p(i)}{_i{_j 1}{_j 2};t=4}}", "unexpected ';'"),
])
def test_key_suffix_errors_are_notation_errors(key, message):
    with pytest.raises(fuse.NotationError, match=message):
        parse_notation(key, GRAPHS["batax"])


@pytest.mark.parametrize("mode", fuse.THREAD_MODES)
def test_limits_reject_fewer_than_one_thread(mode):
    for bad in (0, -1):
        with pytest.raises(ValueError, match="at least 1"):
            fuse.Limits(max_threads=bad, thread_mode=mode)
    assert list(itertools.islice(fuse.enumerate_space(
        GRAPHS["batax"], fuse.Limits(max_threads=1, thread_mode=mode)), 1))
