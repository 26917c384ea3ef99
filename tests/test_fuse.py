import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matfuse.fuse import (
    Limits, NotationError, Organism, PartitionNode, SpaceError,
    canonical_key, canonicalize, contracted_temporaries,
    dependence_diagnostic, digit_space_size, enumerate_partitionings,
    enumerate_space, format_notation, full_nest, fusion_legal,
    initial_forest, joint_partitions, parse_notation,
)
from matfuse.graph import build_dataflow, infer_types
from matfuse.lang import parse_kernel
from matfuse.search import SearchConfig, max_fuse, random_organism


def org_keys(graph, limits):
    return {canonical_key(o) for o in enumerate_space(graph, limits)}


class TestInitialForest:
    def test_batax_unfused(self, batax):
        org = initial_forest(batax)
        assert format_notation(org) == "{_i{_j 1}}{_i{_j 2}}{_j 3}"
        assert org.threads == ()
        assert org == parse_notation("{{1}} {{2}} {{3}}", batax)

    def test_single_dot_op(self):
        g = infer_types(build_dataflow(parse_kernel(
            "DOT in: a : vector(column), b : vector(column) out: s : scalar "
            "{ s = a' * b }")))
        assert format_notation(initial_forest(g)) == "{_k 1}"

    def test_gemver_one_root_per_op(self, corpus_graphs):
        g = corpus_graphs["gemver"]
        assert len(initial_forest(g).forest) == len(g.ops)


class TestNotation:
    def test_canonical_strings_round_trip(self, batax):
        for text in [
            "{_i{_j 1}}{_i{_j 2}}{_j 3}",
            "{_i{_j 1}{_j 2}}{_j 3}",
            "{_{p(i)}{_i{_j 1}{_j 2}}}{_{p(j)}{_j 3}}",
            "{_{p(i)}{_i{_j 1}}{_i{_j 2}}}{_{p(j)}{_j 3}}",
        ]:
            org = parse_notation(text, batax)
            assert format_notation(org) == text

    def test_paper_style_compact_subscripts(self, batax):
        a = parse_notation("{_{p(i)}{_i{_j1}{_j2}}}{_{p(j)}{_j3}}", batax)
        b = parse_notation("{_{p(i)}{_i{_j 1}{_j 2}}}{_{p(j)}{_j 3}}", batax)
        assert a == b

    def test_schematic_double_braces(self, batax):
        # unsubscripted braces take each op's canonical nest
        org = parse_notation("{{1} {2}} {{3}}", batax)
        assert format_notation(org) == "{_i{_j 1}{_j 2}}{_j 3}"

    def test_threads_round_trip(self, batax):
        org = parse_notation(
            "{_{p(i)}{_i{_j 1}{_j 2}}}{_{p(j)}{_j 3}}", batax, threads=(4, 6)
        )
        assert org.threads == (4, 6)
        again = parse_notation(format_notation(org), batax,
                               threads=org.threads)
        assert again == org

    def test_bracket_mismatch(self, batax):
        with pytest.raises(NotationError, match="unbalanced|unexpected"):
            parse_notation("{_i{_j 1}", batax)

    def test_unknown_op_id(self, batax):
        with pytest.raises(NotationError, match="unknown op id"):
            parse_notation("{_i{_j 7}}{_i{_j 2}}{_j 3}", batax)

    def test_axis_not_in_nest(self, batax):
        with pytest.raises(NotationError, match="axis"):
            parse_notation("{_k{_j 1}}{_i{_j 2}}{_j 3}", batax)

    def test_missing_ops_rejected(self, batax):
        with pytest.raises(NotationError, match="covers ops"):
            parse_notation("{_i{_j 1}}{_i{_j 2}}", batax)

    def test_thread_count_arity_checked(self, batax):
        with pytest.raises(NotationError, match="thread counts"):
            parse_notation("{_{p(i)}{_i{_j 1}{_j 2}}}{_j 3}", batax,
                           threads=(2, 4))

    def test_nested_partition_rejected(self, batax):
        with pytest.raises(NotationError, match="partition"):
            parse_notation("{_i{_{p(j)}{_j 1}}}{_i{_j 2}}{_j 3}", batax)

    def test_op_under_too_few_loops_rejected(self, batax):
        with pytest.raises(NotationError, match="op 1"):
            parse_notation("{_i 1}{_i{_j 2}}{_j 3}", batax)

    def test_shape_error_carries_fusion_legal_diagnostic(self, batax):
        from matfuse.fuse import LoopNode, OpLeaf

        with pytest.raises(NotationError) as info:
            parse_notation("{_i 1}{_i{_j 2}}{_j 3}", batax)
        shallow = Organism((LoopNode("i", (OpLeaf(1),)),
                            full_nest(batax.op(2)), full_nest(batax.op(3))), ())
        assert info.value.diagnostic == fusion_legal(shallow, batax)
        assert info.value.diagnostic.rule == "structure"

    @settings(max_examples=120, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_random_organisms_round_trip(self, batax, seed):
        rng = random.Random(seed)
        cfg = SearchConfig(core_count=8)
        org = random_organism(batax, rng, cfg)
        text = format_notation(org)
        again = parse_notation(text, batax, threads=org.threads)
        assert again == org
        assert format_notation(again) == text


class TestPartitioning:
    def test_batax_op1_choices(self, batax):
        by_axis = {c.axis: c for c in enumerate_partitionings(1, batax)}
        assert set(by_axis) == {"i", "j"}
        rows = by_axis["i"]  # t0(p) = A(p,:) * x
        assert rows.sliced == ("A", "t0")
        assert rows.replicated == ("x",)
        assert not rows.parallel_reduction
        cols = by_axis["j"]  # t0 += A(:,p) * x(p), reduced at parallel level
        assert cols.sliced == ("A", "x")
        assert cols.parallel_reduction

    def test_batax_op2_choices(self, batax):
        by_axis = {c.axis: c for c in enumerate_partitionings(2, batax)}
        assert by_axis["j"].sliced == ("A", "t1")
        assert not by_axis["j"].parallel_reduction
        assert by_axis["i"].sliced == ("A", "t0")
        assert by_axis["i"].parallel_reduction

    def test_scalar_op_no_choices(self):
        g = infer_types(build_dataflow(parse_kernel(
            "T in: a : scalar out: b : scalar { b = a }")))
        assert enumerate_partitionings(1, g) == []

    def test_batax_fused_pair_joint_is_unique(self, batax):
        assignments = joint_partitions([1, 2], batax)
        assert len(assignments) == 1
        picked = assignments[0]
        assert picked[1].axis == "i" and picked[2].axis == "i"
        # the pair of choices from the worked example: rows of A for both,
        # with the consumer side becoming a parallel reduction
        assert picked[1].sliced == ("A", "t0")
        assert not picked[1].parallel_reduction
        assert picked[2].parallel_reduction

    def test_single_op_joint_is_full_choice_list(self, batax):
        assignments = joint_partitions([1], batax)
        assert [a[1].axis for a in assignments] == ["i", "j"]

    def test_bicgk_joint_matches_brute_force(self, corpus_graphs):
        g = corpus_graphs["bicgk"]
        # brute force over the 2x2 product of per-op choices
        import itertools
        expected = []
        for ca, cb in itertools.product(enumerate_partitionings(1, g),
                                        enumerate_partitionings(2, g)):
            if ca.axis != cb.axis:
                continue  # the shared matrix must be sliced identically
            expected.append((ca.axis, cb.axis))
        got = joint_partitions([1, 2], g)
        assert [(a[1].axis, a[2].axis) for a in got] == expected
        assert len(got) == 2

    def test_joint_axes_are_the_legal_partition_axes(self, all_graphs):
        """For every convex set of 1-3 ops, joint_partitions offers exactly
        the axes a one-root p(axis) organism over the set passes with."""
        for g in all_graphs.values():
            ids = g.op_ids()
            axes = sorted({a for op in g.ops for a in op.nest.labels()})

            def passes(subset, axis):
                part = PartitionNode(axis, 0, tuple(
                    full_nest(g.op(i)) for i in subset))
                rest = tuple(full_nest(g.op(i)) for i in ids
                             if i not in subset)
                org = canonicalize(Organism((part,) + rest, (2,)), g)
                return fusion_legal(org, g, require_shared_operand=False) \
                    is None

            for size in (1, 2, 3):
                for subset in itertools.combinations(ids, size):
                    if dependence_diagnostic(list(subset), g) is not None:
                        continue
                    got = [next(iter(a.values())).axis
                           for a in joint_partitions(subset, g)]
                    legal = [a for a in g.op(subset[0]).nest.labels()
                             if passes(subset, a)]
                    assert got == legal, (g.spec.name, subset)
                    assert not any(passes(subset, a) for a in axes
                                   if a not in legal), (g.spec.name, subset)


class TestLegality:
    def test_unfused_and_outer_fusion_legal(self, batax):
        for text in ["{{1}} {{2}} {{3}}", "{{1} {2}} {{3}}"]:
            assert fusion_legal(parse_notation(text, batax), batax) is None

    def test_inner_fusion_rejected_by_reduction_rule(self, batax):
        org = parse_notation("{_i{_j 1 2}}{_j 3}", batax)
        diag = fusion_legal(org, batax)
        assert diag is not None and diag.rule == "reduction"
        assert diag.ops == (1, 2) and diag.axis == "j"

    def test_skip_fusion_rejected_by_dependence_rule(self, batax):
        # ops 1 and 3 share a partition level while op 2 stays outside
        org = parse_notation("{_{p(j)}{_i{_j 1}}{_j 3}}{_i{_j 2}}", batax)
        diag = fusion_legal(org, batax)
        assert diag is not None and diag.rule == "dependence"
        assert 2 in diag.ops

    def test_parallel_reduction_blocks_in_region_consumer(self, batax):
        # slicing op 1's reduction axis j makes t0 a parallel reduction;
        # op 2 cannot read it inside the same region
        org = parse_notation("{_{p(j)}{_i{_j 1}}{_i{_j 2}}}{_j 3}", batax,
                             threads=4)
        diag = fusion_legal(org, batax)
        assert diag is not None and diag.rule == "reduction"
        assert diag.ops == (1, 2) and diag.axis == "j"

    def test_partition_axis_must_cover_every_op(self, batax):
        # op 3 iterates only j, so it cannot sit under a p(i) region
        org = parse_notation("{_{p(i)}{_i{_j 1}{_j 2}}{_j 3}}", batax,
                             threads=4)
        diag = fusion_legal(org, batax)
        assert diag is not None and diag.rule == "structure"
        assert 3 in diag.ops

    def test_unshared_fusion_pruned(self, corpus_graphs):
        g = corpus_graphs["waxpby"]  # ops 1 and 2 share nothing
        org = parse_notation("{_k 1 2}{_k 3}", g)
        diag = fusion_legal(org, g)
        assert diag is not None and diag.rule == "shared-operand"
        assert fusion_legal(org, g, require_shared_operand=False) is None

    def test_root_order_must_be_topological(self, batax):
        from matfuse.fuse import Organism, full_nest

        backwards = Organism(
            (full_nest(batax.op(2)), full_nest(batax.op(1)),
             full_nest(batax.op(3))), ()
        )
        diag = fusion_legal(backwards, batax)
        assert diag is not None and diag.rule == "order"

    def test_structure_leaf_depth(self, batax):
        from matfuse.fuse import LoopNode, OpLeaf, Organism, full_nest

        shallow = Organism(
            (LoopNode("i", (OpLeaf(1),)), full_nest(batax.op(2)),
             full_nest(batax.op(3))), ()
        )
        diag = fusion_legal(shallow, batax)
        assert diag is not None and diag.rule == "structure"


class TestContraction:
    def test_unfused_contracts_nothing(self, batax):
        assert contracted_temporaries(initial_forest(batax), batax) == set()

    def test_max_fuse_contracts_t0_not_t1(self, batax):
        org = max_fuse(batax, 8)
        assert contracted_temporaries(org, batax) == {"t0"}

    def test_vadd_fused_contracts_temp(self, corpus_graphs):
        g = corpus_graphs["vadd"]
        org = parse_notation("{_k 1 2}", g)
        assert contracted_temporaries(org, g) == {"t0"}
        assert contracted_temporaries(initial_forest(g), g) == set()


class TestEnumerate:
    def test_batax_includes_legal_sets_excludes_others(self, batax):
        keys = {format_notation(o) for o in enumerate_space(
            batax, Limits(max_threads=8))}
        a = format_notation(parse_notation("{{1}} {{2}} {{3}}", batax))
        b = format_notation(parse_notation("{{1} {2}} {{3}}", batax))
        assert a in keys and b in keys
        # inner fusion of 1,2 (reduction) and any grouping of {1,3} without 2
        # (dependence) never appear
        for key in keys:
            assert "{_j 1 2}" not in key
            assert "1 3" not in key and "1 2 3" not in key

    def test_soundness_every_point_legal(self, batax):
        for org in enumerate_space(batax, Limits(max_threads=3)):
            assert fusion_legal(org, batax) is None

    def test_duplicate_free(self, batax):
        keys = [canonical_key(o) for o in enumerate_space(
            batax, Limits(max_threads=3))]
        assert len(keys) == len(set(keys))

    def test_one_op_kernel_fusion_only_single_point(self):
        g = infer_types(build_dataflow(parse_kernel(
            "DOT in: a : vector(column), b : vector(column) out: s : scalar "
            "{ s = a' * b }")))
        orgs = list(enumerate_space(g, Limits(partitions=False)))
        assert len(orgs) == 1

    def test_batax_global_thread_count(self, batax):
        count = sum(1 for _ in enumerate_space(
            batax, Limits(max_threads=8, thread_mode="global")))
        # 25 partitioned structures x 8 global thread counts + 2 unpartitioned
        assert count == 25 * 8 + 2 == 202

    def test_refuses_large_kernels(self, corpus_graphs):
        with pytest.raises(SpaceError, match="max_ops"):
            list(enumerate_space(corpus_graphs["gemver"], Limits()))

    def test_thread_modes(self, batax):
        const = list(enumerate_space(batax, Limits(
            thread_mode="const", core_count=6)))
        for org in const:
            assert all(t == 6 for t in org.threads)
        exhaustive = sum(1 for _ in enumerate_space(batax, Limits(
            max_threads=2, thread_mode="exhaustive")))
        glob = sum(1 for _ in enumerate_space(batax, Limits(
            max_threads=2, thread_mode="global")))
        assert exhaustive > glob


class TestDigitSpace:
    def test_three_matvec_ops_with_partition_level(self):
        assert digit_space_size(3, 3, 8) == 1_259_712

    def test_single_op(self):
        assert digit_space_size(1, 3, 8) == 27

    def test_two_ops_shallow(self):
        assert digit_space_size(2, 2, 0) == 27

    def test_needs_positive_ops(self):
        with pytest.raises(ValueError):
            digit_space_size(0, 3, 8)

    def test_legal_space_is_a_tiny_fraction(self, batax):
        legal = sum(1 for _ in enumerate_space(batax, Limits(max_threads=8)))
        assert legal / digit_space_size(3, 3, 8) < 0.001


class TestClosureByConstruction:
    """Sharing a tree node *is* the fusion relation, so transitivity can
    never break: verify on randomized organisms that same-depth sharing
    partitions the operations."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_fusion_is_equivalence_at_every_depth(self, corpus_graphs, seed):
        g = corpus_graphs["dgemv"]
        rng = random.Random(seed)
        org = random_organism(g, rng, SearchConfig(core_count=8))
        from matfuse.fuse import _leaf_paths

        paths = _leaf_paths(org)
        depth = max(len(p) for p in paths.values())
        for d in range(depth):
            groups = {}
            for op, path in paths.items():
                if len(path) > d:
                    groups.setdefault(id(path[d]), set()).add(op)
            seen = set()
            for members in groups.values():
                assert not (members & seen)
                seen |= members

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_one_thread_count_per_partition_subtree(self, corpus_graphs, seed):
        g = corpus_graphs["bicgk"]
        rng = random.Random(seed)
        org = random_organism(g, rng, SearchConfig(core_count=8,
                                                   thread_mode="exhaustive"))
        from matfuse.fuse import PartitionNode

        slots = [r.slot for r in org.forest if isinstance(r, PartitionNode)]
        assert sorted(slots) == list(range(len(org.threads)))


def test_thousand_random_organisms_format_canonically(all_graphs):
    """format(parse(format(x))) is stable and parsing recovers x exactly."""
    cfg = SearchConfig(core_count=8)
    total = 0
    for name in ("batax", "dgemv", "axpydot", "bicgk"):
        g = all_graphs[name]
        rng = random.Random(17)
        while total < 250 * (("batax", "dgemv", "axpydot", "bicgk").index(name) + 1):
            org = random_organism(g, rng, cfg)
            text = format_notation(org)
            again = parse_notation(text, g, threads=org.threads)
            assert again == org
            assert format_notation(again) == text
            total += 1
    assert total == 1000
