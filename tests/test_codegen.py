import random
import subprocess
from pathlib import Path

import numpy as np
import pytest

from matfuse.cemit import emit_c
from matfuse.corpus import available, load_graph
from matfuse.fuse import (
    Limits, LoopNode, PartitionNode, enumerate_space, initial_forest,
    parse_notation,
)
from matfuse.graph import build_dataflow, infer_types
from matfuse.interp import EvaluationError, reference_evaluate
from matfuse.lang import parse_kernel
from matfuse.lower import IRLoop, IRParallel, contract_arrays, lower
from matfuse.runtime import (
    max_rel_error, random_inputs, run_kernel, time_binary, workdir,
)
from matfuse.search import SearchConfig, max_fuse, random_organism

# Golden files pin the emitted bytes; regenerate by writing emit_c output
# for the same organism and extents if the emitter changes intentionally.
GOLDEN = Path(__file__).parent / "golden"


def build(graph, org, extents, contract=True):
    ir = lower(org, graph)
    if contract:
        ir = contract_arrays(ir)
    return ir, emit_c(ir, extents)


def check_against_reference(graph, org, extents, toolchain, seed=0,
                            contract=True, tol=1e-10):
    ir, kernel = build(graph, org, extents, contract)
    lib = toolchain.compile(kernel.source, workdir(), shared=True)
    inputs = random_inputs(graph, extents, seed=seed)
    got = run_kernel(lib, kernel, graph, inputs, extents)
    want = reference_evaluate(graph.spec, inputs)
    err = max_rel_error(got, want)
    assert err < tol, f"{kernel.organism_key}: error {err:.3e}"
    return err


class TestReferenceEvaluate:
    def test_batax_identity_matrix(self, batax):
        out = reference_evaluate(batax.spec, {
            "A": np.eye(3), "x": np.array([1.0, 2.0, 3.0]), "beta": 2.0,
        })
        np.testing.assert_allclose(out["y"], [2.0, 4.0, 6.0])

    def test_dgemv_degenerate_scalars(self, corpus_graphs):
        g = corpus_graphs["dgemv"]
        y = np.array([3.0, -1.0, 4.0])
        out = reference_evaluate(g.spec, {
            "A": np.ones((3, 2)), "x": np.array([1.0, 1.0]),
            "alpha": 0.0, "beta": 1.0, "y": y,
        })
        np.testing.assert_allclose(out["z"], y)

    def test_missing_input_rejected(self, batax):
        with pytest.raises(EvaluationError, match="missing"):
            reference_evaluate(batax.spec, {"A": np.eye(2), "beta": 1.0})

    def test_extent_mismatch_rejected(self, batax):
        with pytest.raises(EvaluationError):
            reference_evaluate(batax.spec, {
                "A": np.ones((3, 2)), "x": np.ones(3), "beta": 1.0,
            })


class TestLowering:
    def test_unfused_batax_mirrors_three_nests(self, batax):
        ir = lower(initial_forest(batax), batax)
        iters = [item for item in ir.roots if isinstance(item, IRLoop)
                 and item.role == "iter"]
        assert [l.axis for l in iters] == ["i", "i", "j"]
        assert ir.loop_count() == 5  # i,j + i,j + j
        assert ir.region_count() == 0

    def test_max_fuse_batax_structure(self, batax):
        org = max_fuse(batax, 4)
        ir = contract_arrays(lower(org, batax))
        regions = [it for it in ir.roots if isinstance(it, IRParallel)]
        assert len(regions) == 2
        assert regions[0].axis == "i" and regions[1].axis == "j"
        # op 2's reduction over i is cut by p(i): partial buffer + join
        assert regions[0].partials == ["t1"]
        assert regions[1].partials == []
        assert ir.contracted == frozenset({"t0"})

    def test_scalar_kernel_is_loop_free(self):
        g = infer_types(build_dataflow(parse_kernel(
            "T in: a : scalar out: b : scalar { b = a }")))
        ir = lower(initial_forest(g), g)
        assert ir.loop_count() == 0
        source = emit_c(ir).source
        kernel_body = source.split("void t(")[1].split("}")[0]
        assert "for" not in kernel_body

    def test_structural_fidelity_random_organisms(self, corpus_graphs):
        rng = random.Random(3)
        cfg = SearchConfig(core_count=6)
        for name in ("atax", "dgemv", "bicgk"):
            g = corpus_graphs[name]
            for _ in range(25):
                org = random_organism(g, rng, cfg)
                ir = lower(org, g)
                loops = 0
                parts = 0
                stack = list(org.forest)
                while stack:
                    node = stack.pop()
                    if isinstance(node, LoopNode):
                        loops += 1
                    elif isinstance(node, PartitionNode):
                        parts += 1
                    if not isinstance(node, (LoopNode, PartitionNode)):
                        continue
                    stack.extend(node.children)
                assert ir.loop_count() == loops
                assert ir.region_count() == parts


class TestContraction:
    def test_unfused_contracts_nothing(self, batax):
        ir = contract_arrays(lower(initial_forest(batax), batax))
        assert ir.contracted == frozenset()

    def test_vadd_temp_becomes_scalar(self, corpus_graphs, toolchain):
        g = corpus_graphs["vadd"]
        org = parse_notation("{_k 1 2}", g)
        ir = contract_arrays(lower(org, g))
        assert ir.contracted == frozenset({"t0"})
        source = emit_c(ir).source
        assert "t0_s" in source and "malloc(sizeof(double) * (size_t)M);" \
            not in source.split("#ifndef")[0]
        check_against_reference(g, org, {"M": 100}, toolchain)

    def test_contraction_never_changes_results(self, batax, toolchain):
        extents = {"M": 33, "N": 17}
        for text in ["{_{p(i)}{_i{_j 1}{_j 2}}}{_{p(j)}{_j 3}}",
                     "{_i{_j 1}{_j 2}}{_j 3}"]:
            org = parse_notation(text, batax, threads=3)
            inputs = random_inputs(batax, extents, seed=5)
            outs = []
            for contract in (False, True):
                ir, kernel = build(batax, org, extents, contract)
                lib = toolchain.compile(kernel.source, workdir(), shared=True)
                outs.append(run_kernel(lib, kernel, batax, inputs, extents))
            assert max_rel_error(outs[0], outs[1]) == 0.0


class TestEmission:
    def test_emit_is_deterministic(self, batax):
        org = max_fuse(batax, 4)
        a = emit_c(contract_arrays(lower(org, batax)), {"M": 10, "N": 10})
        b = emit_c(contract_arrays(lower(org, batax)), {"M": 10, "N": 10})
        assert a.source == b.source

    def test_golden_unfused(self, batax):
        gk = emit_c(contract_arrays(lower(initial_forest(batax), batax)),
                    {"M": 200, "N": 200})
        assert gk.source == (GOLDEN / "batax_unfused.c").read_text()

    def test_golden_max_fuse(self, batax):
        gk = emit_c(contract_arrays(lower(max_fuse(batax, 4), batax)),
                    {"M": 200, "N": 200})
        assert gk.source == (GOLDEN / "batax_maxfuse.c").read_text()

    def test_unfused_loops_match_reference_pseudocode(self, batax):
        src = emit_c(lower(initial_forest(batax), batax)).source
        assert "t0[i] += A[i * N + j] * x[j];" in src
        assert "t1[j] += A[i * N + j] * t0[i];" in src
        assert "y[j] = t1[j] * beta;" in src


class TestCompiledKernels:
    def test_vadd_full_space_compiles_and_validates(self, corpus_graphs,
                                                    toolchain):
        g = corpus_graphs["vadd"]
        for org in enumerate_space(g, Limits(max_threads=3)):
            check_against_reference(g, org, {"M": 37}, toolchain)

    def test_degenerate_extents(self, batax, toolchain):
        org = max_fuse(batax, 4)
        for extents in [{"M": 1, "N": 1}, {"M": 1, "N": 7}, {"M": 7, "N": 1},
                        {"M": 2, "N": 50}]:
            check_against_reference(batax, org, extents, toolchain, seed=2)

    def test_gemver_random_instance_matches(self, corpus_graphs, toolchain):
        g = corpus_graphs["gemver"]
        check_against_reference(g, max_fuse(g, 4), {"M": 50, "N": 50},
                                toolchain, seed=9)
        check_against_reference(g, initial_forest(g), {"M": 50, "N": 50},
                                toolchain, seed=9)

    def test_timing_main_prints_seconds_and_checksum(self, batax, toolchain):
        org = max_fuse(batax, 2)
        _, kernel = build(batax, org, {"M": 64, "N": 64})
        wd = workdir()
        binary = toolchain.compile(kernel.source, wd, name="kmain")
        seconds = time_binary(binary, {"M": 64, "N": 64},
                              batax.extent_names, reps=2)
        assert seconds > 0
        import subprocess
        out = subprocess.run([str(binary), "64", "64", "1"],
                             capture_output=True, text=True).stdout
        assert out.startswith("seconds ")
        assert "checksum " in out


class TestJointPartitionCorrectness:
    """Every assignment joint_partitions returns must generate numerically
    correct code when used as a fused partition."""

    def check_assignments(self, graph, op_ids, toolchain, extents):
        from matfuse.fuse import (
            LoopNode, Organism, OpLeaf, PartitionNode, canonicalize,
            full_nest, fusion_legal, joint_partitions,
        )

        assignments = joint_partitions(op_ids, graph)
        assert assignments
        rest = [op.op_id for op in graph.ops if op.op_id not in op_ids]
        for asg in assignments:
            axis = next(iter(asg.values())).axis
            trees = tuple(full_nest(graph.op(i)) for i in sorted(op_ids))
            forest = [PartitionNode(axis, 0, trees)]
            forest += [full_nest(graph.op(i)) for i in rest]
            org = canonicalize(Organism(tuple(forest), (3,)), graph)
            assert fusion_legal(org, graph) is None
            check_against_reference(graph, org, extents, toolchain, seed=4)

    def test_batax_pair(self, batax, toolchain):
        self.check_assignments(batax, [1, 2], toolchain, {"M": 13, "N": 9})

    def test_bicgk_both_axes(self, corpus_graphs, toolchain):
        self.check_assignments(corpus_graphs["bicgk"], [1, 2], toolchain,
                               {"M": 13, "N": 9})


class TestScalarKernel:
    def test_compiles_and_runs(self, toolchain):
        g = infer_types(build_dataflow(parse_kernel(
            "T in: a : scalar out: b : scalar { b = a }")))
        ir, kernel = build(g, initial_forest(g), {})
        lib = toolchain.compile(kernel.source, workdir(), shared=True)
        out = run_kernel(lib, kernel, g, {"a": 3.5}, {})
        assert out == {"b": 3.5}


def test_contracted_scalar_name_avoids_user_identifiers(toolchain):
    g = infer_types(build_dataflow(parse_kernel(
        "NX in: t0_s : vector(column), v : vector(column) "
        "out: z : vector(column) { z = t0_s + v + v }")))
    org = parse_notation("{_k 1 2}", g)
    ir, kernel = build(g, org, {"M": 8})
    assert "double t0_s_" in kernel.source
    check_against_reference(g, org, {"M": 8}, toolchain)


class TestTimingMain:
    """main's own locals and helpers never shadow a kernel's names."""

    @pytest.mark.parametrize("name", available())
    def test_every_bundled_kernel_builds_and_runs(self, name, toolchain,
                                                  tmp_path):
        g = load_graph(name)
        ext = {n: 24 for n in g.extent_names}
        _, kernel = build(g, max_fuse(g, 2), ext)
        binary = toolchain.compile(kernel.source, tmp_path, name="kmain")
        assert time_binary(binary, ext, g.extent_names, reps=1) >= 0

    def test_arrays_named_like_main_locals(self, toolchain, tmp_path):
        g = infer_types(build_dataflow(parse_kernel(
            "CLASH in: best : matrix(row), q : vector(column), "
            "r : vector(column) out: checksum : vector(column) "
            "{ checksum = best * q + r }")))
        M, N = 5, 7
        _, kernel = build(g, max_fuse(g, 2), {"M": M, "N": N})
        assert "double checksum_ = 0.0;" in kernel.source
        assert "for (size_t q_ = 0;" in kernel.source
        binary = toolchain.compile(kernel.source, tmp_path, name="kmain")
        proc = subprocess.run([str(binary), str(M), str(N), "1"],
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        printed = dict(line.split() for line in proc.stdout.splitlines())
        state = 88172645463325252  # main's LCG fills inputs in order

        def draws(n):
            nonlocal state
            out = []
            for _ in range(n):
                state = (state * 6364136223846793005
                         + 1442695040888963407) % 2 ** 64
                out.append((state >> 11) / 9007199254740992.0)
            return np.array(out)

        best, q, r = draws(M * N).reshape(M, N), draws(N), draws(M)
        assert float(printed["checksum"]) == pytest.approx(
            float(np.sum(best @ q + r)), rel=1e-12)


class TestBodyNames:
    """The kernel body's own locals never shadow a kernel's names."""

    @pytest.mark.parametrize("text, organism", [
        ("BLOCK in: A : matrix(row), p0 : vector(column) "
         "out: y : vector(column) { y = A * p0 }", None),
        ("JOIN in: A : matrix(row), x : vector(column) "
         "out: acc : vector(column) { acc = A' * x }",
         "{_{p(i)}{_i{_j 1}}}"),
        ("BOUNDS in: A : matrix(row), i_lo : vector(column) "
         "out: i_hi : vector(column) { i_hi = A * i_lo }", None),
        ("SCALAR in: s_acc : vector(column), x : vector(column) "
         "out: s : scalar { s = s_acc' * x }", "{_{p(k)}{_k 1}}"),
    ])
    def test_clashing_names_compile_and_validate(self, text, organism,
                                                 toolchain):
        g = infer_types(build_dataflow(parse_kernel(text)))
        org = max_fuse(g, 3) if organism is None \
            else parse_notation(organism, g, threads=3)
        assert org.threads, "the organism must have a parallel region"
        check_against_reference(g, org, {n: 10 for n in g.extent_names},
                                toolchain)
