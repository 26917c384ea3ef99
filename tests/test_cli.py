import json
import tempfile

import pytest

from matfuse.cli import main
from matfuse.corpus import kernel_path


BATAX = str(kernel_path("batax"))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCompile:
    def test_default_max_fuse_two_regions(self, tmp_path, capsys, have_cc):
        out = tmp_path / "batax.c"
        args = ["compile", BATAX, "-o", str(out), "--extents", "40,30"]
        if not have_cc:
            args.append("--no-validate")
        code, stdout, _ = run(capsys, *args)
        assert code == 0
        assert "{_{p(i)}{_i{_j 1}{_j 2}}}{_{p(j)}{_j 3}}" in stdout
        assert out.read_text().count("#pragma omp parallel for") == 2

    def test_explicit_organism(self, tmp_path, capsys):
        out = tmp_path / "k.c"
        code, stdout, _ = run(
            capsys, "compile", BATAX, "-o", str(out), "--no-validate",
            "--organism", "{{1} {2}} {{3}}",
        )
        assert code == 0
        assert "{_i{_j 1}{_j 2}}{_j 3}" in stdout
        assert "#pragma" not in out.read_text()

    def test_illegal_grouping_exits_2_with_dependence(self, tmp_path, capsys):
        code, _, stderr = run(
            capsys, "compile", BATAX, "-o", str(tmp_path / "k.c"),
            "--no-validate", "--organism", "{{1} {3}} {{2}}",
        )
        assert code == 2
        assert "dependence" in stderr and "op 2" in stderr

    def test_reduction_violation_exits_2(self, tmp_path, capsys):
        code, _, stderr = run(
            capsys, "compile", BATAX, "-o", str(tmp_path / "k.c"),
            "--no-validate", "--organism", "{_i{_j 1 2}}{_j 3}",
        )
        assert code == 2
        assert "reduction" in stderr

    def test_scalar_kernel_loop_free(self, tmp_path, capsys):
        src = tmp_path / "t.bto"
        src.write_text("T in: a : scalar out: b : scalar { b = a }")
        out = tmp_path / "t.c"
        code, _, _ = run(capsys, "compile", str(src), "-o", str(out),
                         "--no-validate")
        assert code == 0
        body = out.read_text().split("void t(")[1].split("\n}")[0]
        assert "for" not in body

    def test_syntax_error_exits_2(self, tmp_path, capsys):
        src = tmp_path / "bad.bto"
        src.write_text("K in a : scalar out: b : scalar { b = a }")
        code, _, stderr = run(capsys, "compile", str(src), "--no-validate",
                              "-o", str(tmp_path / "x.c"))
        assert code == 2

    def test_missing_file_exits_1(self, capsys, tmp_path):
        code, _, _ = run(capsys, "compile", str(tmp_path / "nope.bto"),
                         "--no-validate", "-o", str(tmp_path / "x.c"))
        assert code == 1

    def test_usage_error_exits_1(self, capsys):
        code = main(["compile"])
        capsys.readouterr()
        assert code == 1


class TestSearch:
    def test_writes_best_log_summary(self, tmp_path, capsys):
        outdir = tmp_path / "run"
        code, stdout, _ = run(
            capsys, "search", BATAX, "--strategy", "mfga", "--seed", "3",
            "--generations", "6", "--out-dir", str(outdir), "--no-validate",
            "--extents", "500,500", "--cores", "4",
        )
        assert code == 0
        summary = json.loads((outdir / "summary.json").read_text())
        assert summary["strategy"] == "mfga"
        assert (outdir / "best.c").exists()
        lines = (outdir / "log.jsonl").read_text().splitlines()
        entries = [json.loads(l) for l in lines]
        assert len(entries) == summary["evaluations"]
        assert {"key", "fitness", "generation", "elapsed_s", "strategy"} <= \
            set(entries[0])
        assert min(e["fitness"] for e in entries) == summary["fitness"]

    def test_logs_append(self, tmp_path, capsys):
        outdir = tmp_path / "run"
        for _ in range(2):
            code, _, _ = run(
                capsys, "search", BATAX, "--strategy", "mf",
                "--out-dir", str(outdir), "--no-validate",
            )
            assert code == 0
        lines = (outdir / "log.jsonl").read_text().splitlines()
        assert len(lines) == 2

    def test_exhaustive_on_large_kernel_exits_1(self, tmp_path, capsys):
        gemver = str(kernel_path("gemver"))
        code, _, stderr = run(
            capsys, "search", gemver, "--strategy", "exhaustive",
            "--out-dir", str(tmp_path / "x"), "--no-validate",
        )
        assert code == 1
        assert "ops" in stderr


class TestEnumerate:
    def test_counts_and_digit_space(self, capsys):
        code, stdout, _ = run(
            capsys, "enumerate", BATAX, "--count-only", "--digit-space",
            "--max-threads", "8",
        )
        assert code == 0
        assert "total 202" in stdout
        assert "digit-space 1259712" in stdout

    def test_fusion_only_lists_structures(self, capsys):
        code, stdout, _ = run(capsys, "enumerate", BATAX, "--fusion-only")
        assert code == 0
        lines = stdout.strip().splitlines()
        assert "{_i{_j 1}{_j 2}}{_j 3}" in lines
        assert "{_i{_j 1}}{_i{_j 2}}{_j 3}" in lines
        assert not any("1 3" in l or "{_j 1 2}" in l for l in lines)

    def test_no_prune_admits_unshared_fusions(self, capsys):
        waxpby = str(kernel_path("waxpby"))
        code, pruned, _ = run(capsys, "enumerate", waxpby, "--fusion-only")
        assert code == 0
        code, unpruned, _ = run(capsys, "enumerate", waxpby, "--fusion-only",
                                "--no-prune")
        assert code == 0
        assert "{_k 1 2}" not in pruned
        assert "{_k 1 2}" in unpruned


class TestCorpus:
    def test_single_kernel_report(self, capsys, have_cc):
        args = ["corpus", "--kernel", "gemver", "--extents", "31,17"]
        if not have_cc:
            args.append("--no-validate")
        code, stdout, _ = run(capsys, *args)
        assert code == 0
        report = json.loads(stdout)
        assert report[0]["kernel"] == "gemver"
        assert report[0]["statements"] == 3
        assert report[0]["output_reuse"]["B"] == 2
        if have_cc:
            assert report[0]["validated"]

    def test_empty_corpus_dir_is_an_error(self, tmp_path, capsys):
        code, _, stderr = run(capsys, "corpus", "--corpus-dir",
                              str(tmp_path), "--no-validate")
        assert code == 1
        assert "no kernels found" in stderr


def test_validation_leaves_no_temp_dirs(tmp_path, capsys, monkeypatch,
                                        toolchain):
    scratch = tmp_path / "tmp"
    scratch.mkdir()
    monkeypatch.setenv("TMPDIR", str(scratch))
    monkeypatch.setattr(tempfile, "tempdir", None)
    code, stdout, _ = run(capsys, "compile", BATAX, "-o",
                          str(tmp_path / "k.c"), "--extents", "20,20")
    assert code == 0 and "validated" in stdout
    assert not list(scratch.glob("matfuse-*"))


def test_empty_loop_is_a_structure_error(tmp_path, capsys):
    code, _, stderr = run(
        capsys, "compile", BATAX, "-o", str(tmp_path / "k.c"),
        "--no-validate", "--organism", "{_i}{{1}}{{2}}{{3}}",
    )
    assert code == 2
    assert "structure" in stderr


@pytest.mark.parametrize("command, flag, value", [
    ("search", "--population", "1"),
    ("search", "--cores", "0"),
    ("compile", "--extents", "abc"),
    ("compile", "--extents", "-5"),
    ("compile", "--cores", "0"),
])
def test_bad_numeric_flag_exits_1(command, flag, value, tmp_path, capsys):
    out = ["--out-dir", str(tmp_path / "run")] if command == "search" \
        else ["-o", str(tmp_path / "k.c")]
    code, _, stderr = run(capsys, command, BATAX, flag, value,
                          "--no-validate", *out)
    assert code == 1
    assert f"error: argument {flag}:" in stderr
    assert not list(tmp_path.iterdir())
