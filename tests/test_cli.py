import argparse
import json
import math
import pathlib
import tempfile

import pytest

from matfuse import cli
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

    @pytest.mark.parametrize("kind", ["directory", "not-utf8", "unreadable"])
    def test_unreadable_kernel_file_exits_1(self, kind, capsys, tmp_path,
                                            monkeypatch):
        src = tmp_path / "k.bto"
        if kind == "directory":
            src.mkdir()
        else:
            src.write_bytes(b"VADD \xff\xfe")
        if kind == "unreadable":  # chmod does not stop a root reader
            def denied(self, *args, **kwargs):
                raise PermissionError(13, "Permission denied", str(self))
            monkeypatch.setattr(pathlib.Path, "read_text", denied)
        code, _, stderr = run(capsys, "compile", str(src), "--no-validate",
                              "-o", str(tmp_path / "x.c"))
        assert code == 1
        assert stderr.startswith("error: ") and str(src) in stderr

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

    def test_failed_candidates_write_valid_json(self, tmp_path, capsys):
        outdir = tmp_path / "run"
        code, stdout, stderr = run(
            capsys, "search", str(kernel_path("vadd")), "--fitness",
            "empirical", "--budget", "2", "--extents", "64", "--cc", "false",
            "--cc-template", "{cc} {src} -o {bin}", "--no-validate",
            "--out-dir", str(outdir),
        )
        assert code == 3
        # the compiler printed nothing, so the message is one line
        lines = stderr.splitlines()
        errors = [line for line in lines if line.startswith("error:")]
        assert len(errors) == 1 and ")" not in lines
        assert errors[0].startswith("error: no candidate succeeded "
                                    "(compile-failure: compile failed "
                                    "(exit status 1): false ")
        assert errors[0].endswith(")")
        summary = strict_json((outdir / "summary.json").read_text())
        assert summary["fitness"] is None
        assert strict_json(stdout) == summary
        entries = [strict_json(line) for line in
                   (outdir / "log.jsonl").read_text().splitlines()]
        assert entries and all(e["fitness"] is None for e in entries)
        assert all(e["diagnostic"].startswith("compile-failure: ")
                   for e in entries)

    def test_no_compiler_exits_3_before_searching(self, tmp_path, capsys):
        outdir = tmp_path / "run"
        code, _, stderr = run(
            capsys, "search", str(kernel_path("vadd")), "--budget", "3",
            "--cc", "/nonexistent/cc", "--out-dir", str(outdir),
        )
        assert code == 3
        assert "error: validation needs a C compiler" in stderr
        assert not outdir.exists()

    def test_best_kernel_mismatch_exits_2(self, tmp_path, capsys,
                                          monkeypatch):
        monkeypatch.setattr(cli, "validation_error",
                            lambda *args, **kwargs: math.inf)
        code, _, stderr = run(
            capsys, "search", str(kernel_path("vadd")), "--budget", "3",
            "--cc", "true", "--out-dir", str(tmp_path / "run"),
        )
        assert code == 2
        assert "error: kernel output mismatch" in stderr


def strict_json(text: str):
    """json.loads that rejects Infinity and NaN, which are not JSON."""
    def reject(token):
        raise ValueError(f"not JSON: {token}")
    return json.loads(text, parse_constant=reject)


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

    def test_non_finite_error_is_written_as_null(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "validation_error",
                            lambda *args, **kwargs: math.inf)
        code, stdout, _ = run(capsys, "corpus", "--kernel", "vadd",
                              "--extents", "8", "--cc", "true")
        assert code != 0
        report = strict_json(stdout)
        assert report[0]["max_rel_error"] is None
        assert report[0]["validated"] is False

    def test_empty_corpus_dir_is_an_error(self, tmp_path, capsys):
        code, _, stderr = run(capsys, "corpus", "--corpus-dir",
                              str(tmp_path), "--no-validate")
        assert code == 1
        assert "no kernels found" in stderr

    @pytest.mark.parametrize("source, flags, want", [
        (b"VADD \xff\xfe", ["--no-validate"], 1),
        (kernel_path("vadd").read_bytes(),
         ["--cc", "false", "--cc-template", "{cc} {src} -o {bin}"], 3),
        (b"VADD {", ["--no-validate"], 2),
    ], ids=["not-utf8", "toolchain", "kernel"])
    def test_exit_code_names_the_failure(self, source, flags, want, tmp_path,
                                         capsys):
        (tmp_path / "k.bto").write_bytes(source)
        code, stdout, _ = run(capsys, "corpus", "--corpus-dir",
                              str(tmp_path), "--kernel", "k", *flags)
        assert code == want
        assert strict_json(stdout)[0]["error"]


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


@pytest.mark.parametrize("text, name", [
    ("AXIS in: A : matrix(row), i : vector(column) "
     "out: y : vector(column) { y = A * i }", "'i'"),
    ("EXTENT in: M : matrix(row), x : vector(column) "
     "out: y : vector(column) { y = M * x }", "'M'"),
    ("KEYWORD in: int : vector(column) "
     "out: y : vector(column) { y = int + int }", "'int'"),
    ("HEADER in: malloc : vector(column) "
     "out: free : vector(column) { free = malloc + malloc }", "'malloc'"),
    ("MAIN in: x : vector(column) "
     "out: y : vector(column) { y = x + x }", "'main'"),
    ("Y in: x : vector(column) "
     "out: y : vector(column) { y = x + x }", "'y'"),
    ("TIME in: x : vector(column) "
     "out: y : vector(column) { y = x + x }", "'time'"),
    ("RAND in: x : vector(column) "
     "out: y : vector(column) { y = x + x }", "'rand'"),
    ("MACRO in: EOF : vector(column) "
     "out: y : vector(column) { y = EOF + EOF }", "'EOF'"),
    ("WORKSPACE in: _Thread_local : vector(column) out: y : vector(column) "
     "{ y = _Thread_local + _Thread_local }", "'_Thread_local'"),
], ids=["axis", "extent", "keyword", "header", "main", "data",
        "header-function", "header-function-rand", "header-macro",
        "workspace-keyword"])
def test_names_c_cannot_declare_exit_2(text, name, tmp_path, capsys):
    src = tmp_path / "k.bto"
    src.write_text(text)
    code, _, stderr = run(capsys, "compile", str(src), "--no-validate",
                          "-o", str(tmp_path / "k.c"))
    assert code == 2
    assert name in stderr


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
    ("search", "--max-ops", "0"),
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


def test_each_command_takes_only_the_options_it_reads():
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    build = {"--extents", "--cc", "--cc-template", "--no-validate"}
    want = {
        "compile": {"--organism", "--output", "--cores", "--no-prune"}
        | build,
        "search": {"--strategy", "--fitness", "--seed", "--budget",
                   "--generations", "--population", "--tournament",
                   "--threads-mode", "--max-ops", "--reps", "--out-dir",
                   "--cores", "--no-prune"} | build,
        "enumerate": {"--max-ops", "--max-threads", "--threads-mode",
                      "--fusion-only", "--count-only", "--digit-space",
                      "--cores", "--no-prune"},
        "corpus": {"--kernel", "--corpus-dir", "--cores"} | build,
    }
    got = {name: {a.option_strings[-1] for a in p._actions
                  if a.option_strings and a.dest != "help"}
           for name, p in sub.choices.items()}
    assert got == want
    assert sum(map(len, got.values())) == 40


@pytest.mark.parametrize("command, flags", [
    ("enumerate", ["--extents", "5"]),
    ("enumerate", ["--cc", "nonexistent-cc"]),
    ("enumerate", ["--cc-template", "{cc} {src} -o {bin}"]),
    ("enumerate", ["--no-validate"]),
    ("corpus", ["--no-prune"]),
])
def test_option_the_command_does_not_read_exits_1(command, flags, capsys):
    target = [str(kernel_path("vadd"))] if command == "enumerate" else []
    code, stdout, stderr = run(capsys, command, *target, *flags)
    assert code == 1
    assert f"unrecognized arguments: {flags[0]}" in stderr
    assert stdout == ""


def test_compile_organism_honours_no_prune(tmp_path, capsys):
    waxpby = str(kernel_path("waxpby"))
    args = ["compile", waxpby, "-o", str(tmp_path / "k.c"), "--no-validate",
            "--organism", "{_k 1 2}{_k 3}"]
    code, _, stderr = run(capsys, *args)
    assert code == 2
    assert "shared-operand" in stderr
    code, stdout, _ = run(capsys, *args, "--no-prune")
    assert code == 0
    assert "organism: {_k 1 2}{_k 3}" in stdout


def test_empirical_search_without_compiler_exits_3_before_searching(
        tmp_path, capsys):
    outdir = tmp_path / "run"
    code, _, stderr = run(
        capsys, "search", str(kernel_path("vadd")), "--fitness", "empirical",
        "--no-validate", "--cc", "/nonexistent/cc", "--out-dir", str(outdir),
    )
    assert code == 3
    assert "error: empirical fitness needs a C compiler" in stderr
    assert not outdir.exists()
