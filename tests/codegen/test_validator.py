"""The structural OpenCL validator must catch generator mistakes."""

import pytest

from repro.codegen.validator import (
    OpenCLSyntaxError,
    PythonCodeletSyntaxError,
    strip_comments,
    validate_opencl_source,
    validate_python_source,
)

GOOD = """\
#pragma OPENCL EXTENSION cl_khr_fp64 : enable
__kernel void k(__global const double* a, __global double* y)
{
    int i = get_global_id(0);
    y[i] = a[i];
}
"""


def test_good_source_passes():
    assert validate_opencl_source(GOOD) == ["k"]


def test_unbalanced_brace():
    with pytest.raises(OpenCLSyntaxError, match="unclosed"):
        validate_opencl_source(GOOD.replace("}\n", "", 1))


def test_extra_close_paren():
    with pytest.raises(OpenCLSyntaxError):
        validate_opencl_source(GOOD.replace("a[i];", "a[i]);"))


def test_missing_kernel():
    with pytest.raises(OpenCLSyntaxError, match="__kernel"):
        validate_opencl_source("void f() { }")


def test_case_outside_switch():
    bad = GOOD.replace("y[i] = a[i];", "case 0: y[i] = a[i]; break;")
    with pytest.raises(OpenCLSyntaxError, match="switch"):
        validate_opencl_source(bad)


def test_case_without_break():
    bad = GOOD.replace(
        "y[i] = a[i];",
        "switch (i) { case 0: y[i] = a[i]; }",
    )
    with pytest.raises(OpenCLSyntaxError, match="break"):
        validate_opencl_source(bad)


def test_missing_semicolon():
    with pytest.raises(OpenCLSyntaxError, match="unterminated"):
        validate_opencl_source(GOOD.replace("y[i] = a[i];", "y[i] = a[i]"))


def test_bad_barrier_fence():
    bad = GOOD.replace("y[i] = a[i];", "barrier(SOME_FENCE);")
    with pytest.raises(OpenCLSyntaxError, match="fence"):
        validate_opencl_source(bad)


def test_double_without_pragma():
    with pytest.raises(OpenCLSyntaxError, match="fp64"):
        validate_opencl_source(GOOD.replace("#pragma OPENCL EXTENSION cl_khr_fp64 : enable\n", ""))


def test_comments_stripped():
    src = "/* hi { */ // {{{\n" + GOOD
    assert "hi" not in strip_comments(src)
    validate_opencl_source(src)


class TestStripCommentsStringAware:
    """``strip_comments`` must not treat markers inside string literals
    as comments (and vice versa)."""

    def test_slashes_inside_string_survive(self):
        src = 'printf("a//b");\n// real comment\n'
        out = strip_comments(src)
        assert '"a//b"' in out
        assert "real comment" not in out

    def test_block_marker_inside_string_survives(self):
        src = 'char* s = "/* not a comment */"; /* gone */\n'
        out = strip_comments(src)
        assert '"/* not a comment */"' in out
        assert "gone" not in out

    def test_quote_inside_comment_does_not_open_string(self):
        src = '// it\'s fine\nint x = 1; /* "quoted" */ int y = 2;\n'
        out = strip_comments(src)
        assert "int x = 1;" in out and "int y = 2;" in out
        assert "fine" not in out and "quoted" not in out

    def test_escaped_quote_in_string(self):
        src = 'char* s = "a\\"b//c"; // tail\n'
        out = strip_comments(src)
        assert '"a\\"b//c"' in out
        assert "tail" not in out

    def test_block_comment_preserves_line_numbers(self):
        src = "int a;\n/* one\ntwo\nthree */\nint b;\n"
        out = strip_comments(src)
        assert out.count("\n") == src.count("\n")
        assert out.splitlines()[4] == "int b;"

    def test_unterminated_block_comment_consumes_rest(self):
        assert "hidden" not in strip_comments("int a; /* hidden")


class TestValidatePythonSource:
    def test_good_source(self):
        src = "def f(ctx):\n    return 1\n\ndef g(ctx):\n    return 2\n"
        assert validate_python_source(src) == ["f", "g"]

    def test_expected_names_enforced(self):
        src = "def f(ctx):\n    return 1\n"
        validate_python_source(src, expected=["f"])
        with pytest.raises(PythonCodeletSyntaxError, match="missing"):
            validate_python_source(src, expected=["f", "g"])

    def test_syntax_error(self):
        with pytest.raises(PythonCodeletSyntaxError, match="parse"):
            validate_python_source("def f(:\n")

    def test_duplicate_definition(self):
        src = "def f(ctx):\n    return 1\n\ndef f(ctx):\n    return 2\n"
        with pytest.raises(PythonCodeletSyntaxError, match="twice"):
            validate_python_source(src)

    def test_emitted_kernel_inventory(self, rng):
        from repro.codegen.plan import build_plan
        from repro.codegen.python_codelet import (
            emit_python_source,
            expected_functions,
        )
        from repro.core.crsd import CRSDMatrix, compatible_wavefront
        from tests.conftest import random_diagonal_matrix

        coo = random_diagonal_matrix(rng, n=64, scatter=2)
        crsd = CRSDMatrix.from_coo(coo, mrows=16, wavefront_size=compatible_wavefront(16))
        plan = build_plan(crsd)
        names = validate_python_source(emit_python_source(plan))
        # one shape-generic function per kernel, no per-engine copies
        assert sorted(names) == sorted(expected_functions(plan))
        assert "crsd_dia_kernel" in names
        assert "crsd_scatter_kernel" in names
        assert "_codelet_p0" in names
