"""Structural validators for both generated renderings.

There is no OpenCL compiler in this environment, so the C rendering is
checked structurally instead: balanced delimiters (with comment/string
awareness), required kernel qualifiers, no unterminated statements, a
declared identifier audit for the handful of names the generator may
reference, and basic ``switch``/``case`` hygiene.  This will not catch
every type error a real ``clBuildProgram`` would, but it catches the
class of mistakes a text-based generator actually makes (unbalanced
braces, missing semicolons, stray ``case`` labels).

The Python rendering *does* have a real front end — ``ast.parse`` —
so :func:`validate_python_source` parses the emitted codelet module
and audits the function inventory against what the plan promises
(every per-region codelet in both per-group and batched form), turning
emitter regressions into build-time failures instead of AttributeErrors
deep inside a benchmark run.  The parsed tree rides along with the
returned names, and the generators compile that tree, so each codelet
is parsed once.
"""

from __future__ import annotations

import ast
import re
from typing import Iterable, List


class OpenCLSyntaxError(ValueError):
    """Generated OpenCL source failed structural validation."""


class PythonCodeletSyntaxError(ValueError):
    """Generated Python codelet source failed validation."""


_ID = r"[A-Za-z_][A-Za-z0-9_]*"


def strip_comments(src: str) -> str:
    """Remove ``//`` and ``/* */`` comments, string-literal-aware.

    A comment marker inside a ``"..."`` or ``'...'`` literal is not a
    comment (think ``printf("a//b")``); conversely a quote inside a
    comment does not open a string.  Stripped spans are replaced by a
    space so token boundaries and positions of the surviving code stay
    stable.
    """
    out = []
    i, n = 0, len(src)
    while i < n:
        ch = src[i]
        nxt = src[i + 1] if i + 1 < n else ""
        if ch == "/" and nxt == "/":
            while i < n and src[i] != "\n":
                i += 1
            continue
        if ch == "/" and nxt == "*":
            end = src.find("*/", i + 2)
            stop = n if end < 0 else end + 2
            # preserve line structure for line-based diagnostics
            out.append(src.count("\n", i, stop) * "\n" or " ")
            i = stop
            continue
        if ch in ("\"", "'"):
            quote = ch
            out.append(ch)
            i += 1
            while i < n:
                out.append(src[i])
                if src[i] == "\\" and i + 1 < n:
                    out.append(src[i + 1])
                    i += 2
                    continue
                if src[i] == quote:
                    i += 1
                    break
                i += 1
            continue
        out.append(ch)
        i += 1
    return "".join(out)


def validate_opencl_source(src: str) -> List[str]:
    """Validate; returns the list of kernel names found.

    Raises :class:`OpenCLSyntaxError` on any structural problem.
    """
    body = strip_comments(src)

    # 1. balanced delimiters
    for open_c, close_c in [("{", "}"), ("(", ")"), ("[", "]")]:
        depth = 0
        for i, ch in enumerate(body):
            if ch == open_c:
                depth += 1
            elif ch == close_c:
                depth -= 1
                if depth < 0:
                    raise OpenCLSyntaxError(
                        f"unbalanced {close_c!r} at position {i}"
                    )
        if depth != 0:
            raise OpenCLSyntaxError(f"{depth} unclosed {open_c!r}")

    # 2. kernels present, each with __global pointer params
    kernels = re.findall(rf"__kernel\s+void\s+({_ID})\s*\(", body)
    if not kernels:
        raise OpenCLSyntaxError("no __kernel function found")

    # 3. every case label lives inside a switch and ends with break
    switches = body.count("switch")
    cases = re.findall(r"case\s+\d+\s*:", body)
    if cases and not switches:
        raise OpenCLSyntaxError("case label outside any switch")
    breaks = body.count("break;")
    if cases and breaks < len(cases):
        raise OpenCLSyntaxError(
            f"{len(cases)} case labels but only {breaks} break statements"
        )

    # 4. statement lines end properly: a crude check that no line inside a
    #    function body ends with an identifier/number without ; , { } ( ) :
    for lineno, line in enumerate(body.splitlines(), 1):
        stripped = line.strip()
        if not stripped:
            continue
        if re.search(r"[A-Za-z0-9_\])]$", stripped) and not stripped.endswith(")"):
            # allowed: function signature continuation lines end with ,
            # or ) — anything else alphanumeric-final is a missing ';'
            if not re.match(rf"^#|^{_ID}\s*$", stripped):
                raise OpenCLSyntaxError(
                    f"line {lineno} looks unterminated: {stripped!r}"
                )

    # 5. barrier constants spelled correctly
    for m in re.finditer(r"barrier\s*\(([^)]*)\)", body):
        arg = m.group(1).strip()
        if arg not in ("CLK_LOCAL_MEM_FENCE", "CLK_GLOBAL_MEM_FENCE"):
            raise OpenCLSyntaxError(f"unknown barrier fence {arg!r}")

    # 6. fp64 pragma required when double is used
    if re.search(r"\bdouble\b", body) and "cl_khr_fp64" not in src:
        raise OpenCLSyntaxError("double used without cl_khr_fp64 pragma")

    return kernels


class CodeletNames(list):
    """The module-level function names of a validated codelet source,
    carrying the parsed ``tree`` they were read from, so the caller
    can ``compile(names.tree, ...)`` without parsing the source again."""

    def __init__(self, names: Iterable[str], tree: ast.Module):
        super().__init__(names)
        self.tree = tree


def validate_python_source(src: str,
                           expected: Iterable[str] = ()) -> CodeletNames:
    """Validate emitted Python codelet source; returns the module-level
    function names found (with the parsed module as ``.tree``).

    Checks the source actually parses (``ast.parse``), that every name
    in ``expected`` is defined as a module-level function (the caller
    derives the inventory from the plan: the per-region codelets, the
    dispatcher, the scatter kernel),
    and that no two definitions collide.  Raises
    :class:`PythonCodeletSyntaxError` on any problem.
    """
    try:
        tree = ast.parse(src)
    except SyntaxError as exc:
        raise PythonCodeletSyntaxError(
            f"emitted codelet source does not parse: {exc}"
        ) from exc
    names: List[str] = [
        node.name for node in tree.body if isinstance(node, ast.FunctionDef)
    ]
    seen = set()
    for name in names:
        if name in seen:
            raise PythonCodeletSyntaxError(
                f"function {name!r} defined twice in emitted source"
            )
        seen.add(name)
    missing = [name for name in expected if name not in seen]
    if missing:
        raise PythonCodeletSyntaxError(
            "emitted source is missing expected codelet(s): "
            + ", ".join(sorted(missing))
        )
    return CodeletNames(names, tree)
