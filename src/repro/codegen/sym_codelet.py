"""Code generation for symmetric CRSD kernels (both renderings).

One stored diagonal ``+o`` of a :class:`~repro.core.symcrsd.SymCRSDMatrix`
feeds *two* terms of the emitted codelet: the forward contribution
``A[i, i+o] * x[i+o] -> y[i]`` reads the run directly, and the mirror
contribution for full diagonal ``-o`` reads the *same* run at flat
position ``rr - o`` (the stored slot of the partner row) behind a
``si >= runbase`` guard.  Both are affine unit-lane-stride accesses, so
the existing executor, trace model and analyzer machinery apply
unchanged — the plan built here is a plain
:class:`~repro.codegen.plan.KernelPlan` whose groups carry ``kind="SYM"``.

Accumulation order is the full pattern's ascending offset order —
identical to the full-carrier codelets and the host references — which
is what makes the served ``y`` bit-identical to full CRSD.

As for the full carrier, each Python codelet and the dispatcher are
emitted once in shape-generic form and run unchanged under both
execution engines (per-group and segment-batched).
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from typing import Callable, List, Sequence, Tuple

import numpy as np

from repro.codegen.plan import GroupPlan, KernelPlan, RegionPlan, ScatterPlan
from repro.codegen.python_codelet import _Writer, emit_dispatcher
from repro.codegen.validator import validate_python_source
from repro.core.symcrsd import SymCRSDMatrix

_REAL = {"double": "double", "single": "float"}

_PREAMBLE = """\
// Auto-generated symmetric CRSD SpMV kernel.
// Half storage: only diagonals with offset >= 0 are kept; each stored
// diagonal emits its forward term A[i,j]*x[j] -> y[i] and the transpose
// term A[i,j]*x[i] -> y[j] in the same pass (one slab run, two reads),
// halving the value bytes streamed for symmetric patterns.
#pragma OPENCL EXTENSION cl_khr_fp64 : enable
"""


@dataclass
class CompiledSymKernel:
    """A generated-and-compiled symmetric CRSD kernel; it runs under
    both execution engines."""

    plan: KernelPlan
    source: str
    dia_kernel: Callable


def full_offsets(stored: Sequence[int]) -> Tuple[int, ...]:
    """Mirror closure of the stored (non-negative) offsets, ascending —
    the accumulation order shared by kernels, model and host matvec."""
    return tuple(sorted(set(stored) | {-o for o in stored}))


def build_sym_plan(sym: SymCRSDMatrix) -> KernelPlan:
    """Derive the kernel plan for a symmetric carrier.

    ``slab_base`` indexes the diagonal-major half slab; each region has
    a single ``kind="SYM"`` group whose offsets are the *stored* ones
    (the emitters expand the mirror closure themselves).
    """
    regions: List[RegionPlan] = []
    gid_base = 0
    slab_base = 0
    for p, region in enumerate(sym.regions):
        stored = sym.stored_offsets(p)
        group = GroupPlan(
            kind="SYM",
            d_first=0,
            offsets=tuple(stored),
            colv=tuple(region.start_row + o for o in stored),
        )
        regions.append(
            RegionPlan(
                index=p,
                gid_base=gid_base,
                slab_base=slab_base,
                start_row=region.start_row,
                nrs=region.num_segments,
                mrows=region.mrows,
                nnz_per_segment=len(stored) * region.mrows,
                groups=(group,),
                signature=f"sym{region.pattern}",
            )
        )
        gid_base += region.num_segments
        slab_base += len(stored) * region.num_segments * region.mrows
    return KernelPlan(
        nrows=sym.nrows,
        ncols=sym.ncols,
        mrows=sym.mrows,
        regions=tuple(regions),
        scatter=ScatterPlan(num_rows=0, width=0),
        use_local_memory=False,
        nvec=1,
    )


def expected_sym_functions(plan: KernelPlan) -> List[str]:
    """Function inventory the emitted Python module must define."""
    return ["sym_dia_kernel"] + [f"_sym_codelet_p{i}"
                                 for i in range(len(plan.regions))]


def generate_sym_python_kernel(plan: KernelPlan) -> CompiledSymKernel:
    """Emit, validate and compile the Python rendering for ``plan``."""
    src = emit_sym_python_source(plan)
    tree = validate_python_source(
        src, expected=expected_sym_functions(plan)).tree
    namespace: dict = {"np": np}
    exec(compile(tree, "<sym-crsd-generated-kernel>", "exec"), namespace)
    return CompiledSymKernel(
        plan=plan,
        source=src,
        dia_kernel=namespace["sym_dia_kernel"],
    )


def emit_sym_python_source(plan: KernelPlan) -> str:
    """Emit the Python rendering (without compiling)."""
    w = _Writer()
    w.line("# Generated symmetric CRSD SpMV kernel (Python rendering).")
    w.line(f"# nrows={plan.nrows} ncols={plan.ncols} mrows={plan.mrows} "
           f"regions={len(plan.regions)} half-storage=True")
    w.line()
    for region in plan.regions:
        _emit_sym_codelet(w, plan, region)
    emit_dispatcher(w, plan, "sym_dia_kernel", "_sym_codelet_p", "sym_val",
                    "Symmetric diagonal kernel: each region codelet over "
                    "its row segments.")
    return w.getvalue()


def _emit_sym_codelet(w: _Writer, plan: KernelPlan,
                      region: RegionPlan) -> None:
    m = region.mrows
    run = region.nrs * m
    cmax = plan.ncols - 1
    stored = region.groups[0].offsets
    w.line(f"def _sym_codelet_p{region.index}(ctx, sym_val, xb, yb):")
    w.indent()
    w.line(f'"""Pattern {region.signature}: SR={region.start_row}, '
           f'NRS={region.nrs}, stored offsets {list(stored)}."""')
    w.line("lid = ctx.lid")
    w.line(f"seg = ctx.group_id - {region.gid_base}")
    w.line(f"row = {region.start_row} + seg * {m} + lid")
    w.line("acc = np.zeros(row.shape, dtype=xb.data.dtype)")
    for off in full_offsets(stored):
        o = abs(off)
        d = stored.index(o)
        runbase = region.slab_base + d * run
        if off >= 0:
            w.line(f"# stored offset {off}")
            w.line(f"v = ctx.gload(sym_val, {runbase} + seg * {m} + lid)")
        else:
            w.line(f"# full offset {off}: mirror of stored +{o}")
            w.line(f"si = {runbase - o} + seg * {m} + lid")
            w.line(f"ms = si >= {runbase}")
            w.line(f"v = ctx.gload(sym_val, np.maximum(si, {runbase}), mask=ms)")
        w.line(f"xi = {region.start_row + off} + seg * {m} + lid")
        w.line(f"mx = (xi >= 0) & (xi < {plan.ncols})")
        w.line(f"acc = acc + v * ctx.gload(xb, np.clip(xi, 0, {cmax}), mask=mx)")
        w.line(f"ctx.flops({2 * m} * ctx.num_groups)")
    w.line(f"ok = row < {plan.nrows}")
    w.line(f"ctx.gstore(yb, np.minimum(row, {plan.nrows - 1}), acc, mask=ok)")
    w.dedent()
    w.line()


# ----------------------------------------------------------------------
# OpenCL rendering
# ----------------------------------------------------------------------

def generate_sym_opencl_source(plan: KernelPlan,
                               precision: str = "double") -> str:
    """Emit the OpenCL C program text for a symmetric plan.

    No local memory, no barriers, no loops: every case is a fully
    unrolled run of ternary-predicated multiply-adds (uniform within a
    work-group, so the divergence linter's constraints hold trivially).
    """
    real = _REAL.get(precision.lower())
    if real is None:
        raise ValueError(f"unknown precision {precision!r}")
    buf = io.StringIO()
    buf.write(_PREAMBLE)
    buf.write("\n")
    buf.write(
        f"__kernel void sym_crsd_dia_spmv(__global const {real}* restrict sym_dia_val,\n"
        f"                            __global const {real}* restrict x,\n"
        f"                            __global {real}* restrict y)\n"
        "{\n"
        "    const int group_id = get_group_id(0);\n"
        "    const int local_id = get_local_id(0);\n"
    )
    buf.write(f"    {real} acc = ({real})0;\n")
    buf.write("    int row;\n")
    if not plan.regions:
        buf.write("    (void)group_id; (void)local_id;\n}\n")
        return buf.getvalue()
    buf.write("    int p;\n")
    acc = 0
    for i, r in enumerate(plan.regions):
        acc += r.nrs
        kw = "if" if i == 0 else "else if"
        buf.write(f"    {kw} (group_id < {acc}) p = {i};\n")
    buf.write(f"    else p = {len(plan.regions) - 1};\n")
    buf.write("    switch (p) {\n")
    for region in plan.regions:
        _emit_sym_case(buf, plan, region, real)
    buf.write("    }\n")
    buf.write("}\n")
    return buf.getvalue()


def _emit_sym_case(buf: io.StringIO, plan: KernelPlan, region: RegionPlan,
                   real: str) -> None:
    m = region.mrows
    run = region.nrs * m
    stored = region.groups[0].offsets
    buf.write(f"    case {region.index}: {{ // pattern {region.signature}, "
              f"SR={region.start_row}, NRS={region.nrs}\n")
    buf.write(f"        const int seg = group_id - {region.gid_base};\n")
    for off in full_offsets(stored):
        o = abs(off)
        d = stored.index(o)
        runbase = region.slab_base + d * run
        buf.write("        {\n")
        if off >= 0:
            buf.write(f"            // stored offset {off}\n")
            buf.write(
                f"            const {real} v = sym_dia_val[{runbase} + "
                f"seg * {m} + local_id];\n"
            )
        else:
            buf.write(f"            // full offset {off}: mirror of "
                      f"stored +{o}\n")
            buf.write(
                f"            const int si = {runbase - o} + seg * {m} + "
                "local_id;\n"
            )
            buf.write(
                f"            const {real} v = (si >= {runbase})"
                f" ? sym_dia_val[si] : ({real})0;\n"
            )
        buf.write(
            f"            const int xi = {region.start_row + off} + "
            f"seg * {m} + local_id;\n"
        )
        buf.write(
            f"            const {real} xv = (xi >= 0 && xi < {plan.ncols})"
            f" ? x[xi] : ({real})0;\n"
        )
        buf.write("            acc += v * xv;\n")
        buf.write("        }\n")
    buf.write(f"        row = {region.start_row} + seg * {m} + local_id;\n")
    buf.write(f"        if (row < {plan.nrows}) y[row] = acc;\n")
    buf.write("        break; }\n")
