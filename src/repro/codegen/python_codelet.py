"""Python rendering of the generated CRSD SpMV kernel.

The emitted source contains one codelet function per pattern region —
with the slab base, ``seg*NNzRS`` stride, per-diagonal ``d*mrows``
displacement and every ``Colv`` baked in as integer literals — plus a
dispatcher implementing the paper's work-group membership condition,
and the fully unrolled scatter-ELL kernel.  The source is compiled with
``compile()``/``exec`` at run time; this is the host-language analogue
of OpenCL's runtime kernel compilation that the whole design leans on.

FLOP-counting convention: ``ctx.flops`` counts executed multiply-adds
on stored slots (explicit fill zeros included — the device really
executes them); lanes predicated off by bounds masks are not counted.
The GFLOPS *metric* divides ``2·nnz`` by time, so fill work hurts, as
it should.

Each kernel is emitted once, in a shape-generic form that runs
unchanged under both engines of :mod:`repro.ocl.executor`: the
sequential reference engine (one
:class:`~repro.ocl.executor.WorkGroupCtx` per work-group, scalar
``ctx.group_id``) and the segment-batched engine (one
:class:`~repro.ocl.executor.BatchCtx`, where ``ctx.group_id`` is a
``(num_groups, 1)`` column and every statement broadcasts over the
whole ``(num_segments, mrows)`` lane grid).  Accumulators take their
shape from an index expression and flops scale with
``ctx.num_groups`` (1 for a single work-group), so no statement knows
which engine runs it.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from typing import Callable, List, Optional

import numpy as np

from repro.codegen.plan import GroupPlan, KernelPlan, RegionPlan
from repro.codegen.validator import validate_python_source


@dataclass
class CompiledKernel:
    """A generated-and-compiled CRSD kernel pair; each kernel runs
    under both execution engines.

    Attributes
    ----------
    plan:
        The originating plan.
    source:
        The generated Python source (inspectable, testable).
    dia_kernel:
        ``f(ctx, dia_val, x, y)`` — the diagonal-pattern kernel.
    scatter_kernel:
        ``f(ctx, scatter_colval, scatter_val, scatter_rowno, x, y)`` or
        ``None`` when the matrix has no scatter rows.
    """

    plan: KernelPlan
    source: str
    dia_kernel: Callable
    scatter_kernel: Optional[Callable]


class _Writer:
    """Tiny indented source writer."""

    def __init__(self):
        self._buf = io.StringIO()
        self._level = 0

    def line(self, text: str = "") -> "_Writer":
        self._buf.write("    " * self._level + text + "\n")
        return self

    def indent(self) -> "_Writer":
        self._level += 1
        return self

    def dedent(self) -> "_Writer":
        self._level -= 1
        return self

    def getvalue(self) -> str:
        return self._buf.getvalue()


def expected_functions(plan: KernelPlan) -> List[str]:
    """Function inventory the emitted module must define for ``plan``."""
    names = ["crsd_dia_kernel"]
    names += [f"_codelet_p{i}" for i in range(len(plan.regions))]
    if plan.scatter.num_rows:
        names.append("crsd_scatter_kernel")
    return names


def generate_python_kernel(plan: KernelPlan,
                           strict: bool = False) -> CompiledKernel:
    """Emit, validate and compile the Python kernel for ``plan``.

    The emitted source is always checked structurally (it must parse
    and define every codelet the plan promises).  ``strict=True`` additionally runs the full static
    analyzer over the plan and both renderings, raising
    :class:`~repro.analyze.report.KernelAnalysisError` if any checker
    reports a violation — no kernel with a provable defect compiles.
    """
    src = emit_python_source(plan)
    tree = validate_python_source(src, expected=expected_functions(plan)).tree
    if strict:
        # local import: repro.analyze itself analyzes this module's output
        from repro.analyze.driver import analyze_plan
        from repro.analyze.report import KernelAnalysisError

        report = analyze_plan(plan)
        if not report.ok:
            raise KernelAnalysisError(report)
    namespace: dict = {"np": np}
    exec(compile(tree, "<crsd-generated-kernel>", "exec"), namespace)
    return CompiledKernel(
        plan=plan,
        source=src,
        dia_kernel=namespace["crsd_dia_kernel"],
        scatter_kernel=namespace.get("crsd_scatter_kernel"),
    )


def emit_python_source(plan: KernelPlan) -> str:
    """Emit the Python source (without compiling) — used by tests and
    the inspect_codegen example."""
    w = _Writer()
    w.line("# Generated CRSD SpMV kernel (Python rendering).")
    w.line(f"# nrows={plan.nrows} ncols={plan.ncols} mrows={plan.mrows} "
           f"regions={len(plan.regions)} local_memory={plan.use_local_memory}")
    w.line()
    for region in plan.regions:
        _emit_region_codelet(w, plan, region)
    emit_dispatcher(w, plan, "crsd_dia_kernel", "_codelet_p", "dia_val",
                    "Diagonal-pattern part: each region codelet over its "
                    "row segments.")
    if plan.scatter.num_rows:
        _emit_scatter_kernel(w, plan)
    return w.getvalue()


# ----------------------------------------------------------------------
# region codelets
# ----------------------------------------------------------------------

def _emit_region_codelet(w: _Writer, plan: KernelPlan,
                         region: RegionPlan) -> None:
    """Emit one region codelet.

    ``seg`` is a scalar under a :class:`~repro.ocl.executor.WorkGroupCtx`
    and a ``(NRS, 1)`` column under a
    :class:`~repro.ocl.executor.BatchCtx`; it broadcasts through every
    index expression, and the accumulators take ``row``'s shape.
    """
    m = region.mrows
    w.line(f"def _codelet_p{region.index}(ctx, dia_val, xb, yb):")
    w.indent()
    w.line(f'"""Pattern {region.signature}: SR={region.start_row}, '
           f'NRS={region.nrs}, NNzRS={region.nnz_per_segment}."""')
    w.line("lid = ctx.lid")
    w.line(f"seg = ctx.group_id - {region.gid_base}")
    w.line(f"row = {region.start_row} + seg * {m} + lid")
    if plan.nvec == 1:
        w.line("acc = np.zeros(row.shape, dtype=xb.data.dtype)")
    else:
        for j in range(plan.nvec):
            w.line(f"acc{j} = np.zeros(row.shape, dtype=xb.data.dtype)")
    slab = f"{region.slab_base} + seg * {region.nnz_per_segment}"
    for g in region.groups:
        if plan.nvec > 1:
            _emit_group_multivec(w, plan, region, g, slab)
        elif g.kind == "AD" and plan.use_local_memory:
            _emit_ad_group_local(w, plan, region, g, slab)
        else:
            _emit_group_direct(w, plan, region, g, slab)
    w.line(f"ok = row < {plan.nrows}")
    if plan.nvec == 1:
        w.line(f"ctx.gstore(yb, np.minimum(row, {plan.nrows - 1}), acc, mask=ok)")
    else:
        for j in range(plan.nvec):
            w.line(
                f"ctx.gstore(yb, {j * plan.nrows} + "
                f"np.minimum(row, {plan.nrows - 1}), acc{j}, mask=ok)"
            )
    w.dedent()
    w.line()


def _emit_group_multivec(
    w: _Writer, plan: KernelPlan, region: RegionPlan, g: GroupPlan, slab: str
) -> None:
    """SpMM body: each diagonal value loaded once, multiplied against
    every right-hand side (x held column-major, strides baked in)."""
    m = region.mrows
    cmax = plan.ncols - 1
    w.line(f"# {g.kind} group: offsets {list(g.offsets)} x {plan.nvec} vectors")
    for jj in range(g.ndiags):
        d = g.d_first + jj
        colv = g.colv[jj]
        w.line(f"v = ctx.gload(dia_val, {slab} + {d * m} + lid)")
        w.line(f"xi = {colv} + seg * {m} + lid")
        w.line(f"mx = (xi >= 0) & (xi < {plan.ncols})")
        w.line(f"xc = np.clip(xi, 0, {cmax})")
        for j in range(plan.nvec):
            w.line(f"acc{j} = acc{j} + v * ctx.gload(xb, {j * plan.ncols} + xc, mask=mx)")
        w.line(f"ctx.flops({2 * m * plan.nvec} * ctx.num_groups)")


def _emit_ad_group_local(
    w: _Writer, plan: KernelPlan, region: RegionPlan, g: GroupPlan, slab: str
) -> None:
    """AD group: stage the shared x window into local memory once, then
    all member diagonals read it (Fig. 5)."""
    m = region.mrows
    n = g.ndiags
    tile_len = m + n - 1
    cmax = plan.ncols - 1
    w.line(f"# AD group: offsets {list(g.offsets)}, Colv={g.colv[0]}, "
           f"x tile of {tile_len} elements in local memory")
    w.line(f"tile = ctx.alloc_local({tile_len}, xb.data.dtype)")
    w.line(f"tbase = {g.colv[0]} + seg * {m}")
    w.line("i0 = tbase + lid")
    w.line(f"m0 = (i0 >= 0) & (i0 < {plan.ncols})")
    w.line(f"ctx.lstore(tile, lid, ctx.gload(xb, np.clip(i0, 0, {cmax}), mask=m0))")
    # wide AD groups (ndiags > mrows + 1) need more than one extra
    # staging pass: each pass fills the next mrows-sized tile slice
    for s in range(1, -(-tile_len // m)):
        extra = min(tile_len - s * m, m)
        w.line(f"i1 = tbase + {s * m} + lid")
        w.line(f"lane = lid < {extra}")
        w.line(f"m1 = lane & (i1 >= 0) & (i1 < {plan.ncols})")
        w.line(
            f"ctx.lstore(tile, np.minimum({s * m} + lid, {tile_len - 1}), "
            f"ctx.gload(xb, np.clip(i1, 0, {cmax}), mask=m1), mask=lane)"
        )
    w.line("ctx.barrier()")
    for j in range(n):
        d = g.d_first + j
        w.line(f"v = ctx.gload(dia_val, {slab} + {d * m} + lid)")
        w.line(f"acc = acc + v * ctx.lload(tile, lid + {j})")
        w.line(f"ctx.flops({2 * m} * ctx.num_groups)")


def _emit_group_direct(
    w: _Writer, plan: KernelPlan, region: RegionPlan, g: GroupPlan, slab: str
) -> None:
    """NAD group (or AD with local memory disabled): every diagonal
    gathers x straight from global memory."""
    m = region.mrows
    cmax = plan.ncols - 1
    w.line(f"# {g.kind} group: offsets {list(g.offsets)}")
    for j in range(g.ndiags):
        d = g.d_first + j
        colv = g.colv[j]
        w.line(f"v = ctx.gload(dia_val, {slab} + {d * m} + lid)")
        w.line(f"xi = {colv} + seg * {m} + lid")
        w.line(f"mx = (xi >= 0) & (xi < {plan.ncols})")
        w.line(f"acc = acc + v * ctx.gload(xb, np.clip(xi, 0, {cmax}), mask=mx)")
        w.line(f"ctx.flops({2 * m} * ctx.num_groups)")


# ----------------------------------------------------------------------
# dispatcher and scatter kernel
# ----------------------------------------------------------------------

def emit_dispatcher(w: _Writer, plan: KernelPlan, name: str, codelet: str,
                    slab: str, doc: str) -> None:
    """The paper's membership condition
    ``sum_{i<p} NRS_i <= group_id < sum_{i<=p} NRS_i`` walked as static
    region bounds (the OpenCL rendering shows the equivalent switch).

    ``ctx.sub(lo, hi)`` is the context for region ``p``'s group range:
    a batch context runs the codelet once over the whole range (and is
    finalized before the next region so the L2 replay keeps the
    per-group launch order); a single work-group's context is itself
    when its group lies in the range and ``None`` otherwise — a
    group-uniform branch.
    """
    w.line(f"def {name}(ctx, {slab}, xb, yb):")
    w.indent()
    w.line(f'"""{doc}"""')
    lo = 0
    for i, r in enumerate(plan.regions):
        hi = lo + r.nrs
        w.line(f"sub = ctx.sub({lo}, {hi})")
        w.line("if sub is not None:")
        w.indent()
        w.line(f"{codelet}{i}(sub, {slab}, xb, yb)")
        w.line("sub.finalize()")
        w.dedent()
        lo = hi
    w.dedent()
    w.line()


def _emit_scatter_kernel(w: _Writer, plan: KernelPlan) -> None:
    """The generated ELL kernel over scatter rows (Section II-D /
    III-B): fully unrolled over ``num_scatter_width``, column-major
    arrays so loads coalesce, and it *overwrites* y — it runs after the
    diagonal kernel and owns its rows completely.

    ``pos``/``m``/``safe`` are one group's lanes or the whole grid by
    broadcasting, and the per-entry flop count sums the active-lane
    mask, which covers every group the context spans."""
    s = plan.scatter
    ls = plan.local_size
    nmax = s.num_rows - 1
    w.line("def crsd_scatter_kernel(ctx, scol, sval, srow, xb, yb):")
    w.indent()
    w.line(f'"""Scatter-row ELL part: {s.num_rows} rows x {s.width} entries, '
           'unrolled."""')
    w.line(f"pos = ctx.group_id * {ls} + ctx.lid")
    w.line(f"m = pos < {s.num_rows}")
    w.line(f"safe = np.minimum(pos, {nmax})")
    if plan.nvec == 1:
        w.line("acc = np.zeros(pos.shape, dtype=xb.data.dtype)")
        for k in range(s.width):
            w.line(f"c = ctx.gload(scol, {k * s.num_rows} + safe, mask=m)")
            w.line(f"v = ctx.gload(sval, {k * s.num_rows} + safe, mask=m)")
            w.line("acc = acc + v * ctx.gload(xb, c, mask=m)")
            w.line("ctx.flops(2 * int(m.sum()))")
        w.line("r = ctx.gload(srow, safe, mask=m)")
        w.line("ctx.gstore(yb, r, acc, mask=m)")
    else:
        for j in range(plan.nvec):
            w.line(f"acc{j} = np.zeros(pos.shape, dtype=xb.data.dtype)")
        for k in range(s.width):
            w.line(f"c = ctx.gload(scol, {k * s.num_rows} + safe, mask=m)")
            w.line(f"v = ctx.gload(sval, {k * s.num_rows} + safe, mask=m)")
            for j in range(plan.nvec):
                w.line(f"acc{j} = acc{j} + v * ctx.gload(xb, {j * plan.ncols} + c, mask=m)")
            w.line(f"ctx.flops({2 * plan.nvec} * int(m.sum()))")
        w.line("r = ctx.gload(srow, safe, mask=m)")
        for j in range(plan.nvec):
            w.line(f"ctx.gstore(yb, {j * plan.nrows} + r, acc{j}, mask=m)")
    w.dedent()
    w.line()
