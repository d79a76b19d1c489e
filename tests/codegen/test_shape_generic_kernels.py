"""One emitted kernel text, two engines.

Every generated CRSD/SYM kernel is emitted once, in a shape-generic
form.  The *same* compiled callable must run under the per-group
reference engine (:func:`~repro.ocl.executor.launch`) and the
segment-batched engine (:func:`~repro.ocl.executor.launch_batched`)
with bit-identical ``y`` and identical trace counters.
"""

import dataclasses

import numpy as np
import pytest

from repro.codegen.plan import build_plan
from repro.codegen.python_codelet import generate_python_kernel
from repro.codegen.sym_codelet import build_sym_plan, generate_sym_python_kernel
from repro.core.crsd import CRSDMatrix
from repro.core.symcrsd import SymCRSDMatrix
from repro.formats.coo import COOMatrix
from repro.matrices import generators as gen
from repro.ocl.executor import (
    Context,
    launch,
    launch_batched,
    make_launch_cache,
)
from repro.ocl.device import TESLA_C2050

MROWS = 32
DEVICE = TESLA_C2050
N = 384


def _stack(top, bottom, extra_rows=(), extra_cols=()):
    """Block-diagonal COO of two N/2-row halves with different diagonal
    patterns (so the plan has two regions), plus optional scatter
    entries."""
    h = N // 2
    rows = np.concatenate([top.rows, bottom.rows + h, extra_rows])
    cols = np.concatenate([top.cols, bottom.cols + h, extra_cols])
    vals = np.concatenate([top.vals, bottom.vals,
                           np.ones(len(extra_rows))])
    return COOMatrix(rows.astype(np.int64), cols.astype(np.int64), vals,
                     (N, N))


def _run(do_launch, kernel, plan, slab, x, scatter=None):
    """Run the dia (+ scatter) kernels of ``kernel`` through one engine
    over freshly allocated device buffers; returns (y, trace dict)."""
    ctx = Context(DEVICE)
    dia_val = ctx.alloc(slab, "dia_val")
    xbuf = ctx.alloc(x, "x")
    ybuf = ctx.alloc_zeros(plan.nrows * plan.nvec, x.dtype, "y")
    cache = make_launch_cache(DEVICE, True)
    tr = do_launch(kernel.dia_kernel, plan.num_groups, plan.local_size,
                   (dia_val, xbuf, ybuf), DEVICE, True, cache)
    if scatter is not None:
        bufs = tuple(ctx.alloc(a, name) for name, a in scatter)
        groups = -(-plan.scatter.num_rows // plan.local_size)
        tr.merge(do_launch(kernel.scatter_kernel, groups, plan.local_size,
                           bufs + (xbuf, ybuf), DEVICE, True, cache))
    return ybuf.data.copy(), dataclasses.asdict(tr)


def _crsd_case(nvec, use_local_memory):
    rng = np.random.default_rng(7)
    h = N // 2
    coo = _stack(gen.symmetric_diagonals(h, [1], rng),
                 gen.symmetric_diagonals(h, [1, 6], rng),
                 rng.integers(0, N, 4), rng.integers(0, N, 4))
    crsd = CRSDMatrix.from_coo(coo, mrows=MROWS)
    plan = build_plan(crsd, use_local_memory=use_local_memory, nvec=nvec)
    scatter = (
        ("scatter_colval", np.ascontiguousarray(crsd.scatter_colval.T).ravel()),
        ("scatter_val", np.ascontiguousarray(crsd.scatter_val.T).ravel()),
        ("scatter_rowno", crsd.scatter_rowno),
    )
    x = rng.standard_normal(crsd.ncols * nvec)  # column-major for nvec > 1
    return plan, generate_python_kernel(plan), crsd.dia_val, x, scatter


def _assert_engines_agree(kernel, plan, slab, x, scatter=None):
    y_pg, tr_pg = _run(launch, kernel, plan, slab, x, scatter)
    y_b, tr_b = _run(launch_batched, kernel, plan, slab, x, scatter)
    assert np.array_equal(y_pg, y_b)
    assert tr_pg == tr_b
    assert tr_pg["flops"] > 0
    return tr_pg


def test_crsd_spmv_scatter_and_local_memory():
    plan, kernel, slab, x, scatter = _crsd_case(nvec=1, use_local_memory=True)
    assert plan.scatter.num_rows > 0
    assert any(g.kind == "AD" for r in plan.regions for g in r.groups)
    assert len(plan.regions) == 2
    tr = _assert_engines_agree(kernel, plan, slab, x, scatter)
    assert tr["barriers"] > 0 and tr["local_load_bytes"] > 0
    assert tr["l2_hits"] > 0


def test_crsd_spmm_nvec3():
    plan, kernel, slab, x, scatter = _crsd_case(nvec=3, use_local_memory=False)
    assert plan.nvec == 3 and plan.scatter.num_rows > 0
    assert len(plan.regions) == 2
    _assert_engines_agree(kernel, plan, slab, x, scatter)


def test_sym_carrier():
    rng = np.random.default_rng(11)
    h = N // 2
    coo = _stack(gen.symmetric_diagonals(h, [1], rng),
                 gen.symmetric_diagonals(h, [1, 4], rng))
    sym = SymCRSDMatrix.from_coo(coo, mrows=MROWS)
    plan = build_sym_plan(sym)
    assert len(plan.regions) == 2
    kernel = generate_sym_python_kernel(plan)
    _assert_engines_agree(kernel, plan, sym.sym_val,
                          rng.standard_normal(sym.ncols))


@pytest.mark.parametrize("kind", ["crsd", "spmm", "sym"])
def test_no_per_engine_copies(kind):
    if kind == "sym":
        coo = gen.symmetric_banded(256, 3, np.random.default_rng(3))
        kernel = generate_sym_python_kernel(
            build_sym_plan(SymCRSDMatrix.from_coo(coo, mrows=MROWS)))
    else:
        kernel = _crsd_case(nvec=3 if kind == "spmm" else 1,
                            use_local_memory=True)[1]
    names = [line.split("(")[0][len("def "):]
             for line in kernel.source.splitlines()
             if line.startswith("def ")]
    assert names
    assert not [n for n in names if n.endswith("_batched")]
    assert not [f.name for f in dataclasses.fields(kernel)
                if f.name.endswith("_batched")]
