"""Shard-by-shard CRSD execution through the existing engines.

:class:`ShardedSpMV` runs one certified row-block
:class:`~repro.shard.plan.ShardPlan` shard at a time — each shard's
sub-plan compiled through the normal codelet generator and launched
through the batched / per-group / fused engines against the *full*
``dia_val`` / ``x`` / ``y`` buffers (sub-plans keep absolute
addressing; only the scatter side structure is re-packed per shard).
Because the certificate proved halo coverage, write disjointness and
deterministic overwrite order, the concatenation of shard launches is
bit-identical to the unsharded run — the differential suite holds it
to ``np.array_equal``, not allclose.

The runner *refuses* uncertified plans with
:class:`~repro.shard.plan.ShardPlanError`: a shard plan is either
proven or not executed, never silently wrong.

Each shard's dia and scatter launches share one private L2
:class:`~repro.ocl.memory.SegmentCache` — the exact cache topology the
certificate's per-shard trace predictions replay, so executed traced
counters match ``certificate.per_shard_traces`` counter for counter.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.analyze.sharding import ShardCertificate
from repro.codegen.python_codelet import generate_python_kernel
from repro.core.crsd import CRSDMatrix
from repro.gpu_kernels.base import GPUSpMV, SpMVRun
from repro.gpu_kernels.fused import build_fused_state
from repro.obs.recorder import maybe_span
from repro.ocl.executor import (
    executor_mode,
    launch,
    launch_batched,
    make_launch_cache,
)
from repro.ocl.trace import KernelTrace
from repro.shard.plan import ShardPlanError

__all__ = ["ShardedSpMV"]


class ShardedSpMV(GPUSpMV):
    """Row-block sharded CRSD SpMV runner.

    Parameters
    ----------
    matrix:
        The CRSD matrix the certificate was issued for.
    certificate:
        A passing :class:`~repro.analyze.sharding.ShardCertificate`
        (``certify_shard_plan`` output).  A failing certificate raises
        :class:`ShardPlanError` naming the violated provers.
    """

    name = "crsd_sharded"

    def __init__(self, matrix: CRSDMatrix, certificate: ShardCertificate,
                 shards: Optional[Sequence[int]] = None, **kwargs):
        kwargs.setdefault("local_size", matrix.mrows)
        super().__init__(**kwargs)
        if not isinstance(matrix, CRSDMatrix):
            raise ShardPlanError(
                "sharded execution requires a CRSD matrix; got "
                f"{type(matrix).__name__}")
        if not certificate.ok:
            raise ShardPlanError(
                "refusing to execute an uncertified shard plan: "
                + ("; ".join(certificate.reasons) or "no certificate"))
        if len(certificate.subplans) != len(certificate.shard_plan.shards):
            raise ShardPlanError(
                "certificate carries no per-shard sub-plans; re-run "
                "certify_shard_plan")
        self.matrix = matrix
        self.certificate = certificate
        self.shard_plan = certificate.shard_plan
        self.subplans = certificate.subplans
        # the shards this runner executes: all of them by default, or a
        # subset — the cluster gives each device a runner over exactly
        # the shard indices it owns (write disjointness is certified,
        # so a subset's rows equal the full run's rows bit for bit)
        if shards is None:
            active = tuple(range(len(self.subplans)))
        else:
            active = tuple(sorted({int(s) for s in shards}))
            for s in active:
                if not 0 <= s < len(self.subplans):
                    raise ShardPlanError(
                        f"shard index {s} outside the plan's "
                        f"{len(self.subplans)} shards")
        self.active_shards = active
        active_set = set(active)
        # one compiled codelet set per non-empty active shard
        self.kernels = [
            generate_python_kernel(sp)
            if (i in active_set and (sp.num_groups or sp.scatter.num_rows))
            else None
            for i, sp in enumerate(self.subplans)
        ]
        # per-shard fused state: None = not built, False = declined
        self._fused_states: List[object] = [None] * len(self.subplans)

    @property
    def nrows(self) -> int:
        return self.matrix.nrows

    @property
    def ncols(self) -> int:
        return self.matrix.ncols

    @property
    def num_shards(self) -> int:
        return self.shard_plan.num_shards

    # ------------------------------------------------------------------
    def _prepare(self) -> None:
        self._dia_val = self.context.alloc(
            self.matrix.dia_val.astype(self.dtype), "crsd_dia_val")
        active = set(self.active_shards)
        self._shard_scatter = []
        for spec in self.shard_plan.shards:
            lo, hi = spec.scatter_start, spec.scatter_end
            if hi <= lo or spec.index not in active:
                self._shard_scatter.append(None)
                continue
            colval = self.matrix.scatter_colval[lo:hi]
            val = self.matrix.scatter_val[lo:hi]
            self._shard_scatter.append((
                self.context.alloc(
                    np.ascontiguousarray(colval.T).ravel(),
                    f"scatter_colval_s{spec.index}"),
                self.context.alloc(
                    np.ascontiguousarray(val.T).astype(self.dtype).ravel(),
                    f"scatter_val_s{spec.index}"),
                self.context.alloc(
                    self.matrix.scatter_rowno[lo:hi],
                    f"scatter_rowno_s{spec.index}"),
            ))
        self._y = self.context.alloc_zeros(self.nrows, self.dtype, "y")

    # ------------------------------------------------------------------
    def _execute(self, x: np.ndarray, trace: bool) -> SpMVRun:
        xbuf = self.context.alloc(x, "x")
        try:
            ybuf = self._y
            ybuf.data[:] = 0
            mode = executor_mode()
            total = KernelTrace()
            for i in self.active_shards:
                spec = self.shard_plan.shards[i]
                if self.kernels[i] is None:
                    continue  # empty shard: no work, no launches
                with maybe_span(f"{self.name}.shard", "op",
                                kernel=self.name, shard=spec.index,
                                row_start=spec.row_start,
                                row_end=spec.row_end,
                                halo_lo=spec.halo_lo,
                                halo_hi=spec.halo_hi):
                    tr = self._execute_shard(i, spec, xbuf, ybuf, trace,
                                             mode)
                total.merge(tr)
            return SpMVRun(y=ybuf.to_host().copy(), trace=total)
        finally:
            self.context.free(xbuf)

    def _execute_shard(self, i: int, spec, xbuf, ybuf, trace: bool,
                       mode: str) -> KernelTrace:
        subplan = self.subplans[i]
        if mode == "fused":
            tr = self._execute_shard_fused(i, spec, xbuf, ybuf, trace)
            if tr is not None:
                return tr
            mode = "batched"  # this shard's sub-plan declined: fall back
        kern = self.kernels[i]
        do_launch = launch_batched if mode == "batched" else launch
        # the shard's private L2: shared by its dia and scatter
        # launches, fresh for the next shard
        cache = make_launch_cache(self.device, trace)
        tr = do_launch(
            kern.dia_kernel,
            subplan.num_groups,
            subplan.local_size,
            (self._dia_val, xbuf, ybuf),
            self.device,
            trace,
            cache,
        )
        if kern.scatter_kernel is not None and subplan.scatter.num_rows:
            scol, sval, srow = self._shard_scatter[i]
            groups = -(-subplan.scatter.num_rows // subplan.local_size)
            tr2 = do_launch(
                kern.scatter_kernel,
                groups,
                subplan.local_size,
                (scol, sval, srow, xbuf, ybuf),
                self.device,
                trace,
                cache,
            )
            tr.merge(tr2)
        return tr

    # ------------------------------------------------------------------
    def _shard_fused_state(self, i: int, spec):
        state = self._fused_states[i]
        if state is None:
            lo, hi = spec.scatter_start, spec.scatter_end
            try:
                state, _cert = build_fused_state(
                    self.subplans[i], self.device, self.precision,
                    scatter_colval=self.matrix.scatter_colval[lo:hi],
                    scatter_rowno=self.matrix.scatter_rowno[lo:hi])
            except Exception:
                state = None  # crash counts as a decline for this shard
            self._fused_states[i] = state if state is not None else False
        return self._fused_states[i] or None

    def _execute_shard_fused(self, i: int, spec, xbuf, ybuf,
                             trace: bool) -> Optional[KernelTrace]:
        state = self._shard_fused_state(i, spec)
        if state is None:
            return None
        scatter = self._shard_scatter[i]
        sval = (scatter[1].data if scatter is not None
                else np.empty(0, dtype=self.dtype))
        state.kernel(self._dia_val.data, sval, xbuf.data, ybuf.data)
        return state.run_trace(trace)
