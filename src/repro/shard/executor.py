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

The runner builds nothing pattern-pure itself: the compiled sub-plan
codelets (:meth:`ShardCertificate.codelets`) and the per-shard fused
states (:attr:`ShardCertificate.fused_states`) come from the
certificate, so every runner — on every cluster device — activating
one certificate shares them.  Under ``REPRO_EXECUTOR=fused`` a shard
whose sub-plan the fused provers certified runs as one
``crsd_fused_kernel`` launch (absolute addressing into the full
``dia_val``, recorded to obs per shard); a declined shard runs batched.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.analyze.sharding import ShardCertificate
from repro.core.crsd import CRSDMatrix
from repro.gpu_kernels.base import GPUSpMV, SpMVRun
from repro.gpu_kernels.fused import FUSED_KERNEL_NAME
from repro.obs import recorder as _obs
from repro.obs.recorder import maybe_span
from repro.ocl.executor import (
    executor_mode,
    launch,
    launch_batched,
    make_launch_cache,
)
from repro.ocl.trace import KernelTrace
from repro.resilience import faults as _flt
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
        # the certificate's compiled codelets, per non-empty active shard
        self.kernels = [
            certificate.codelets(i)
            if (i in active_set and (sp.num_groups or sp.scatter.num_rows))
            else None
            for i, sp in enumerate(self.subplans)
        ]

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
    def _execute_shard_fused(self, i: int, spec, xbuf, ybuf,
                             trace: bool) -> Optional[KernelTrace]:
        """Shard ``i`` as one fused launch, or ``None`` when its
        sub-plan was declined by the fused provers."""
        states = self.certificate.fused_states
        state = states[i] if i < len(states) else None
        if state is None:
            return None
        scatter = self._shard_scatter[i]
        sval = (scatter[1].data if scatter is not None
                else np.empty(0, dtype=self.dtype))
        sess = _obs.ACTIVE
        t0 = _obs.perf_counter() if sess is not None else 0.0
        if _flt.ACTIVE is not None:
            _flt.ACTIVE.on_launch(FUSED_KERNEL_NAME)
        state.kernel(self._dia_val.data, sval, xbuf.data, ybuf.data)
        if _flt.ACTIVE is not None:
            _flt.ACTIVE.on_launch_exit(FUSED_KERNEL_NAME,
                                       (self._dia_val, xbuf, ybuf))
        tr = state.run_trace(trace)
        if sess is not None:
            sess.record_kernel(
                FUSED_KERNEL_NAME, work_groups=state.work_groups,
                local_size=self.subplans[i].local_size, executor="fused",
                wall_s=_obs.perf_counter() - t0,
                trace=tr if trace else None, shard=spec.index)
        return tr
