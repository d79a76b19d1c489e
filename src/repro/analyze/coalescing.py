"""Coalescing linter and exact static trace prediction.

Every access the generator emits is lane-contiguous (``lane_coeff ==
1``): a wavefront touches one run of consecutive elements, which is the
paper's coalescing claim (Section III-B/IV: work-item ``i`` of a
segment reads slab position ``d*mrows + i`` — consecutive lanes,
consecutive addresses, stride ``mrows`` *between* diagonals).  The
linter proves that property symbolically and, because every base
address and guard is a literal, goes further: it computes the *exact*
per-wavefront transaction counts the dynamic trace would record — no
kernel execution, just closed-form arithmetic over the ``(seg, lane)``
iteration space.

:func:`predict_trace` is that closed form, for a device with the L2
model disabled (``l2_bytes=0``): coalescing is a property of the
access pattern; L2 residency is orthogonal and order-dependent.
:func:`synthesize_trace` adds the L2 split on top by replaying the
launch's exact segment streams through one
:class:`~repro.ocl.memory.SegmentCache`.  Both serve every plan kind
(full CRSD and symmetric half storage); the fused engine and the shard
provers consume them, and differential tests assert counter equality
with the dynamic trace bit-for-bit.
"""

from __future__ import annotations

import dataclasses
from typing import Iterable, List, Optional, Tuple

import numpy as np

from repro.analyze.model import (
    SLAB_BUFFERS,
    GlobalAccess,
    IndirectAccess,
    KernelModel,
)
from repro.analyze.report import AnalysisReport
from repro.ocl.device import DeviceSpec, TESLA_C2050
from repro.ocl.memory import SegmentCache, wavefront_segments
from repro.ocl.trace import KernelTrace


def predict_trace(model: KernelModel,
                  device: DeviceSpec = TESLA_C2050) -> Optional[KernelTrace]:
    """Exact static :class:`KernelTrace` prediction (L2 disabled).

    Returns ``None`` when the matrix has scatter rows but the model was
    built without the scatter index data (the indirect accesses are
    then unpredictable).
    """
    tr = KernelTrace()
    plan = model.plan
    w = device.wavefront_size
    nwf_per_group = -(-model.lanes // w)
    tr.work_groups = plan.num_groups
    tr.wavefronts = plan.num_groups * nwf_per_group
    for rm in model.regions:
        nrs = rm.region.nrs
        for acc in rm.accesses:
            _count_affine(tr, acc, model, device)
        for op in rm.local_ops:
            if op.op == "store":
                tr.local_store_bytes += op.lane_bound * model.itemsize * nrs
            elif op.op == "load":
                tr.local_load_bytes += op.lane_bound * model.itemsize * nrs
        tr.barriers += rm.barriers_per_group * nrs
        tr.flops += rm.flops_per_group * nrs
    return scatter_trace(model, device, tr)


def scatter_trace(model: KernelModel, device: DeviceSpec = TESLA_C2050,
                  tr: Optional[KernelTrace] = None
                  ) -> Optional[KernelTrace]:
    """The scatter launch's share of the closed-form prediction, added
    onto ``tr`` (a fresh trace when omitted) and returned.

    ``None`` when an indirect access carries no baked index data.
    """
    tr = KernelTrace() if tr is None else tr
    sm = model.scatter
    if sm is None:
        return tr
    tr.work_groups += sm.num_groups
    tr.wavefronts += sm.num_groups * -(-model.lanes // device.wavefront_size)
    for acc in sm.accesses:
        _count_affine(tr, acc, model, device)
    for ind in sm.indirect:
        if ind.index_grid is None:
            return None
        _count_indirect(tr, ind, model, device)
    tr.flops += sm.flops_total
    return tr


def check_coalescing(model: KernelModel, report: AnalysisReport,
                     device: DeviceSpec = TESLA_C2050) -> None:
    """Lint lane contiguity and fill the report's static predictions."""
    for rm in model.regions:
        _lint_contiguity(rm.accesses, f"region {rm.region.index}", report)
    if model.scatter is not None:
        _lint_contiguity(model.scatter.accesses, "scatter", report)
        for ind in model.scatter.indirect:
            if ind.index_grid is None:
                report.add(
                    "coalescing", "info", "scatter",
                    f"{ind.label}: data-dependent gather; supply the "
                    "scatter index arrays for an exact prediction",
                )
    tr = predict_trace(model, device)
    report.predicted = tr
    if tr is not None:
        report.load_coalescing_efficiency = tr.load_coalescing_efficiency(
            model.itemsize, device.transaction_bytes)
        report.store_coalescing_efficiency = tr.store_coalescing_efficiency(
            device.transaction_bytes)
    # the paper's headline claim: with mrows a multiple of the
    # wavefront, the unguarded value-slab loads coalesce perfectly
    # (dia_val for CRSD; the forward sym_val runs for half storage)
    if (model.plan.regions and model.plan.mrows % device.wavefront_size == 0):
        eff = _slab_efficiency(model, device)
        if eff is not None and eff < 1.0:
            slab = SLAB_BUFFERS[model.plan.kind]
            report.add(
                "coalescing", "error", f"{model.plan.kind} dia kernel",
                f"unguarded {slab} loads are not perfectly coalesced "
                f"(static efficiency {eff:.4f} < 1.0) although mrows="
                f"{model.plan.mrows} is wavefront-aligned",
            )


# ----------------------------------------------------------------------
# counting
# ----------------------------------------------------------------------

def _count_affine(tr: KernelTrace, acc: GlobalAccess, model: KernelModel,
                  device: DeviceSpec) -> None:
    req, txn, useful = _affine_traffic(acc, model, device)
    if acc.kind == "load":
        tr.global_load_requests += req
        tr.global_load_transactions += txn
        tr.global_load_bytes_useful += useful
    else:
        tr.global_store_requests += req
        tr.global_store_transactions += txn
        tr.global_store_bytes_useful += useful


def _itemsize_of(acc, model: KernelModel) -> int:
    if acc.buffer in ("scatter_colval", "scatter_rowno"):
        return model.index_itemsize
    return model.itemsize


def _affine_traffic(acc: GlobalAccess, model: KernelModel,
                    device: DeviceSpec):
    """(requests, transactions, useful_bytes) of one affine access over
    its full launch range — closed form per (seg, wavefront)."""
    b = _itemsize_of(acc, model)
    T = device.transaction_bytes
    w = device.wavefront_size
    if acc.nsegs <= 0 or acc.lanes <= 0:
        return 0, 0, 0
    if acc.lane_coeff != 1:
        return _affine_traffic_slow(acc, model, device)
    segs = np.arange(acc.nsegs, dtype=np.int64)
    base_s = acc.base + acc.seg_coeff * segs
    # active lane window [alo, ahi) per seg
    alo = np.zeros(acc.nsegs, dtype=np.int64)
    ahi = np.full(acc.nsegs, acc.lanes, dtype=np.int64)
    if acc.lane_bound is not None:
        np.minimum(ahi, acc.lane_bound, out=ahi)
    if acc.guard_lo is not None:
        np.maximum(alo, acc.guard_lo - base_s, out=alo)
    if acc.guard_hi is not None:
        np.minimum(ahi, acc.guard_hi - base_s, out=ahi)
    req = txn = useful = 0
    nwf = -(-acc.lanes // w)
    for wf in range(nwf):
        c0, c1 = wf * w, min((wf + 1) * w, acc.lanes)
        lo = np.maximum(alo, c0)
        hi = np.minimum(ahi, c1)
        cnt = hi - lo
        live = cnt > 0
        n_live = int(np.count_nonzero(live))
        if not n_live:
            continue
        req += n_live
        useful += int(cnt[live].sum()) * b
        first = (base_s[live] + lo[live]) * b // T
        last = (base_s[live] + hi[live] - 1) * b // T
        txn += int((last - first).sum()) + n_live
    return req, txn, useful


def _affine_traffic_slow(acc: GlobalAccess, model: KernelModel,
                         device: DeviceSpec):
    """Fallback for non-unit lane strides (only reachable from
    deliberately corrupted models): enumerate lanes explicitly."""
    b = _itemsize_of(acc, model)
    idx, active = acc.lane_grid()
    req = txn = useful = 0
    for seg in range(acc.nsegs):
        r, segments, u = wavefront_segments(
            idx[seg], b, device.wavefront_size, device.transaction_bytes,
            active[seg])
        req += r
        txn += int(segments.size)
        useful += u
    return req, txn, useful


def _count_indirect(tr: KernelTrace, ind: IndirectAccess,
                    model: KernelModel, device: DeviceSpec) -> None:
    b = model.itemsize  # x and y hold reals
    req = txn = useful = 0
    for g in range(ind.index_grid.shape[0]):
        r, segments, u = wavefront_segments(
            ind.index_grid[g], b, device.wavefront_size,
            device.transaction_bytes,
            None if ind.active is None else ind.active[g])
        req += r
        txn += int(segments.size)
        useful += u
    if ind.kind == "load":
        tr.global_load_requests += req
        tr.global_load_transactions += txn
        tr.global_load_bytes_useful += useful
    else:
        tr.global_store_requests += req
        tr.global_store_transactions += txn
        tr.global_store_bytes_useful += useful


# ----------------------------------------------------------------------
# lint
# ----------------------------------------------------------------------

def _lint_contiguity(accesses: Iterable[GlobalAccess], where: str,
                     report: AnalysisReport) -> None:
    for acc in accesses:
        if acc.lane_coeff != 1:
            report.add(
                "coalescing", "error", where,
                f"{acc.label}: lane stride {acc.lane_coeff} != 1 — "
                "wavefront accesses are not contiguous and cannot "
                "coalesce",
            )


def _slab_efficiency(model: KernelModel,
                     device: DeviceSpec) -> Optional[float]:
    tr = KernelTrace()
    found = False
    slab = SLAB_BUFFERS[model.plan.kind]
    for rm in model.regions:
        for acc in rm.accesses:
            if (acc.buffer == slab and acc.lane_coeff == 1
                    and not acc.guarded):
                _count_affine(tr, acc, model, device)
                found = True
    if not found:
        return None
    return tr.load_coalescing_efficiency(model.itemsize,
                                         device.transaction_bytes)


# ----------------------------------------------------------------------
# L2-aware trace synthesis: the one replay of the segment streams
# ----------------------------------------------------------------------

def _segment_streams(idx: np.ndarray, active: np.ndarray, itemsize: int,
                     device: DeviceSpec) -> Tuple[np.ndarray, np.ndarray]:
    """Per-group transaction segment ids of one vectorised access.

    ``idx``/``active`` are ``(num_groups, lanes)``; returns the
    concatenated per-group segment streams plus group offsets, each
    group's stream identical to what
    :func:`~repro.ocl.memory.wavefront_segments` returns for its row —
    the same pad-sort-dedup construction, vectorised over groups.
    """
    ngroups, lanes = idx.shape
    w = device.wavefront_size
    nwf = -(-lanes // w)
    pad = nwf * w - lanes
    seg = idx * itemsize // device.transaction_bytes
    if pad:
        seg = np.concatenate(
            [seg, np.full((ngroups, pad), -1, dtype=np.int64)], axis=1)
        active = np.concatenate(
            [active, np.zeros((ngroups, pad), dtype=bool)], axis=1)
    seg = np.where(active, seg, np.int64(-1)).reshape(ngroups, nwf, w)
    seg_sorted = np.sort(seg, axis=2)
    newseg = np.ones(seg_sorted.shape, dtype=bool)
    newseg[:, :, 1:] = seg_sorted[:, :, 1:] != seg_sorted[:, :, :-1]
    newseg &= seg_sorted >= 0
    segments = seg_sorted[newseg]  # C order = (group, wavefront) order
    counts = newseg.sum(axis=(1, 2))
    offsets = np.zeros(ngroups + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    return segments, offsets


def _access_streams(acc, model: KernelModel,
                    device: DeviceSpec) -> Tuple[np.ndarray, np.ndarray]:
    """Segment streams of an affine or indirect access, one per group."""
    if isinstance(acc, IndirectAccess):
        idx = np.asarray(acc.index_grid, dtype=np.int64)
        active = (acc.active if acc.active is not None
                  else np.ones(idx.shape, dtype=bool))
    else:
        idx, active = acc.lane_grid()
    return _segment_streams(idx, active, _itemsize_of(acc, model), device)


def _scatter_program_order(model: KernelModel) -> List[object]:
    """The scatter kernel's accesses in emitted statement order:
    per ELL column the colval load, the val load and the ``nvec`` x
    gathers; then the rowno load; then the ``nvec`` y stores."""
    sm = model.scatter
    nvec = model.plan.nvec
    ordered: List[object] = []
    for k in range(sm.width):
        ordered.append(sm.accesses[2 * k])        # scatter_colval
        ordered.append(sm.accesses[2 * k + 1])    # scatter_val
        ordered.extend(sm.indirect[k * nvec:(k + 1) * nvec])
    ordered.append(sm.accesses[-1])               # scatter_rowno
    ordered.extend(sm.indirect[sm.width * nvec:])  # y stores
    return ordered


def synthesize_trace(model: KernelModel, device: DeviceSpec,
                     base: Optional[KernelTrace] = None) -> KernelTrace:
    """The exact trace a traced execution of ``model`` records, L2 on.

    ``base`` is the L2-free closed-form :func:`predict_trace` result
    (recomputed when not supplied).  The launch's segment streams are
    replayed through one :class:`SegmentCache` in the order the
    execution engines feed it — region by region, group-major within
    each, accesses in program order, then the scatter launch sharing
    the same cache; stores are write-allocates.  The absorbed load
    transactions move into ``l2_hits``.  A pure function of the plan:
    callers compute it once and hand out copies.
    """
    if base is None:
        base = predict_trace(model, device)
    if base is None:
        raise ValueError("closed-form trace prediction unavailable for "
                         "this model (indirect access without baked "
                         "index data)")
    tr = dataclasses.replace(base)
    if device.l2_bytes <= 0:
        return tr
    cache = SegmentCache(device.l2_bytes, device.transaction_bytes)
    hits = 0

    def replay(entries, num_groups):
        nonlocal hits
        streams = [(acc.kind == "load", acc.buffer,
                    *_access_streams(acc, model, device))
                   for acc in entries]
        for g in range(num_groups):
            for is_load, buf, segs, offs in streams:
                s = segs[offs[g]:offs[g + 1]]
                if s.size == 0:
                    continue
                misses = cache.access(buf, s)
                if is_load:
                    hits += int(s.size) - misses

    for rm in model.regions:
        replay(rm.accesses, rm.region.nrs)
    if model.scatter is not None:
        replay(_scatter_program_order(model), model.scatter.num_groups)
    tr.global_load_transactions -= hits
    tr.l2_hits += hits
    return tr
