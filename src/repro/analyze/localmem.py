"""Local-memory checker: races, barrier placement, capacity.

Work-items of a group run concurrently between barriers, so the
checker reasons in *epochs*: the ops between two consecutive
``barrier(CLK_LOCAL_MEM_FENCE)`` calls.  Within one epoch any element
of a tile touched by a store *and* by a different lane's store or load
is a race — the staging pattern is only correct because a barrier
separates the x-window stores from the multiply-accumulate loads.

Both renderings are checked: the Python simulator's per-AD-group tiles
(:attr:`RegionModel.local_ops`) and the OpenCL kernel's single shared
``xtile`` (:attr:`RegionModel.opencl_local_ops`) — the latter is where
a missing wait-for-reads barrier between two AD groups of the same
region shows up as a write-after-read race.

Capacity: the OpenCL rendering declares ``__local real
xtile[max_tile_len]``; the Python rendering allocates every AD tile of
a region codelet at once.  The worst case of the two must fit the
device's per-CU local memory — checked here and used by the autotuner
to reject ``use_local_memory`` configurations statically.
"""

from __future__ import annotations

from typing import List

from repro.analyze.model import _REAL_ITEMSIZE, KernelModel, LocalOp
from repro.analyze.report import AnalysisReport
from repro.codegen.plan import KernelPlan
from repro.ocl.device import DeviceSpec, TESLA_C2050


def required_local_bytes(plan: KernelPlan,
                         precision: str = "double") -> int:
    """Worst-case local memory one work-group of ``plan`` requests.

    Usable standalone (e.g. by the autotuner) — needs no model build.
    """
    isize = _REAL_ITEMSIZE.get(precision.lower())
    if isize is None:
        raise ValueError(f"unknown precision {precision!r}")
    if not plan.use_local_memory or plan.nvec > 1:
        return 0
    worst = plan.max_tile_len  # the OpenCL shared declaration
    for region in plan.regions:
        total = sum(
            region.mrows + g.ndiags - 1
            for g in region.groups if g.kind == "AD"
        )
        worst = max(worst, total)  # Python rendering: tiles coexist
    return worst * isize


def check_localmem(model: KernelModel, report: AnalysisReport,
                   device: DeviceSpec = TESLA_C2050) -> None:
    """Race + barrier + capacity checks; fills
    ``report.local_bytes_required``."""
    for rm in model.regions:
        where = f"region {rm.region.index}"
        _check_races(rm.local_ops, f"{where} (python rendering)", report)
        _check_races(rm.opencl_local_ops, f"{where} (opencl rendering)",
                     report)
    required = required_local_bytes(model.plan,
                                    _precision_name(model.itemsize))
    report.local_bytes_required = required
    if required > device.local_mem_per_cu_bytes:
        report.add(
            "localmem", "error", "kernel",
            f"work-group requests {required} B of local memory; device "
            f"provides {device.local_mem_per_cu_bytes} B per CU — the "
            "kernel cannot launch (reject this configuration)",
        )


def _precision_name(itemsize: int) -> str:
    return "double" if itemsize == 8 else "single"


def _same_lane_only(a: LocalOp, b: LocalOp) -> bool:
    """True when every element both ops touch is touched by the *same*
    lane in each — sequential within a work-item, hence race-free."""
    return (a.base == b.base and a.lane_coeff == b.lane_coeff
            and a.lane_coeff != 0)


def _overlap(a: LocalOp, b: LocalOp) -> bool:
    alo, ahi = a.elements()
    blo, bhi = b.elements()
    return a.tile == b.tile and alo <= bhi and blo <= ahi


def _check_races(ops: List[LocalOp], where: str,
                 report: AnalysisReport) -> None:
    epoch: List[LocalOp] = []
    for op in ops:
        if op.op == "barrier":
            epoch = []
            continue
        if op.op == "store" and op.lane_coeff == 0 and op.lane_bound > 1:
            report.add(
                "localmem", "error", where,
                f"store to {op.tile}[{op.base}] by {op.lane_bound} lanes "
                "at once: write-write race on a single element",
            )
        for prev in epoch:
            if "store" not in (op.op, prev.op):
                continue  # two loads never race
            if not _overlap(op, prev):
                continue
            if _same_lane_only(op, prev):
                continue
            kind = ("write-write" if op.op == prev.op == "store"
                    else "read-write")
            lo = max(op.elements()[0], prev.elements()[0])
            hi = min(op.elements()[1], prev.elements()[1])
            report.add(
                "localmem", "error", where,
                f"{kind} race on {op.tile}[{lo}..{hi}]: {prev.op} and "
                f"{op.op} in the same barrier epoch touch the same "
                "elements from different lanes (missing "
                "barrier(CLK_LOCAL_MEM_FENCE)?)",
            )
        epoch.append(op)
