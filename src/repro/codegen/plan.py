"""Kernel plan: every constant the code generator bakes into a codelet.

The plan is the single source of truth shared by the OpenCL-C and
Python emitters.  It is derived purely from a
:class:`~repro.core.crsd.CRSDMatrix` — i.e. from the information of
Table II: per pattern region the number of row segments (NRS), the
slots per segment (NNzRS), the start row (SR), the diagonal count
(NDias) and each diagonal's column value (Colv).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.core.crsd import CRSDMatrix


@dataclass(frozen=True)
class GroupPlan:
    """One AD/NAD group inside a region codelet.

    Attributes
    ----------
    kind:
        "AD" or "NAD" for full CRSD groups; "SYM" for the single
        group of a half-storage symmetric region
        (:func:`~repro.codegen.sym_codelet.build_sym_plan`).
    d_first:
        Storage position of the group's first diagonal within the
        region (the ``d`` of the paper's location formula).
    offsets:
        The member diagonal offsets in storage order.
    colv:
        Column value of each member at the region's start row
        (``Colv_{p,d}``; may be negative, the kernel clamps).
    """

    kind: str
    d_first: int
    offsets: Tuple[int, ...]
    colv: Tuple[int, ...]

    @property
    def ndiags(self) -> int:
        return len(self.offsets)

    @property
    def tile_len_extra(self) -> int:
        """Extra x elements an AD tile needs beyond mrows (n-1)."""
        return self.ndiags - 1


@dataclass(frozen=True)
class RegionPlan:
    """One pattern region = one switch case = one codelet.

    ``gid_base`` is the paper's running sum ``sum_{i<p} NRS_i``; a
    work-group handles this region iff
    ``gid_base <= group_id < gid_base + nrs``.
    ``slab_base`` is ``sum_{i<p} NRS_i * NNzRS_i``.
    """

    index: int
    gid_base: int
    slab_base: int
    start_row: int
    nrs: int
    mrows: int
    nnz_per_segment: int
    groups: Tuple[GroupPlan, ...]
    signature: str

    @property
    def ndiags(self) -> int:
        return sum(g.ndiags for g in self.groups)

    @property
    def max_tile_len(self) -> int:
        """Largest local-memory x tile any AD group of this region needs."""
        extras = [g.tile_len_extra for g in self.groups if g.kind == "AD"]
        return (self.mrows + max(extras)) if extras else 0


@dataclass(frozen=True)
class ScatterPlan:
    """The generated ELL kernel over the scatter rows.

    The arrays are laid out column-major (entry k of all rows
    contiguous) so the generated loads coalesce; the loop over the
    ``width`` entries is fully unrolled, which the paper highlights as
    its loop-unrolling optimisation (num_scatter_width is known at
    generation time).
    """

    num_rows: int
    width: int


@dataclass(frozen=True)
class KernelPlan:
    """Complete plan for one matrix's generated SpMV kernel.

    ``nvec > 1`` generates the SpMM variant: each diagonal value is
    loaded once and multiplied against ``nvec`` right-hand sides held
    column-major (``x[j * ncols + i]``), amortising the slab traffic —
    the blocked-Krylov use case.  SpMM codelets use direct x loads
    (no AD tile): with ``nvec`` columns in flight the L2 already holds
    the shared window and per-column tiles would exhaust local memory.

    ``slab_slots`` is the slot count of the value slab the codelets
    address.  ``None`` means the plan's own regions fill it (every
    full plan); a shard sub-plan keeps the *parent's* count, because
    its ``slab_base`` constants stay absolute into the parent slab
    (see :func:`~repro.analyze.sharding.build_shard_subplan`).
    """

    nrows: int
    ncols: int
    mrows: int
    regions: Tuple[RegionPlan, ...]
    scatter: ScatterPlan
    use_local_memory: bool
    nvec: int = 1
    slab_slots: Optional[int] = None

    @property
    def kind(self) -> str:
        """``"SYM"`` for a half-storage symmetric plan, else ``"CRSD"``."""
        if any(g.kind == "SYM" for r in self.regions for g in r.groups):
            return "SYM"
        return "CRSD"

    @property
    def num_groups(self) -> int:
        """Work-groups of the diagonal kernel (one per row segment)."""
        return sum(r.nrs for r in self.regions)

    @property
    def local_size(self) -> int:
        return self.mrows

    @property
    def slab_extent(self) -> int:
        """Slots of the uploaded value slab (``slab_slots``, or the sum
        of the plan's own region slabs for a full plan)."""
        if self.slab_slots is not None:
            return self.slab_slots
        return sum(r.nrs * r.nnz_per_segment for r in self.regions)

    @property
    def max_tile_len(self) -> int:
        tiles = [r.max_tile_len for r in self.regions]
        return max(tiles) if tiles else 0


def build_plan(crsd: CRSDMatrix, use_local_memory: bool = True,
               nvec: int = 1) -> KernelPlan:
    """Derive the kernel plan from a CRSD matrix.

    ``use_local_memory=False`` disables the AD-group x-tile staging
    (ablation A1 — the wang3/wang4 discussion of Section IV-A).
    ``nvec > 1`` requests the multi-vector SpMM variant (local-memory
    staging is then disabled; see :class:`KernelPlan`).
    """
    if nvec < 1:
        raise ValueError(f"nvec must be >= 1, got {nvec}")
    if nvec > 1:
        use_local_memory = False
    regions: List[RegionPlan] = []
    gid_base = 0
    slab_base = 0
    for p, region in enumerate(crsd.regions):
        groups: List[GroupPlan] = []
        d = 0
        for g in region.pattern.groups:
            groups.append(
                GroupPlan(
                    kind=g.kind.value,
                    d_first=d,
                    offsets=tuple(g.offsets),
                    colv=tuple(region.start_row + o for o in g.offsets),
                )
            )
            d += g.ndiags
        regions.append(
            RegionPlan(
                index=p,
                gid_base=gid_base,
                slab_base=slab_base,
                start_row=region.start_row,
                nrs=region.num_segments,
                mrows=region.mrows,
                nnz_per_segment=region.nnz_per_segment,
                groups=tuple(groups),
                signature=str(region.pattern),
            )
        )
        gid_base += region.num_segments
        slab_base += region.stored_slots
    return KernelPlan(
        nrows=crsd.nrows,
        ncols=crsd.ncols,
        mrows=crsd.mrows,
        regions=tuple(regions),
        scatter=ScatterPlan(
            num_rows=crsd.num_scatter_rows, width=crsd.num_scatter_width
        ),
        use_local_memory=use_local_memory,
        nvec=nvec,
    )
