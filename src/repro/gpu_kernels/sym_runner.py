"""Symmetric CRSD SpMV runner: half-storage codelets on the device.

Only the half slab (``sym_dia_val``) travels to the device — stored
diagonals with offset ``>= 0``, diagonal-major per region — and every
index is baked into the generated kernel.  Each stored run is read
twice per segment (forward term and guarded mirror term) but *streamed
from DRAM once*: the mirror read lands on lines the forward read of the
neighbouring segment brought into L2, so DRAM value traffic roughly
halves versus the full carrier, which is the point of the format.

Single launch, no scatter pass.  The execution engine follows
``REPRO_EXECUTOR`` like the full runner; the fused engine has no
symmetric lowering yet, so ``fused`` serves through the batched engine
(the codelets are identical — this is an engine choice, not a fallback
incident).
"""

from __future__ import annotations

from repro.codegen.sym_codelet import build_sym_plan, generate_sym_python_kernel
from repro.core.symcrsd import SymCRSDMatrix
from repro.gpu_kernels.base import GPUSpMV, SpMVRun
from repro.ocl.executor import (
    executor_mode,
    launch,
    launch_batched,
    make_launch_cache,
)


class SymCrsdSpMV(GPUSpMV):
    """Generated-codelet symmetric CRSD SpMV runner.

    Parameters
    ----------
    matrix:
        The symmetric half carrier.
    strict:
        Run the analyzer over the plan before compiling;
        raises :class:`~repro.analyze.report.KernelAnalysisError` on
        any violation.
    """

    name = "sym_crsd"

    def __init__(self, matrix: SymCRSDMatrix, strict: bool = False,
                 **kwargs):
        kwargs.setdefault("local_size", matrix.mrows)
        super().__init__(**kwargs)
        self.matrix = matrix
        self.plan = build_sym_plan(matrix)
        if strict:
            from repro.analyze.driver import analyze_plan
            from repro.analyze.report import KernelAnalysisError

            report = analyze_plan(self.plan, device=self.device,
                                  precision=self.precision)
            if not report.ok:
                raise KernelAnalysisError(report)
        self.kernel = generate_sym_python_kernel(self.plan)

    @property
    def nrows(self) -> int:
        return self.matrix.nrows

    @property
    def ncols(self) -> int:
        return self.matrix.ncols

    @property
    def opencl_source(self) -> str:
        """The OpenCL C rendering of the same kernel (for inspection)."""
        from repro.codegen.sym_codelet import generate_sym_opencl_source

        return generate_sym_opencl_source(self.plan, self.precision)

    def _prepare(self) -> None:
        self._sym_val = self.context.alloc(
            self.matrix.sym_val.astype(self.dtype), "sym_dia_val"
        )
        self._y = self.context.alloc_zeros(self.nrows, self.dtype, "y")

    def _execute(self, x, trace: bool) -> SpMVRun:
        xbuf = self.context.alloc(x, "x")
        try:
            ybuf = self._y
            ybuf.data[:] = 0
            batched = executor_mode() != "pergroup"
            do_launch = launch_batched if batched else launch
            kernel = (self.kernel.dia_kernel_batched if batched
                      else self.kernel.dia_kernel)
            cache = make_launch_cache(self.device, trace)
            tr = do_launch(
                kernel,
                self.plan.num_groups,
                self.plan.local_size,
                (self._sym_val, xbuf, ybuf),
                self.device,
                trace,
                cache,
            )
            return SpMVRun(y=ybuf.to_host().copy(), trace=tr)
        finally:
            self.context.free(xbuf)
