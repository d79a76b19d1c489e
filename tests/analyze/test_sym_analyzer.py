"""Static analysis of the symmetric codelets: green across the
symmetric generator set, with every checker actually exercised."""

import numpy as np
import pytest

from repro.analyze import analyze_matrix, analyze_plan, build_model
from repro.codegen.sym_codelet import build_sym_plan
from repro.core.symcrsd import SymCRSDMatrix
from repro.matrices import generators as gen


@pytest.fixture
def nprng():
    return np.random.default_rng(17)


CASES = {
    "banded_k7": lambda r: gen.symmetric_banded(512, 7, r),
    "gapped": lambda r: gen.symmetric_diagonals(320, [1, 4, 9], r),
    "indefinite": lambda r: gen.symmetric_diagonals(256, [2, 5], r,
                                                    spd=False),
    "kkt_h": lambda r: gen.kkt_blocks(256, 128, r)[0],
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_certification_green(case, nprng):
    sym = SymCRSDMatrix.from_coo(CASES[case](nprng), mrows=32)
    report = analyze_matrix(sym)
    assert report.exit_code == 0, [f.message for f in report.findings]
    assert not report.findings


@pytest.mark.parametrize("precision", ["double", "single"])
def test_certification_both_precisions(precision, nprng):
    sym = SymCRSDMatrix.from_coo(gen.symmetric_banded(256, 4, nprng),
                                 mrows=32, wavefront_size=32)
    report = analyze_matrix(sym, precision=precision)
    assert report.exit_code == 0


def test_model_shape(nprng):
    """The symbolic model exposes the half carrier, not the full slab:
    one sym_val buffer sized to the stored slots, no local memory."""
    sym = SymCRSDMatrix.from_coo(gen.symmetric_banded(256, 3, nprng),
                                 mrows=32)
    plan = build_sym_plan(sym)
    model = build_model(plan)
    assert model.buffer_sizes["sym_val"] == sym.stored_elements
    assert model.buffer_sizes["x"] == sym.ncols
    assert model.buffer_sizes["y"] == sym.nrows
    assert all(acc.buffer in ("sym_val", "x", "y")
               for reg in model.regions for acc in reg.accesses)
    assert all(not reg.local_ops for reg in model.regions)


def test_render_check_runs(nprng):
    sym = SymCRSDMatrix.from_coo(gen.symmetric_banded(128, 2, nprng),
                                 mrows=32)
    plan = build_sym_plan(sym)
    with_render = analyze_plan(plan, check_render=True)
    without = analyze_plan(plan, check_render=False)
    assert with_render.exit_code == 0
    assert without.exit_code == 0


def test_analyze_plan_models_mirror_reads(nprng):
    """The unified driver on a symmetric plan reasons over sym_val —
    forward runs unguarded, every mirror read guarded below by its
    run base — and never over a full-slab dia_val."""
    sym = SymCRSDMatrix.from_coo(gen.symmetric_banded(256, 3, nprng),
                                 mrows=32)
    plan = build_sym_plan(sym)
    assert plan.kind == "SYM"
    model = build_model(plan)
    assert "dia_val" not in model.buffer_sizes
    for rm in model.regions:
        stored = rm.region.groups[0].offsets
        slab = [a for a in rm.accesses if a.buffer == "sym_val"]
        forward = [a for a in slab if not a.guarded]
        mirror = [a for a in slab if a.guard_lo is not None]
        assert len(forward) == len(stored)
        assert len(mirror) == sum(1 for o in stored if o > 0)
        assert all(a.base < a.guard_lo and a.guard_hi is None
                   for a in mirror)
    report = analyze_plan(plan)
    assert report.ok
    assert report.predicted is not None
    assert report.predicted.flops == sum(
        rm.flops_per_group * rm.region.nrs for rm in model.regions)


def _inject(monkeypatch, edit):
    """Route the driver's symmetric OpenCL emitter through ``edit``."""
    import repro.analyze.driver as driver

    original = driver.generate_sym_opencl_source
    monkeypatch.setattr(
        driver, "generate_sym_opencl_source",
        lambda plan, precision="double": edit(original(plan, precision)))


#: drift -> (source edit, phrase the render finding must carry)
RENDER_DRIFT = {
    "barrier": (lambda src: src.replace(
        "        {\n", "        barrier(CLK_LOCAL_MEM_FENCE);\n        {\n", 1),
        "barrier"),
    "local": (lambda src: src.replace(
        "    int row;\n", "    __local double scratch[4];\n    int row;\n", 1),
        "__local"),
    "case": (lambda src: src.replace("case 0:", "", 1), "case labels"),
}


@pytest.mark.parametrize("drift", sorted(RENDER_DRIFT))
def test_render_drift_is_caught(drift, monkeypatch, nprng):
    sym = SymCRSDMatrix.from_coo(gen.symmetric_banded(128, 2, nprng),
                                 mrows=32)
    plan = build_sym_plan(sym)
    edit, phrase = RENDER_DRIFT[drift]
    _inject(monkeypatch, edit)
    report = analyze_plan(plan)
    render = [f.message for f in report.violations if f.check == "render"]
    assert any(phrase in m for m in render), render
    assert report.exit_code == 1
