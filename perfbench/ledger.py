"""The traced run's per-layer ledger.

While a traced pass runs, :func:`traced` wraps each layer's public
entry point — at every attribute its callers resolve — in a
:mod:`repro.obs` span, and removes the wrappers afterwards.  Nothing
inside ``src/`` changes.  Kernel launches and the serving event loop
already record their own spans (``crsd_fused_kernel`` / batched kernel
spans, ``serve.run``).

:func:`layer_metrics` turns the recorded spans plus the pass's counters
into the per-layer metrics: ``calls`` counts spans, ``self_s`` is each
span's duration minus the time its child spans cover (from parent
links), summed per layer.  :data:`PER_LAYER` lists every metric with
the end-to-end metric and workload it should move.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
from collections import defaultdict
from typing import Dict, Iterator, List, Tuple

#: (layer, module, attribute) — module-level functions, patched at the
#: defining module and at every ``repro`` module that bound the same
#: object at import (``generate_python_kernel`` in the CRSD runner and
#: the shard executor, ``predict_gpu_time`` in the serving engine, ...)
FUNCTIONS = (
    ("core.serialize.fingerprints", "repro.core.serialize",
     "fingerprints"),
    ("codegen.generate_python_kernel", "repro.codegen.python_codelet",
     "generate_python_kernel"),
    ("codegen.validate_python_source", "repro.codegen.validator",
     "validate_python_source"),
    ("gpu_kernels.fused.certify_plan", "repro.gpu_kernels.fused",
     "certify_plan"),
    ("gpu_kernels.fused.synthesize_trace", "repro.gpu_kernels.fused",
     "synthesize_trace"),
    ("analyze.sharding.certify_shard_plan", "repro.analyze.sharding",
     "certify_shard_plan"),
    ("perf.costmodel.predict_gpu_time", "repro.perf.costmodel",
     "predict_gpu_time"),
)

#: (layer, module, class, method) — patched on the class
METHODS = (
    ("serve.cache.entry", "repro.serve.cache", "PlanCache", "entry"),
    ("serve.cache.runner_for", "repro.serve.cache", "PlanCache",
     "runner_for"),
    ("core.crsd.from_coo", "repro.core.crsd", "CRSDMatrix", "from_coo"),
    ("cluster.engine.submit", "repro.cluster.engine", "ClusterEngine",
     "submit"),
    ("cluster.engine.run", "repro.cluster.engine", "ClusterEngine",
     "run"),
)

#: modules that bind a wrapped function at import; imported before
#: patching so they see the wrapper and get restored afterwards
BINDERS = ("repro.gpu_kernels.crsd_runner", "repro.shard.executor",
           "repro.codegen.sym_codelet", "repro.serve.engine",
           "repro.cluster.engine", "repro.perf", "repro.analyze")

#: spans the program records itself -> ledger layer
SERVE_RUN_SPAN = "serve.run"
KERNEL_LAYERS = {"fused": "gpu_kernels.fused.kernel",
                 "batched": "ocl.executor.launch_batched"}

CODEGEN = ("codegen.generate_python_kernel",
           "codegen.validate_python_source")
COLD_PATH = CODEGEN + ("gpu_kernels.fused.certify_plan",
                       "gpu_kernels.fused.synthesize_trace",
                       "analyze.sharding.certify_shard_plan")

#: every per-layer metric: (name, unit, better, what it should move)
PER_LAYER: Tuple[Tuple[str, str, str, str], ...] = (
    ("core.serialize.fingerprints.calls", "count", "lower",
     "ops_per_s on serve-warm and cluster-cold; 0 on spmv-sweep"),
    ("core.serialize.fingerprints.self_s", "s", "lower",
     "ops_per_s on serve-warm (most of its wall time) and cluster-cold"),
    ("core.serialize.fingerprints.share", "ratio", "lower",
     "ops_per_s on serve-warm and cluster-cold"),
    ("serve.cache.entry.self_s", "s", "lower", "ops_per_s on cluster-cold"),
    ("serve.cache.runner_for.self_s", "s", "lower",
     "ops_per_s on cluster-cold"),
    ("serve.cache.hit_ratio", "ratio", "higher",
     "ops_per_s on cluster-cold"),
    ("serve.cache.pattern_reuses", "count", "higher",
     "ops_per_s on cluster-cold"),
    ("core.crsd.from_coo.calls", "count", "lower",
     "ops_per_s on spmv-sweep and cluster-cold"),
    ("core.crsd.from_coo.self_s", "s", "lower",
     "ops_per_s on spmv-sweep and cluster-cold"),
    ("codegen.generate_python_kernel.calls", "count", "lower",
     "ops_per_s on cluster-cold and spmv-sweep; 0 on serve-warm"),
    ("codegen.generate_python_kernel.self_s", "s", "lower",
     "ops_per_s on cluster-cold and spmv-sweep"),
    ("codegen.validate_python_source.self_s", "s", "lower",
     "ops_per_s on cluster-cold and spmv-sweep"),
    ("codegen.break_even_spmvs", "count", "lower",
     "the paper's amortisation: codegen self_s over host s per SpMV"),
    ("gpu_kernels.fused.certify_plan.calls", "count", "lower",
     "ops_per_s on cluster-cold; 0 on spmv-sweep and serve-warm"),
    ("gpu_kernels.fused.certify_plan.self_s", "s", "lower",
     "ops_per_s on cluster-cold"),
    ("gpu_kernels.fused.synthesize_trace.calls", "count", "lower",
     "ops_per_s on cluster-cold; 0 on spmv-sweep and serve-warm"),
    ("gpu_kernels.fused.synthesize_trace.self_s", "s", "lower",
     "ops_per_s on cluster-cold"),
    ("analyze.sharding.certify_shard_plan.calls", "count", "lower",
     "ops_per_s on cluster-cold; 0 on spmv-sweep and serve-warm"),
    ("analyze.sharding.certify_shard_plan.self_s", "s", "lower",
     "ops_per_s on cluster-cold"),
    ("ledger.cold_path.share", "ratio", "lower",
     "ops_per_s on cluster-cold (codegen + certification + synthesis)"),
    ("gpu_kernels.fused.kernel.calls", "count", "lower",
     "ops_per_s on serve-warm"),
    ("gpu_kernels.fused.kernel.self_s", "s", "lower",
     "ops_per_s on serve-warm"),
    ("ocl.executor.launch_batched.calls", "count", "lower",
     "ops_per_s on spmv-sweep"),
    ("ocl.executor.launch_batched.self_s", "s", "lower",
     "ops_per_s on spmv-sweep"),
    ("ocl.executor.launch_batched.share", "ratio", "lower",
     "ops_per_s on spmv-sweep"),
    ("ocl.trace.dram_bytes_per_nnz", "B", "lower",
     "sim_gflops_geomean on spmv-sweep"),
    ("serve.engine.run.self_s", "s", "lower",
     "ops_per_s and sim_throughput_rps on serve-warm"),
    ("serve.batch.count", "count", "lower",
     "ops_per_s and sim_throughput_rps on serve-warm"),
    ("serve.batch.mean_size", "count", "higher",
     "ops_per_s and sim_throughput_rps on serve-warm"),
    ("cluster.engine.submit.self_s", "s", "lower",
     "ops_per_s on cluster-cold"),
    ("cluster.engine.run.self_s", "s", "lower", "ops_per_s on cluster-cold"),
    ("cluster.hedges", "count", "lower", "sim_p99_us on cluster-cold"),
    ("cluster.hedge_win_ratio", "ratio", "higher",
     "sim_p99_us on cluster-cold"),
    ("cluster.failovers", "count", "lower", "sim_p99_us on cluster-cold"),
    ("cluster.value_fanouts", "count", "lower",
     "sim_p99_us on cluster-cold"),
    ("cluster.halo_bytes", "B", "lower", "sim_p99_us on cluster-cold"),
    ("cluster.cert_cross_device_reuses", "count", "higher",
     "sim_p99_us on cluster-cold"),
    ("perf.costmodel.predict_gpu_time.self_s", "s", "lower",
     "ops_per_s on every workload"),
    ("trace.overhead_frac", "ratio", "lower",
     "nothing: the cost of tracing itself, traced over untraced wall"),
)


def _wrap(layer: str, fn):
    from repro.obs import recorder

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        sess = recorder.ACTIVE
        if sess is None:
            return fn(*args, **kwargs)
        with sess.span(layer, "layer"):
            return fn(*args, **kwargs)

    return wrapper


def _install(undo: List[Tuple[object, str, object]]) -> None:
    """Patch every entry point, appending the (owner, attribute,
    original) record that undoes each patch as it is made."""
    for name in BINDERS:
        importlib.import_module(name)
    for layer, module, attr in FUNCTIONS:
        original = getattr(importlib.import_module(module), attr)
        wrapper = _wrap(layer, original)
        for modname, mod in list(sys.modules.items()):
            if (modname.split(".")[0] == "repro" and mod is not None
                    and getattr(mod, attr, None) is original):
                undo.append((mod, attr, original))
                setattr(mod, attr, wrapper)
    for layer, module, cls_name, attr in METHODS:
        cls = getattr(importlib.import_module(module), cls_name)
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            patched = classmethod(_wrap(layer, raw.__func__))
        else:
            patched = _wrap(layer, raw)
        undo.append((cls, attr, raw))
        setattr(cls, attr, patched)


@contextlib.contextmanager
def traced(name: str) -> Iterator[object]:
    """Record spans for the enclosed code with every entry point
    wrapped; the wrappers are removed on exit."""
    from repro import obs

    undo: List[Tuple[object, str, object]] = []
    try:
        _install(undo)
        with obs.observe(name) as session:
            yield session
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)


def layer_of(span) -> str:
    if span.category == "layer":
        return span.name
    if span.category == "kernel":
        return KERNEL_LAYERS.get(span.attrs.get("executor"), "")
    if span.name == SERVE_RUN_SPAN:
        return "serve.engine.run"
    return ""


def self_times(spans) -> Dict[str, Tuple[int, float]]:
    """layer -> (calls, self seconds): each span's duration minus the
    durations of its direct children, summed per layer."""
    covered: Dict[int, float] = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            covered[s.parent] += max(s.duration, 0.0)
    out: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0])
    for s in spans:
        layer = layer_of(s)
        if layer:
            out[layer][0] += 1
            out[layer][1] += max(s.duration, 0.0) - covered[s.id]
    return {k: (int(v[0]), float(v[1])) for k, v in out.items()}


def dram_bytes(spans, transaction_bytes: int) -> int:
    """Computed DRAM bytes moved by every traced kernel launch."""
    total = 0
    for s in spans:
        trace = s.attrs.get("trace") if s.category == "kernel" else None
        if trace:
            total += (trace["global_load_transactions"]
                      + trace["global_store_transactions"])
    return total * transaction_bytes


def merge_counters(counters) -> Dict:
    """Sum the counters of several passes (histograms key by key)."""
    from workloads import merge_histograms

    total: Dict = {}
    for c in counters:
        for k, v in c.items():
            total[k] = (merge_histograms([total.get(k, {}), v])
                        if isinstance(v, dict) else total.get(k, 0) + v)
    return total


def layer_metrics(spans, counters: Dict, wall_s: float, ops: int,
                  untraced_wall_s: float) -> Dict[str, float]:
    """Every :data:`PER_LAYER` metric of one traced pass."""
    from repro.ocl.device import TESLA_C2050

    st = self_times(spans)

    def calls(layer):
        return float(st.get(layer, (0, 0.0))[0])

    def self_s(layer):
        return st.get(layer, (0, 0.0))[1]

    m: Dict[str, float] = {}
    for layer in ("core.serialize.fingerprints", "core.crsd.from_coo",
                  "codegen.generate_python_kernel",
                  "gpu_kernels.fused.certify_plan",
                  "gpu_kernels.fused.synthesize_trace",
                  "analyze.sharding.certify_shard_plan",
                  "gpu_kernels.fused.kernel",
                  "ocl.executor.launch_batched"):
        m[f"{layer}.calls"] = calls(layer)
        m[f"{layer}.self_s"] = self_s(layer)
    for layer in ("serve.cache.entry", "serve.cache.runner_for",
                  "codegen.validate_python_source", "serve.engine.run",
                  "cluster.engine.submit", "cluster.engine.run",
                  "perf.costmodel.predict_gpu_time"):
        m[f"{layer}.self_s"] = self_s(layer)
    m["core.serialize.fingerprints.share"] = \
        self_s("core.serialize.fingerprints") / wall_s
    m["ocl.executor.launch_batched.share"] = \
        self_s("ocl.executor.launch_batched") / wall_s
    m["ledger.cold_path.share"] = sum(self_s(x) for x in COLD_PATH) / wall_s

    lookups = counters.get("cache_hits", 0) + counters.get("cache_misses", 0)
    m["serve.cache.hit_ratio"] = (counters.get("cache_hits", 0) / lookups
                                  if lookups else 0.0)
    m["serve.cache.pattern_reuses"] = float(
        counters.get("cache_pattern_reuses", 0))

    # host seconds per SpMV: the sweep times its SpMVs; a served
    # request is one SpMV (or one column of a batched SpMM)
    if counters.get("spmvs"):
        per_spmv = counters["spmv_wall_s"] / counters["spmvs"]
    else:
        per_spmv = wall_s / max(ops, 1)
    m["codegen.break_even_spmvs"] = \
        sum(self_s(x) for x in CODEGEN) / per_spmv

    nnz = counters.get("nnz", 0.0)
    m["ocl.trace.dram_bytes_per_nnz"] = (
        dram_bytes(spans, TESLA_C2050.transaction_bytes) / nnz
        if nnz else 0.0)

    hist = counters.get("batch_histogram", {})
    launches = sum(hist.values())
    m["serve.batch.count"] = float(launches)
    m["serve.batch.mean_size"] = (
        sum(int(k) * v for k, v in hist.items()) / launches
        if launches else 0.0)

    for key in ("hedges", "failovers", "value_fanouts", "halo_bytes",
                "cert_cross_device_reuses"):
        m[f"cluster.{key}"] = float(counters.get(key, 0))
    hedges = counters.get("hedges", 0)
    m["cluster.hedge_win_ratio"] = (counters.get("hedge_wins", 0) / hedges
                                    if hedges else 0.0)
    m["trace.overhead_frac"] = (wall_s - untraced_wall_s) / untraced_wall_s
    return m


def ranked_shares(spans, wall_s: float) -> List[Tuple[str, float]]:
    """Layers by self-time share of the traced wall, largest first."""
    st = self_times(spans)
    return sorted(((k, v[1] / wall_s) for k, v in st.items()),
                  key=lambda kv: -kv[1])
