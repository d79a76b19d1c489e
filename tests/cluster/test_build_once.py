"""Build once: cold preparation happens once per process per pattern.

Codelets, fused states and shard certificates are pure functions of the
sparsity pattern, and a CRSD build is a pure function of the matrix and
``mrows``.  On a replicated, hedged cluster serving value-variant
tenants, every one of them must be built exactly once per distinct key
— not once per device, tenant or shard runner — while the per-device
:class:`~repro.serve.cache.CacheStats` keep counting what each device's
own cache did (they feed the simulated prepare cost).
"""

import gc
import sys
from collections import Counter

import numpy as np
import pytest

import repro.analyze.sharding as sharding
import repro.codegen.python_codelet as python_codelet
import repro.gpu_kernels.fused as fused
import repro.shard.executor  # noqa: F401  (binds the code generator)
from repro.cluster import HedgePolicy
from repro.core.crsd import CRSDMatrix
from repro.formats.coo import COOMatrix
from repro.matrices.suite23 import get_spec
from repro.serve import serve_session

SCALE = 0.01
#: three whole-matrix patterns and one split across every device
UNSPLIT = ("crystk03", "nemeth22", "wang3")
SPLIT = "Lin"
SPLIT_ROWS = 2000
DEVICES = 4
TENANTS = 4
#: per-device cache counters of this scenario before the store shared
#: anything across devices — sharing must not move them
DEVICE_CACHE_STATS = [
    {"hits": 8, "misses": 4, "evictions": 0, "pattern_reuses": 0,
     "cert_reuses": 4},
    {"hits": 8, "misses": 9, "evictions": 0, "pattern_reuses": 2,
     "cert_reuses": 0},
    {"hits": 8, "misses": 16, "evictions": 0, "pattern_reuses": 7,
     "cert_reuses": 4},
    {"hits": 8, "misses": 12, "evictions": 0, "pattern_reuses": 6,
     "cert_reuses": 4},
]


def _population():
    """TENANTS value variants of every pattern (same structure, new
    values)."""
    rng = np.random.default_rng(3)
    out = []
    for name in UNSPLIT + (SPLIT,):
        coo = get_spec(name).generate(scale=SCALE, seed=0)
        for _ in range(TENANTS):
            vals = coo.vals * rng.uniform(0.5, 2.0, coo.nnz)
            out.append(COOMatrix(coo.rows, coo.cols, vals, coo.shape))
    return out


def _serve(matrices):
    cluster = serve_session(
        cluster=DEVICES, replicas=2, hedge=HedgePolicy(queue_depth=2),
        split_threshold_rows=SPLIT_ROWS, size_scale=SCALE)
    rng = np.random.default_rng(5)
    for rep in range(2):
        for i, m in enumerate(matrices):
            cluster.submit(m, rng.standard_normal(m.ncols),
                           at=(rep * len(matrices) + i) * 1e-6)
    results = cluster.run()
    return cluster, results


@pytest.fixture
def counted(monkeypatch):
    """Count every cold build the cluster makes."""
    calls = Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    # the code generator, at every module that bound it
    original = python_codelet.generate_python_kernel
    codegen = counting("codegen", original)
    for mod in list(sys.modules.values()):
        if (getattr(mod, "__name__", "").startswith("repro.")
                and getattr(mod, "generate_python_kernel", None)
                is original):
            monkeypatch.setattr(mod, "generate_python_kernel", codegen)
    monkeypatch.setattr(fused, "certify_plan",
                        counting("certify_plan", fused.certify_plan))
    # every fused-prover run: certify_plan's and certify_shard_plan's
    monkeypatch.setattr(fused, "certify_model",
                        counting("fused_provers", fused.certify_model))
    monkeypatch.setattr(sharding, "certify_shard_plan",
                        counting("certify_shard_plan",
                                 sharding.certify_shard_plan))
    from_coo = CRSDMatrix.from_coo.__func__
    monkeypatch.setattr(CRSDMatrix, "from_coo", classmethod(
        counting("from_coo", from_coo)))
    monkeypatch.setenv("REPRO_EXECUTOR", "fused")
    return calls


def test_each_cold_artifact_built_once_per_key(counted):
    matrices = _population()
    cluster, results = _serve(matrices)
    assert all(r.served for r in results)
    stats = cluster.stats()
    assert stats["cluster"]["split_dispatches"] > 0
    assert stats["cluster"]["resilience"]["hedges"] > 0

    split = [p for p in cluster._placements.values() if p.split]
    assert len(split) == 1
    shards = split[0].cert.num_shards
    # whole-matrix runner configurations served (the batcher's SpMM
    # widths make several per pattern), across every device
    configs = {(e.pattern_fingerprint, key)
               for d in cluster.devices
               for e in d.engine.cache._entries.values()
               for key in e._runners if key[0] != "shard"}
    assert len({p for p, _ in configs}) == len(UNSPLIT)
    assert counted["certify_shard_plan"] == 1
    # one codelet set per (pattern, config), one per shard sub-plan
    assert counted["codegen"] == len(configs) + shards
    # the fused provers: as often, and never more
    assert counted["certify_plan"] == len(configs)
    assert counted["fused_provers"] == len(configs) + shards
    # one CRSD build per distinct (matrix, mrows)
    assert counted["from_coo"] == len(matrices)

    store = cluster.cert_store
    assert store.donor_adoptions > 0
    assert store.crsd_adoptions > 0
    # the report section stays what it was: certificates and reuses
    assert set(stats["cluster"]["cert_store"]) == {
        "certificates", "cross_device_reuses"}


def test_device_cache_counters_unchanged(counted):
    cluster, _ = _serve(_population())
    got = [d.engine.cache.stats.to_dict() for d in cluster.devices]
    for row in got:
        row.pop("hit_rate")
    assert got == DEVICE_CACHE_STATS


def test_store_holds_runners_and_builds_weakly():
    """Dropping every cache that held an artifact drops it from the
    store as well."""
    cluster, _ = _serve(_population()[:TENANTS])
    store = cluster.cert_store
    assert len(store._donors) and len(store._crsds)
    for d in cluster.devices:
        d.engine.cache.clear()
    del d
    gc.collect()
    assert len(store._donors) == 0
    assert len(store._crsds) == 0
