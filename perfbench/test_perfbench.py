"""Self-tests of the benchmark (``python3 -m pytest perfbench``).

They run tiny versions of the workloads in-process, so they check the
benchmark's own logic — metric names, failure accounting, determinism,
the tracing wrappers — not the program's speed.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import ledger  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

TINY = {
    "serve-warm": dict(requests=12, traces=2, matrices=("kim1", "wang3")),
    # Lin (13275 rows) crosses the split threshold
    "cluster-cold": dict(requests=8, matrices=("kim1", "Lin"), tenants=2),
    "spmv-sweep": dict(spmvs=1, matrices=("kim1", "wang3")),
}


def tiny(name, seed=5, monkeypatch=None):
    if monkeypatch is not None:
        monkeypatch.setenv("REPRO_EXECUTOR", workloads.EXECUTOR[name])
        monkeypatch.setenv("REPRO_FUSED_VERIFY", "off")
    w = workloads.WORKLOADS[name](seed, **TINY[name])
    w.setup()
    return w


def ok_frac(p):
    rep = {"attempted": p.attempted, "failed": p.failed, "setup_s": 1.0,
           "ops_per_s": 1.0, "peak_rss_mb": 1.0, "sim": p.sim}
    return run.end_to_end([rep], run.summarise(
        [{**rep, "consistent": True, "checksum": p.checksum}]))["ok_frac"]


def test_metric_names_are_well_formed_and_match_the_code():
    e2e = [m["name"] for m in SPEC["end_to_end"]]
    per_layer = [m["name"] for m in SPEC["per_layer"]]
    workloads_ = [w["name"] for w in SPEC["workloads"]]
    for name in e2e + per_layer + workloads_:
        assert NAME.fullmatch(name) and len(name) <= 64, name
    assert len(set(e2e + per_layer)) == len(e2e) + len(per_layer)
    assert e2e == list(run.END_TO_END)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} \
        == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] \
        == [p[:3] for p in ledger.PER_LAYER]
    assert workloads_ == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_same_seed_gives_identical_sim_metrics_and_checksum(
        name, monkeypatch):
    a, b = (tiny(name, monkeypatch=monkeypatch) for _ in range(2))
    pa, pb = a.measure(), b.measure()
    assert pa.failed == pb.failed == 0
    assert pa.checksum == pb.checksum
    assert pa.sim == pb.sim and all(v > 0 for v in pa.sim.values())


def test_warm_passes_repeat_the_verified_reference(monkeypatch):
    w = tiny("serve-warm", monkeypatch=monkeypatch)
    p = w.measure()
    assert w.reference.failed == p.failed == 0
    assert p.checksum == w.reference.checksum
    assert p.sim == w.reference.sim
    assert p.counters["cache_misses"] == 0


def test_injected_wrong_y_raises_failed_frac(monkeypatch):
    from repro.gpu_kernels.crsd_runner import CrsdSpMV

    clean = tiny("spmv-sweep", monkeypatch=monkeypatch).measure()
    original = CrsdSpMV.run

    def wrong(self, x, *args, **kwargs):
        result = original(self, x, *args, **kwargs)
        result.y[0] += 1.0
        return result

    monkeypatch.setattr(CrsdSpMV, "run", wrong)
    bad = tiny("spmv-sweep", monkeypatch=monkeypatch).measure()
    assert clean.failed == 0 and bad.failed == bad.attempted
    assert ok_frac(bad) < ok_frac(clean) == 1.0


def test_injected_wrong_served_y_fails_the_digest_check(monkeypatch):
    w = tiny("serve-warm", monkeypatch=monkeypatch)
    w.reference.digests[0] = b"not the served digest"
    p = w.measure()
    assert p.failed == 1
    assert ok_frac(p) < 1.0


def test_injected_refused_request_raises_failed_frac(monkeypatch):
    monkeypatch.setattr(workloads, "QUEUE_BOUND", 1)
    w = tiny("serve-warm", monkeypatch=monkeypatch)
    assert w.reference.failed > 0
    p = w.measure()
    assert p.failed > 0 and ok_frac(p) < 1.0


def test_check_served_counts_every_kind_of_failure(monkeypatch):
    w = tiny("serve-warm", monkeypatch=monkeypatch)
    engine = w._engine(keep_y=True)
    trace = w.traces[0]
    trace.submit(engine, w.matrices)
    results = engine.run()
    refs = trace.references(w.matrices)
    n = len(refs)
    assert workloads.check_served(results, n, refs=refs)[0] == 0
    results[0].y = results[0].y + 1e-3          # wrong answer
    results[1].status = "expired"               # expired request
    del results[2]                              # never returned
    assert workloads.check_served(results, n, refs=refs)[0] == 3


def test_ledger_records_layers_and_removes_its_wrappers(monkeypatch):
    import repro.core.serialize as serialize
    import repro.serve.cache as cache

    before = (serialize.fingerprints, cache.PlanCache.__dict__["entry"])
    w = tiny("cluster-cold", monkeypatch=monkeypatch)
    with ledger.traced("test") as session:
        p = w.measure()
    assert (serialize.fingerprints,
            cache.PlanCache.__dict__["entry"]) == before
    m = ledger.layer_metrics(session.spans, p.counters, p.wall_s,
                             p.attempted, p.wall_s)
    assert {name for name, *_ in ledger.PER_LAYER} == set(m)
    for layer in ("core.serialize.fingerprints",
                  "codegen.generate_python_kernel",
                  "gpu_kernels.fused.certify_plan",
                  "analyze.sharding.certify_shard_plan"):
        assert m[f"{layer}.calls"] > 0, layer
    assert m["cluster.engine.run.self_s"] > 0
    assert 0 < sum(share for _, share in
                   ledger.ranked_shares(session.spans, p.wall_s)) <= 1.0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "spmv-sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
