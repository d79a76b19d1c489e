"""Fused shard launches are recorded like every other kernel launch."""

import dataclasses

import numpy as np

import repro
from repro.analyze.sharding import certify_shard_plan
from repro.core.crsd import CRSDMatrix
from repro.gpu_kernels.fused import FUSED_KERNEL_NAME
from repro.ocl.trace import KernelTrace
from repro.shard.executor import ShardedSpMV
from repro.shard.plan import ShardPlanner
from tests.conftest import random_diagonal_matrix


def _runner(rng):
    coo = random_diagonal_matrix(rng, n=200, density=0.7, scatter=4)
    crsd = CRSDMatrix.from_coo(coo, mrows=32)
    cert = certify_shard_plan(crsd, ShardPlanner(crsd, coo=coo).plan(4))
    assert cert.ok, cert.reasons
    runner = ShardedSpMV(crsd, cert)
    runner.prepare()
    return runner, cert


def test_traced_fused_run_records_one_kernel_per_shard(rng, monkeypatch):
    monkeypatch.setenv("REPRO_EXECUTOR", "fused")
    runner, cert = _runner(rng)
    nonempty = [i for i, sp in enumerate(cert.subplans)
                if sp.num_groups or sp.scatter.num_rows]
    with repro.observe() as sess:
        run = runner.run(rng.standard_normal(200), trace=True)
    kernels = [s for s in sess.spans if s.category == "kernel"]
    assert [s.attrs["shard"] for s in kernels] == nonempty
    total = KernelTrace()
    for span in kernels:
        state = cert.fused_states[span.attrs["shard"]]
        assert span.name == FUSED_KERNEL_NAME
        assert span.attrs["executor"] == "fused"
        assert span.attrs["work_groups"] == state.work_groups
        assert span.attrs["local_size"] == 32
        total.merge(KernelTrace(**span.attrs["trace"]))
    assert dataclasses.asdict(total) == dataclasses.asdict(run.trace)


def test_untraced_fused_run_records_no_trace(rng, monkeypatch):
    monkeypatch.setenv("REPRO_EXECUTOR", "fused")
    runner, _ = _runner(rng)
    with repro.observe() as sess:
        run = runner.run(rng.standard_normal(200), trace=False)
    kernels = [s for s in sess.spans if s.category == "kernel"]
    assert kernels and all("trace" not in s.attrs for s in kernels)
    assert np.isfinite(run.y).all()
