"""Differential tests: certified shard-by-shard execution vs. the
unsharded engines.

A certified :class:`~repro.shard.plan.ShardPlan` must execute through
:class:`~repro.shard.executor.ShardedSpMV` *bit-identical* to the
unsharded run (``np.array_equal``, not allclose) — that is the whole
point of the provers.  These tests hold every suite matrix to that bar
across shard counts {2, 4, 8} and both precisions, check the six
work-invariant trace counters are conserved across the shard split,
and cover the edge shapes (scatter-only, all-zero, rectangular) plus
the three executor modes.
"""

import numpy as np
import pytest

from repro.analyze.sharding import INVARIANT_COUNTERS, certify_shard_plan
from repro.core.crsd import CRSDMatrix
from repro.formats.coo import COOMatrix
from repro.gpu_kernels.crsd_runner import CrsdSpMV
from repro.matrices.suite23 import SUITE
from repro.shard.executor import ShardedSpMV
from repro.shard.plan import ShardPlanError, ShardPlanner
from tests.conftest import random_diagonal_matrix
from tests.gpu_kernels.test_executor_modes import rectangular_coo
from tests.gpu_kernels.test_fused_executor import suite_crsd

SHARD_COUNTS = (2, 4, 8)


def assert_conserved(sharded_trace, whole_trace):
    """The six work-invariant counters survive the shard split exactly."""
    for counter in INVARIANT_COUNTERS:
        assert getattr(sharded_trace, counter) == \
            getattr(whole_trace, counter), counter


def certified(crsd, num_shards, coo=None, **kwargs):
    plan = ShardPlanner(crsd, coo=coo).plan(num_shards)
    cert = certify_shard_plan(crsd, plan, **kwargs)
    assert cert.ok, cert.reasons
    return cert


class TestDifferentialSuite23:
    """Sharded and unsharded agree bit-for-bit across the full bench
    suite, for every shard count, in both precisions (the CI
    ``shard-smoke`` gate runs a subset of this class)."""

    @pytest.mark.parametrize("precision", ["double", "single"])
    @pytest.mark.parametrize(
        "spec", SUITE, ids=lambda s: f"{s.number:02d}-{s.name}")
    def test_suite_matrix(self, spec, precision, monkeypatch):
        monkeypatch.setenv("REPRO_EXECUTOR", "batched")
        coo, crsd, dev = suite_crsd(spec)
        x = np.random.default_rng(17).standard_normal(coo.ncols)
        whole = CrsdSpMV(crsd, device=dev, precision=precision).run(x)
        for n in SHARD_COUNTS:
            cert = certified(crsd, n, coo=coo, device=dev,
                             precision=precision)
            run = ShardedSpMV(crsd, cert, device=dev,
                              precision=precision).run(x)
            assert np.array_equal(run.y, whole.y), (spec.name, n)
            assert_conserved(run.trace, whole.trace)


class TestExecutorModes:
    """All three engines agree through the sharded runner, and with
    the unsharded oracle."""

    @pytest.mark.parametrize("mode", ["pergroup", "batched", "fused"])
    def test_mode_matches_unsharded(self, mode, rng, monkeypatch):
        coo = random_diagonal_matrix(rng, n=200, density=0.7, scatter=4)
        crsd = CRSDMatrix.from_coo(coo, mrows=32)
        x = rng.standard_normal(200)
        monkeypatch.setenv("REPRO_EXECUTOR", "batched")
        whole = CrsdSpMV(crsd).run(x)
        cert = certified(crsd, 4, coo=coo)
        monkeypatch.setenv("REPRO_EXECUTOR", mode)
        run = ShardedSpMV(crsd, cert).run(x)
        assert np.array_equal(run.y, whole.y)
        assert_conserved(run.trace, whole.trace)
        assert np.allclose(run.y, coo.todense() @ x)

    def test_repeated_runs_are_stable(self, rng, monkeypatch):
        monkeypatch.setenv("REPRO_EXECUTOR", "batched")
        coo = random_diagonal_matrix(rng, n=128)
        crsd = CRSDMatrix.from_coo(coo, mrows=32)
        cert = certified(crsd, 2, coo=coo)
        runner = ShardedSpMV(crsd, cert)
        x = rng.standard_normal(128)
        a, b = runner.run(x), runner.run(x)
        assert np.array_equal(a.y, b.y)
        for counter in INVARIANT_COUNTERS:
            assert getattr(a.trace, counter) == getattr(b.trace, counter)


class TestFusedShards:
    """Certified shards fuse: later shards address the parent slab at a
    nonzero ``slab_base`` and the fused provers bound them by that
    slab, so no shard falls back to the batched engine."""

    def _case(self, rng):
        coo = random_diagonal_matrix(rng, n=200, density=0.7, scatter=4)
        crsd = CRSDMatrix.from_coo(coo, mrows=32)
        return coo, crsd, certified(crsd, 4, coo=coo)

    def test_every_nonempty_shard_runs_fused(self, rng, monkeypatch):
        import repro.shard.executor as executor

        coo, crsd, cert = self._case(rng)
        x = rng.standard_normal(200)
        monkeypatch.setenv("REPRO_EXECUTOR", "batched")
        whole = CrsdSpMV(crsd).run(x)
        batched = ShardedSpMV(crsd, cert).run(x)
        nonempty = [i for i, sp in enumerate(cert.subplans)
                    if sp.num_groups or sp.scatter.num_rows]
        assert len(nonempty) == 4
        assert any(r.slab_base > 0
                   for sp in cert.subplans[1:] for r in sp.regions)
        assert all(cert.fused_states[i] is not None for i in nonempty)

        launches = []

        def spy(real):
            def wrapper(kernel, *args, **kwargs):
                launches.append(kernel)
                return real(kernel, *args, **kwargs)
            return wrapper

        monkeypatch.setattr(executor, "launch_batched",
                            spy(executor.launch_batched))
        monkeypatch.setattr(executor, "launch", spy(executor.launch))
        monkeypatch.setenv("REPRO_EXECUTOR", "fused")
        run = ShardedSpMV(crsd, cert).run(x)
        assert launches == []
        assert np.array_equal(run.y, whole.y)
        assert_conserved(run.trace, whole.trace)
        assert run.trace == batched.trace

    def test_runners_share_the_certificates_artifacts(self, rng,
                                                      monkeypatch):
        """Codelets are compiled once per (certificate, shard) and every
        runner of the certificate gets the same objects."""
        import repro.analyze.sharding as sharding

        coo, crsd, cert = self._case(rng)
        calls = []
        real = sharding.generate_python_kernel
        monkeypatch.setattr(sharding, "generate_python_kernel",
                            lambda plan: calls.append(plan) or real(plan))
        a = ShardedSpMV(crsd, cert)
        b = ShardedSpMV(crsd, cert, shards=(1, 2))
        assert len(calls) == 4
        assert b.kernels[1] is a.kernels[1]
        assert b.kernels[2] is a.kernels[2]
        assert b.kernels[0] is None and b.kernels[3] is None


class TestEdgeShapes:
    def test_scatter_only_matrix(self, rng, monkeypatch):
        monkeypatch.setenv("REPRO_EXECUTOR", "batched")
        n = 40
        rows = rng.integers(0, n, size=12)
        cols = rng.integers(0, n, size=12)
        vals = rng.standard_normal(12)
        coo = COOMatrix(rows, cols, vals, (n, n))
        crsd = CRSDMatrix.from_coo(coo, mrows=8, wavefront_size=8,
                                   idle_fill_max_rows=1)
        x = rng.standard_normal(n)
        whole = CrsdSpMV(crsd, local_size=8).run(x)
        cert = certified(crsd, 2, coo=coo)
        run = ShardedSpMV(crsd, cert, local_size=8).run(x)
        assert np.array_equal(run.y, whole.y)
        assert_conserved(run.trace, whole.trace)

    def test_all_zero_matrix(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXECUTOR", "batched")
        coo = COOMatrix.empty((64, 64))
        crsd = CRSDMatrix.from_coo(coo, mrows=16, wavefront_size=16)
        cert = certified(crsd, 4, coo=coo)
        x = np.random.default_rng(3).standard_normal(64)
        run = ShardedSpMV(crsd, cert, local_size=16).run(x)
        assert np.array_equal(run.y, np.zeros(64))

    def test_rectangular_matrix(self, rng, monkeypatch):
        monkeypatch.setenv("REPRO_EXECUTOR", "batched")
        coo = rectangular_coo(96, 160, (-7, 0, 3, 40), rng)
        crsd = CRSDMatrix.from_coo(coo, mrows=32)
        x = rng.standard_normal(160)
        whole = CrsdSpMV(crsd).run(x)
        cert = certified(crsd, 2, coo=coo)
        run = ShardedSpMV(crsd, cert).run(x)
        assert np.array_equal(run.y, whole.y)
        assert_conserved(run.trace, whole.trace)


class TestRefusal:
    def test_uncertified_plan_is_refused(self, rng):
        coo = random_diagonal_matrix(rng, n=128)
        crsd = CRSDMatrix.from_coo(coo, mrows=32)
        # alignment=16 boundaries are wavefront-aligned but can cut a
        # 32-row segment: the disjointness prover declines the plan
        plan = ShardPlanner(crsd, coo=coo, alignment=16).plan(
            2, boundaries=[112])
        cert = certify_shard_plan(crsd, plan)
        assert not cert.ok
        with pytest.raises(ShardPlanError, match="uncertified"):
            ShardedSpMV(crsd, cert)

    def test_executed_trace_matches_certificate_prediction(
            self, rng, monkeypatch):
        """The executed global-memory traffic equals the sum of the
        certificate's per-shard trace predictions, counter for
        counter — the certificate is exact, not a bound."""
        monkeypatch.setenv("REPRO_EXECUTOR", "batched")
        coo = random_diagonal_matrix(rng, n=256, density=0.8, scatter=6)
        crsd = CRSDMatrix.from_coo(coo, mrows=32)
        cert = certified(crsd, 4, coo=coo)
        run = ShardedSpMV(crsd, cert).run(rng.standard_normal(256))
        predicted = {"global_load_transactions": 0, "l2_hits": 0,
                     "flops": 0, "barriers": 0}
        for tr in cert.per_shard_traces:
            if tr is None:
                continue
            for counter in predicted:
                predicted[counter] += getattr(tr, counter)
        for counter, value in predicted.items():
            assert getattr(run.trace, counter) == value, counter
