"""The benchmark's three workloads.

Each workload builds its inputs from the seed with the suite
generators (``setup``), runs one measured pass (``measure``) and checks
every output outside the timed region.  A pass returns a
:class:`Pass`: host wall time, operations attempted and failed, the
folded ``y`` checksum, the simulated-time metrics (pure functions of the
seed) and the counters the per-layer ledger needs.

- ``serve-warm``: one :class:`~repro.serve.engine.ServeEngine` over a
  warmed :class:`~repro.serve.cache.PlanCache`; steady-state serving.
- ``cluster-cold``: a 4-device replicated, hedged cluster with empty
  caches and a seeded chaos schedule; the cold path.
- ``spmv-sweep``: the paper's 23-matrix sweep (CRSD build, prepare,
  SpMVs) on the batched engine.

The executor each workload runs under is pinned in :data:`EXECUTOR`;
the child process sets it before importing :mod:`repro`.
"""

from __future__ import annotations

import hashlib
import math
import sys
import traceback
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

#: simulated execution engine per workload (``REPRO_EXECUTOR``)
EXECUTOR = {"serve-warm": "fused", "cluster-cold": "fused",
            "spmv-sweep": "batched"}

SCALE = 0.05
RATE_RPS = 4e5
PRECISION = "double"
MROWS = 128
#: served and swept ``y`` must match ``COOMatrix.matvec`` to this
#: relative tolerance (double precision)
RTOL = 1e-8
#: large enough that admission never refuses a request
QUEUE_BOUND = 1_000_000

#: serve-warm: traces per pass x requests per trace
WARM_TRACES = 8
WARM_REQUESTS = 64
#: cluster-cold: requests per repetition; a run pools the traces of
#: COLD_REPS repetitions, because one cold cluster per process is all a
#: repetition may serve and one trace's median latency swings with the
#: order requests meet the chaos schedule
COLD_REQUESTS = 96
COLD_REPS = 3
COLD_DEVICES = 4
COLD_TENANTS = 4
COLD_REPLICAS = 2
#: ecology2 (49952 rows), s80_80_50 (15138) and Lin (13275) split
SPLIT_ROWS = 12000
#: which devices straggle, die and flap: fixed, because the layout
#: decides how much cold work failover re-does (a 4-way switch that
#: moved host time by a quarter between seeds); the run's seed drives
#: values, arrivals and vectors
CHAOS_SEED = 0
#: suite-generator seed of the serving workloads' sparsity patterns
PATTERN_SEED = 0
SWEEP_SPMVS = 3


@dataclass
class Pass:
    """The outcome of one measured pass."""

    wall_s: float
    attempted: int
    failed: int
    checksum: str
    sim: Dict[str, float]
    #: per-rid ``sha256(y)`` digests of the served/swept vectors
    digests: Dict[int, bytes] = field(default_factory=dict)
    #: counters for the per-layer ledger (cache deltas, cluster stats,
    #: nonzeros processed, SpMV host time)
    counters: Dict[str, float] = field(default_factory=dict)
    #: the served trace's :func:`sim_parts`, pooled across repetitions
    #: by workloads whose repetitions serve different traces
    sim_parts: Optional[Dict[str, Any]] = None


# ----------------------------------------------------------------------
# shared helpers
# ----------------------------------------------------------------------
def digest(y) -> bytes:
    return hashlib.sha256(np.ascontiguousarray(y).tobytes()).digest()


def fold(digests: Dict[int, bytes]) -> str:
    """Fold per-operation digests in id order, as the serving reports
    do (``repro.serve.loadgen``)."""
    h = hashlib.sha256()
    for rid in sorted(digests):
        h.update(digests[rid])
    return h.hexdigest()[:16]


def close_enough(y, ref) -> bool:
    """``y`` matches the reference within :data:`RTOL`, relative to
    the reference's magnitude (floored at 1)."""
    y = np.asarray(y)
    if y.shape != ref.shape or not np.all(np.isfinite(y)):
        return False
    scale = max(1.0, float(np.abs(ref).max())) if ref.size else 1.0
    return float(np.abs(y - ref).max(initial=0.0)) <= RTOL * scale


def nearest_rank(sorted_values: Sequence[float], p: float) -> float:
    n = len(sorted_values)
    return sorted_values[min(n, max(1, math.ceil(p / 100.0 * n))) - 1]


def geomean(values: Sequence[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def suite_specs(names: Sequence[str]):
    from repro.matrices.suite23 import SUITE

    by_name = {s.name: s for s in SUITE}
    return [by_name[n] for n in names]


def rescaled(coo, rng: np.random.Generator):
    """``coo``'s pattern with every value scaled by a factor in
    [0.5, 1.5] (never zeroing a nonzero)."""
    from repro.formats.coo import COOMatrix

    factors = rng.uniform(0.5, 1.5, size=coo.vals.size)
    return COOMatrix(coo.rows, coo.cols, coo.vals * factors,
                     (coo.nrows, coo.ncols))


def serving_population(names: Sequence[str], seed: int, tenants: int = 1):
    """The serving workloads' matrices, spec-major, ``tenants`` value
    variants each.

    Patterns come from the suite generators at :data:`PATTERN_SEED`;
    the run's seed draws every value.  A few generators (wang3,
    nemeth22) draw their pattern from the seed too, which moved the
    prepared plans' resident memory by a tenth between seeds; the
    serving layers care about patterns only through the plan cache.
    """
    population = []
    for spec in suite_specs(names):
        base = spec.generate(scale=SCALE, seed=PATTERN_SEED)
        for t in range(tenants):
            population.append(rescaled(
                base, np.random.default_rng([seed, spec.number, t])))
    return population


def poisson_trace(rng: np.random.Generator, n: int, population: int):
    """Open-loop Poisson arrivals at :data:`RATE_RPS`, conditioned on
    ``n`` arrivals in ``n / RATE_RPS`` seconds (sorted uniform instants),
    so the offered rate itself does not swing with the seed.  Each run
    of ``population`` consecutive requests picks every matrix once, in a
    seeded order, so neither does the offered work or its mix."""
    arrivals = np.sort(rng.uniform(0.0, n / RATE_RPS, size=n))
    blocks = -(-n // population)
    picks = np.concatenate([rng.permutation(population)
                            for _ in range(blocks)])[:n]
    return arrivals, picks


def check_served(results, submitted: int, refs: Optional[List] = None,
                 expected: Optional[Dict[int, bytes]] = None,
                 base: int = 0):
    """Count failed requests and collect served digests.

    A request fails when it was refused, shed or expired, never
    returned, returned a ``y`` that differs from ``refs[rid]`` (when
    given) or a digest that differs from ``expected[base + rid]`` (when
    given).  Returns ``(failed, digests)``, digests keyed by
    ``base + rid``.
    """
    digests: Dict[int, bytes] = {}
    failed = 0
    seen = set()
    for r in results:
        rid = r.request_id
        if rid in seen or not 0 <= rid < submitted:
            failed += 1
            continue
        seen.add(rid)
        if not r.served:
            failed += 1
            continue
        d = r.y_digest if r.y is None else digest(r.y)
        if d is None:
            failed += 1
            continue
        if refs is not None and (r.y is None
                                 or not close_enough(r.y, refs[rid])):
            failed += 1
            continue
        if expected is not None and expected.get(base + rid) != d:
            failed += 1
            continue
        digests[base + rid] = d
    failed += submitted - len(seen)
    return failed, digests


def merge_histograms(histograms) -> Dict[str, int]:
    """Sum batch-size histograms key by key."""
    total: Dict[str, int] = {}
    for hist in histograms:
        for size, count in hist.items():
            total[size] = total.get(size, 0) + count
    return total


def sim_parts(results, nnz_of: Sequence[int]) -> Dict[str, Any]:
    """What the simulated-time metrics need from one served trace:
    served latencies, the makespan (first arrival to last finish) and
    the useful flops served."""
    served = [r for r in results if r.served]
    if not served:
        return {"latencies": [], "makespan_s": 0.0, "flops": 0.0}
    return {
        "latencies": [r.latency_s for r in served],
        "makespan_s": (max(r.finish_s for r in served)
                       - min(r.arrival_s for r in results)),
        "flops": sum(2.0 * nnz_of[r.request_id] for r in served),
    }


def serving_sim(parts: Sequence[Dict[str, Any]]) -> Dict[str, float]:
    """Simulated-time metrics pooled over served traces.

    Latency percentiles (nearest rank) over every served request;
    throughput and GFLOPS are served requests and useful flops over the
    summed makespans.  GFLOPS is one value per pooled set, so it is its
    own geometric mean.
    """
    lat = sorted(v for p in parts for v in p["latencies"])
    span = sum(p["makespan_s"] for p in parts)
    if not lat or span <= 0:
        return {"sim_p50_us": 0.0, "sim_p99_us": 0.0,
                "sim_throughput_rps": 0.0, "sim_gflops_geomean": 0.0}
    return {
        "sim_p50_us": nearest_rank(lat, 50) * 1e6,
        "sim_p99_us": nearest_rank(lat, 99) * 1e6,
        "sim_throughput_rps": len(lat) / span,
        "sim_gflops_geomean": sum(p["flops"] for p in parts) / span / 1e9,
    }


@dataclass
class Trace:
    """One seeded open-loop request trace over a matrix population."""

    arrivals: np.ndarray
    picks: np.ndarray
    xs: List[np.ndarray]
    nnz_of: List[int]

    @classmethod
    def generate(cls, rng: np.random.Generator, n: int, matrices):
        arrivals, picks = poisson_trace(rng, n, len(matrices))
        xs = [rng.standard_normal(matrices[j].ncols) for j in picks]
        return cls(arrivals, picks, xs, [matrices[j].nnz for j in picks])

    def submit(self, engine, matrices) -> None:
        for at, j, x in zip(self.arrivals, self.picks, self.xs):
            engine.submit(matrices[j], x, at=float(at))

    def references(self, matrices) -> List[np.ndarray]:
        return [matrices[j].matvec(x) for j, x in zip(self.picks, self.xs)]


def _report_exception(where: str) -> None:
    print(f"perfbench: {where} raised:", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


def _cache_counts(stats: Dict[str, Any]) -> Dict[str, float]:
    return {"cache_hits": stats["hits"], "cache_misses": stats["misses"],
            "cache_pattern_reuses": stats["pattern_reuses"]}


# ----------------------------------------------------------------------
# serve-warm
# ----------------------------------------------------------------------
class ServeWarm:
    """Steady-state serving: every plan is cached before timing.

    A pass serves :data:`WARM_TRACES` independent traces, each on a
    fresh engine over the shared warm cache; latencies pool across
    them.  One short overloaded trace's percentiles hinge on the order
    in which batches happen to form; pooled, they hold still from seed
    to seed.
    """

    name = "serve-warm"
    #: timed passes can repeat in one process (the cache stays warm)
    repeatable = True
    pooled_reps = 0

    def __init__(self, seed: int, requests: int = WARM_REQUESTS,
                 traces: int = WARM_TRACES,
                 matrices: Optional[Sequence[str]] = None):
        self.seed = int(seed)
        self.requests = int(requests)
        self.num_traces = int(traces)
        self.matrix_names = matrices

    def setup(self) -> None:
        """Generate the inputs, then warm the plan cache by serving the
        traces once; that pass is the verified reference."""
        from repro.serve import PlanCache
        from repro.serve.loadgen import DEFAULT_MATRICES

        self.matrices = serving_population(
            self.matrix_names or DEFAULT_MATRICES, self.seed)
        rng = np.random.default_rng([self.seed, 1])
        self.traces = [Trace.generate(rng, self.requests, self.matrices)
                       for _ in range(self.num_traces)]
        self.cache = PlanCache()
        self.reference = self._pass(keep_y=True, verify=True)

    def _engine(self, keep_y):
        import repro

        return repro.serve_session(
            precision=PRECISION, mrows=MROWS, cache=self.cache,
            max_queue_depth=QUEUE_BOUND, size_scale=SCALE, keep_y=keep_y)

    def _pass(self, keep_y, verify: bool) -> Pass:
        """Serve every trace on a fresh engine; each trace's outputs are
        checked right after it (outside the timed region), so only one
        trace's vectors are held at a time."""
        n = self.requests
        before = self.cache.stats.to_dict()
        wall = 0.0
        failed = 0
        digests: Dict[int, bytes] = {}
        parts = []
        histograms = []
        for t, trace in enumerate(self.traces):
            try:
                engine = self._engine(keep_y)
                t0 = perf_counter()
                trace.submit(engine, self.matrices)
                results = engine.run()
                wall += perf_counter() - t0
            except Exception:
                _report_exception(f"{self.name} trace {t}")
                failed += n
                continue
            bad, got = check_served(
                results, n,
                refs=trace.references(self.matrices) if verify else None,
                expected=None if verify else self.reference.digests,
                base=t * n)
            failed += bad
            digests.update(got)
            parts.append(sim_parts(results, trace.nnz_of))
            histograms.append(engine.stats()["batching"]["histogram"])
        # the cache outlives the pass: report this pass's lookups only
        after = self.cache.stats.to_dict()
        delta = {k: after[k] - before[k] for k in before}
        counters = {
            **_cache_counts(delta),
            "nnz": float(sum(sum(t.nnz_of) for t in self.traces)),
            "batch_histogram": merge_histograms(histograms),
        }
        return Pass(wall_s=wall, attempted=n * self.num_traces,
                    failed=failed, checksum=fold(digests),
                    sim=serving_sim(parts), digests=digests,
                    counters=counters)

    def measure(self) -> Pass:
        """One timed pass over the warm cache (digest-only ``y``, each
        checked against the verified reference pass)."""
        return self._pass(keep_y="digest", verify=False)


# ----------------------------------------------------------------------
# cluster-cold
# ----------------------------------------------------------------------
class ClusterCold:
    """The cold path: empty caches on a replicated, hedged cluster
    under the standard kill + straggler + flap schedule (fixed layout,
    see :data:`CHAOS_SEED`)."""

    name = "cluster-cold"
    repeatable = False
    #: a run makes exactly this many repetitions, each a fresh process
    #: serving its own trace; the simulated metrics pool their traces
    pooled_reps = COLD_REPS

    def __init__(self, seed: int, requests: int = COLD_REQUESTS,
                 matrices: Optional[Sequence[str]] = None,
                 tenants: int = COLD_TENANTS, rep: int = 0):
        self.seed = int(seed)
        self.rep = int(rep)
        self.requests = int(requests)
        self.matrix_names = matrices
        self.tenants = int(tenants)

    def setup(self) -> None:
        """Generate the tenant population and the trace, build the
        cluster and schedule the chaos actions."""
        import repro
        from repro.cluster import HedgePolicy
        from repro.resilience.chaos import default_cluster_schedule
        from repro.serve.loadgen import DEFAULT_MATRICES

        # same pattern, new values: the value-variant tenants
        self.matrices = serving_population(
            self.matrix_names or DEFAULT_MATRICES, self.seed, self.tenants)
        # each repetition serves its own trace over the same population
        rng = np.random.default_rng([self.seed, 2, self.rep])
        self.trace = Trace.generate(rng, self.requests, self.matrices)
        self.engine = repro.serve_session(
            cluster=COLD_DEVICES, precision=PRECISION, mrows=MROWS,
            replicas=COLD_REPLICAS, hedge=HedgePolicy(),
            split_threshold_rows=SPLIT_ROWS, max_queue_depth=QUEUE_BOUND,
            size_scale=SCALE, keep_y=True)
        default_cluster_schedule(COLD_DEVICES, seed=CHAOS_SEED).apply(
            self.engine)

    def measure(self) -> Pass:
        """The one cold pass this process can make; every served ``y``
        is checked against the COO reference after timing."""
        n = self.requests
        engine = self.engine
        try:
            t0 = perf_counter()
            self.trace.submit(engine, self.matrices)
            results = engine.run()
            wall = perf_counter() - t0
        except Exception:
            _report_exception(f"{self.name} pass")
            return Pass(wall_s=0.0, attempted=n, failed=n, checksum="",
                        sim={})
        failed, digests = check_served(
            results, n, refs=self.trace.references(self.matrices))
        stats = engine.stats()
        cl = stats["cluster"]
        res = cl["resilience"]
        # a hedge loser whose digest disagrees with the winner is a
        # wrong answer the cluster caught; count it as a failure
        failed += res["hedge_divergences"]
        counters = {
            **_cache_counts(stats["cache"]),
            "nnz": float(sum(self.trace.nnz_of)),
            "batch_histogram": stats["batching"]["histogram"],
            "hedges": res["hedges"],
            "hedge_wins": res["hedge_wins"],
            "failovers": res["failovers"],
            "value_fanouts": res["value_fanouts"],
            "halo_bytes": cl["halo"]["total_bytes"],
            "cert_cross_device_reuses": cl["cert_store"][
                "cross_device_reuses"],
        }
        parts = sim_parts(results, self.trace.nnz_of)
        return Pass(wall_s=wall, attempted=n, failed=min(n, failed),
                    checksum=fold(digests), sim=serving_sim([parts]),
                    digests=digests, counters=counters, sim_parts=parts)


# ----------------------------------------------------------------------
# spmv-sweep
# ----------------------------------------------------------------------
class SpmvSweep:
    """The paper's sweep: every suite matrix built, prepared and run."""

    name = "spmv-sweep"
    repeatable = False
    pooled_reps = 0

    def __init__(self, seed: int, spmvs: int = SWEEP_SPMVS,
                 matrices: Optional[Sequence[str]] = None):
        self.seed = int(seed)
        self.spmvs = int(spmvs)
        self.matrix_names = matrices

    def setup(self) -> None:
        from repro.bench.runner import effective_scale, scaled_device
        from repro.matrices.suite23 import SUITE

        specs = (suite_specs(self.matrix_names) if self.matrix_names
                 else list(SUITE))
        self.inputs = []
        for spec in specs:
            scale = effective_scale(spec, SCALE)
            coo = spec.generate(scale=scale, seed=self.seed)
            rng = np.random.default_rng([self.seed, spec.number])
            xs = [rng.standard_normal(coo.ncols) for _ in range(self.spmvs)]
            self.inputs.append((spec.name, scale, coo,
                                scaled_device(scale), xs))

    def measure(self) -> Pass:
        """Build, prepare and run every matrix (all timed); the swept
        ``y`` are checked against the COO reference afterwards."""
        from repro.core.crsd import CRSDMatrix, compatible_wavefront
        from repro.gpu_kernels import CrsdSpMV
        from repro.perf.costmodel import predict_gpu_time

        outputs = []
        spmv_wall = 0.0
        t0 = perf_counter()
        for name, scale, coo, device, xs in self.inputs:
            try:
                crsd = CRSDMatrix.from_coo(
                    coo, mrows=MROWS,
                    wavefront_size=compatible_wavefront(MROWS))
                runner = CrsdSpMV(crsd, device=device, precision=PRECISION)
                runner.prepare()
                launches = 2 if crsd.num_scatter_rows else 1
                runs = []
                for x in xs:
                    t1 = perf_counter()
                    run = runner.run(x)
                    sim_s = predict_gpu_time(
                        run.trace, device, PRECISION,
                        num_launches=launches, size_scale=scale).total
                    spmv_wall += perf_counter() - t1
                    runs.append((run.y, sim_s))
            except Exception:
                _report_exception(f"{self.name} on {name}")
                runs = None
            outputs.append(runs)
        wall = perf_counter() - t0

        attempted = len(self.inputs) * self.spmvs
        failed = 0
        digests: Dict[int, bytes] = {}
        sim_times: List[float] = []
        rates: List[float] = []
        nnz = 0
        for i, ((name, _, coo, _, xs), runs) in enumerate(
                zip(self.inputs, outputs)):
            if runs is None:
                failed += len(xs)
                continue
            for k, (x, (y, sim_s)) in enumerate(zip(xs, runs)):
                if not close_enough(y, coo.matvec(x)):
                    failed += 1
                    continue
                digests[i * self.spmvs + k] = digest(y)
                sim_times.append(sim_s)
                nnz += coo.nnz
            rates.append(2.0 * coo.nnz / runs[0][1] / 1e9)
        sim_times.sort()
        sim = {
            "sim_p50_us": nearest_rank(sim_times, 50) * 1e6,
            "sim_p99_us": nearest_rank(sim_times, 99) * 1e6,
            "sim_throughput_rps": len(sim_times) / sum(sim_times),
            "sim_gflops_geomean": geomean(rates),
        } if sim_times else {}
        counters = {"nnz": float(nnz), "spmvs": float(attempted),
                    "spmv_wall_s": spmv_wall}
        return Pass(wall_s=wall, attempted=attempted, failed=failed,
                    checksum=fold(digests), sim=sim, digests=digests,
                    counters=counters)


WORKLOADS = {w.name: w for w in (ServeWarm, ClusterCold, SpmvSweep)}
