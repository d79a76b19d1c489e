"""Host-time benchmark of the CRSD reproduction: one command, every
workload, every metric.

    python3 perfbench/run.py                          # all workloads
    python3 perfbench/run.py --workload cluster-cold --seed 3 \\
        --seconds 10 --trace 0

Each repetition of a workload runs in a fresh interpreter
(``perfbench/child.py``), one after another, so a cold workload stays
cold and ``peak_rss_mb`` belongs to one workload.  Repetitions continue
until at least ``--seconds`` of measured time and at least
:data:`MIN_REPS` repetitions (``cluster-cold`` makes exactly its pooled
repetitions); time and memory metrics are medians over repetitions.
``--trace 1`` instead makes one untraced and one traced repetition and
reports the per-layer ledger.

The last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (every end-to-end metric with ``--trace 0``,
every per-layer metric with ``--trace 1``).  The lines above it print
the same metrics by name with their units, the folded ``y`` checksum,
and, when traced, the layers ranked by self-time share.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import ledger  # noqa: E402
from workloads import WORKLOADS, fold, serving_sim  # noqa: E402

#: repetitions per run, at least (``setup_s`` is their median)
MIN_REPS = 2
#: a run must end well inside three minutes
DEADLINE_S = 165.0

#: end-to-end metrics: name -> unit
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
    "sim_p50_us": "us",
    "sim_p99_us": "us",
    "sim_throughput_rps": "1/s",
    "sim_gflops_geomean": "GFLOPS",
}


class BenchError(RuntimeError):
    """A repetition died or the run cannot finish in time."""


def child_env() -> Dict[str, str]:
    """The caller's environment minus every ``REPRO_*`` knob (the child
    pins its own), with single-threaded numeric libraries."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_")}
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(workload: str, seed: int, deadline: float,
              **opts) -> Dict:
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--seed", str(seed)]
    for key, value in opts.items():
        cmd += [f"--{key.replace('_', '-')}", str(value)]
    timeout = deadline - perf_counter()
    if timeout <= 0:
        raise BenchError("out of time before a repetition could start")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(),
                              capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} repetition timed out") from exc
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(
            f"{workload} repetition exited {proc.returncode}")
    return json.loads(lines[-1])


def timed_run(workload: str, seed: int, seconds: float,
              deadline: float) -> List[Dict]:
    """Repetitions until ``seconds`` measured and :data:`MIN_REPS`; a
    workload that pools its repetitions' traces makes exactly its
    ``pooled_reps``, so its simulated metrics stay a function of the
    seed alone."""
    pooled = WORKLOADS[workload].pooled_reps
    if pooled:
        return [run_child(workload, seed, deadline, rep=i)
                for i in range(pooled)]
    reps: List[Dict] = []
    started = perf_counter()
    while len(reps) < MIN_REPS or sum(r["wall_s"] for r in reps) < seconds:
        if reps:
            per_rep = (perf_counter() - started) / len(reps)
            if perf_counter() + 1.5 * per_rep > deadline:
                if len(reps) >= MIN_REPS:
                    break
                raise BenchError("a repetition would overrun the deadline")
        reps.append(run_child(workload, seed, deadline,
                              budget=seconds / MIN_REPS))
    return reps


def summarise(reps: List[Dict], pooled: bool = False) -> Dict:
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    consistent = all(r["consistent"] for r in reps)
    if pooled:
        # each repetition served its own trace: fold their checksums
        checksum = fold({i: r["checksum"].encode()
                         for i, r in enumerate(reps)})
        sim = serving_sim([r["sim_parts"] for r in reps])
    else:
        # one seed, one answer: every repetition folds the same
        # checksum and the same simulated metrics
        checksum = reps[0]["checksum"]
        sim = reps[0]["sim"]
        consistent = (consistent
                      and len({r["checksum"] for r in reps}) == 1
                      and all(r["sim"] == sim for r in reps))
    return {"attempted": attempted, "failed": failed,
            "correct": consistent and failed == 0,
            "checksum": checksum, "sim": sim}


def end_to_end(reps: List[Dict], summary: Dict) -> Dict[str, float]:
    def med(key):
        return statistics.median(r[key] for r in reps)

    metrics = {"setup_s": med("setup_s"), "ops_per_s": med("ops_per_s"),
               "peak_rss_mb": med("peak_rss_mb"),
               "ok_frac": 1.0 - summary["failed"] / summary["attempted"]}
    metrics.update({k: summary["sim"].get(k, 0.0)
                    for k in END_TO_END if k.startswith("sim_")})
    return metrics


def traced_run(workload: str, seed: int, seconds: float,
               deadline: float):
    plain = run_child(workload, seed, deadline, budget=seconds / MIN_REPS)
    traced = run_child(workload, seed, deadline, passes=plain["passes"],
                       trace=1, untraced_wall=plain["wall_s"])
    return [plain, traced], traced


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 deadline: float):
    """(summary, metrics with units) of one workload."""
    if trace:
        reps, traced = traced_run(workload, seed, seconds, deadline)
        summary = summarise(reps)
        metrics = {name: (traced["layers"][name], unit)
                   for name, unit, _, _ in ledger.PER_LAYER}
        summary["ranked"] = traced["ranked"]
        summary["moves"] = {name: moves
                            for name, _, _, moves in ledger.PER_LAYER}
    else:
        reps = timed_run(workload, seed, seconds, deadline)
        summary = summarise(reps, bool(WORKLOADS[workload].pooled_reps))
        metrics = {k: (v, END_TO_END[k])
                   for k, v in end_to_end(reps, summary).items()}
    summary["reps"] = len(reps)
    return summary, metrics


def print_block(workload: str, seed: int, summary: Dict,
                metrics: Dict) -> None:
    print(f"{workload}  seed={seed}  repetitions={summary['reps']}  "
          f"attempted={summary['attempted']}  failed={summary['failed']}  "
          f"failed_frac={summary['failed'] / summary['attempted']:.6g}  "
          f"y_checksum={summary['checksum']}")
    moves = summary.get("moves", {})
    for name, (value, unit) in metrics.items():
        note = f"  ({moves[name]})" if name in moves else ""
        print(f"  {name:<44} {value:>16.6g} {unit}{note}")
    for name, share in summary.get("ranked", []):
        print(f"  share {name:<38} {share:>16.2%}")


def main(argv=None) -> int:
    spec_path = ROOT / "BENCHMARK.json"
    default_seconds = 10
    if spec_path.is_file():
        default_seconds = json.loads(spec_path.read_text())["run_seconds"]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all",
                    choices=["all", *WORKLOADS])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=default_seconds)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    deadline = perf_counter() + DEADLINE_S * len(names)
    results = []
    try:
        for name in names:
            summary, metrics = run_workload(
                name, args.seed, args.seconds, bool(args.trace), deadline)
            print_block(name, args.seed, summary, metrics)
            results.append((name, summary, metrics))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    # one workload: the metrics by name; several: prefixed by workload
    flat = results[0][2] if len(results) == 1 else {
        f"{name}.{k}": v for name, _, m in results for k, v in m.items()}
    print(json.dumps({
        "correct": all(s["correct"] for _, s, _ in results),
        "attempted": sum(s["attempted"] for _, s, _ in results),
        "failed": sum(s["failed"] for _, s, _ in results),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in flat.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
