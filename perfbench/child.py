"""One repetition of one workload, in a fresh interpreter.

Run by ``run.py``; prints one JSON object as its last stdout line::

    python3 perfbench/child.py --workload spmv-sweep --seed 3 \\
        --budget 5 [--passes N] [--rep R] [--trace 1 --untraced-wall S]

Set-up time starts before :mod:`repro` is imported.  ``serve-warm``
repeats its timed pass until ``--budget`` seconds are spent (or exactly
``--passes`` times); the cold workloads make their single pass
(``cluster-cold`` over repetition ``--rep``'s own trace).  With
``--trace 1`` the timed passes run under the per-layer ledger and the
spans are written once, at the end, with :mod:`repro.obs.export`.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: span exports of traced runs (inside the checkout; git-ignored)
TRACE_DIR = ROOT / ".perfbench"


def _import_repro():
    """Import the checkout's own ``repro`` (never an installed copy)."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no repro sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        raise SystemExit(
            f"perfbench: imported repro from {repro.__file__}, "
            f"not from {SRC}")
    return repro


def reset_peak_rss() -> None:
    """Restart the kernel's resident-set high-water mark (Linux)."""
    try:
        with open("/proc/self/clear_refs", "w") as fh:
            fh.write("5")
    except OSError:
        print("perfbench: cannot reset the peak RSS; reporting the "
              "process lifetime peak", file=sys.stderr)


def peak_rss_mb() -> float:
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--budget", type=float, default=0.0)
    ap.add_argument("--passes", type=int, default=0)
    ap.add_argument("--rep", type=int, default=0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--untraced-wall", type=float, default=0.0)
    args = ap.parse_args(argv)

    t0 = perf_counter()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import workloads

    os.environ["REPRO_EXECUTOR"] = workloads.EXECUTOR[args.workload]
    os.environ["REPRO_FUSED_VERIFY"] = "off"
    _import_repro()
    cls = workloads.WORKLOADS[args.workload]
    workload = cls(args.seed, rep=args.rep) if cls.pooled_reps \
        else cls(args.seed)
    workload.setup()
    setup_s = perf_counter() - t0
    reference = getattr(workload, "reference", None)
    # peak memory of the measured phase: what set-up keeps resident
    # counts, its transients (the warm-up's code generation) do not
    reset_peak_rss()

    session = None
    if args.trace:
        import ledger

        with ledger.traced(f"{args.workload}-seed{args.seed}") as session:
            passes = _run_passes(workload, args)
    else:
        passes = _run_passes(workload, args)

    wall = sum(p.wall_s for p in passes)
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    checksums = {p.checksum for p in passes}
    sims = [p.sim for p in passes]
    if reference is not None:
        # the warm-up pass is the verified run; its failures count too
        attempted += reference.attempted
        failed += reference.failed
        checksums.add(reference.checksum)
        sims.append(reference.sim)
    out = {
        "workload": args.workload,
        "seed": args.seed,
        "setup_s": setup_s,
        "wall_s": wall,
        "passes": len(passes),
        "ops": sum(p.attempted for p in passes),
        "ops_per_s": statistics.median(
            p.attempted / p.wall_s for p in passes if p.wall_s > 0)
        if wall > 0 else 0.0,
        "peak_rss_mb": peak_rss_mb(),
        "attempted": attempted,
        "failed": failed,
        "checksum": passes[0].checksum,
        # every pass of one seed must fold to the same checksum and the
        # same simulated metrics
        "consistent": len(checksums) == 1
        and all(s == sims[0] for s in sims),
        "sim": passes[0].sim,
        "sim_parts": passes[0].sim_parts,
    }
    if session is not None:
        import ledger
        from repro.obs.export import export_chrome_trace

        out["layers"] = ledger.layer_metrics(
            session.spans, ledger.merge_counters(p.counters for p in passes),
            wall, out["ops"],
            args.untraced_wall or wall)
        out["ranked"] = ledger.ranked_shares(session.spans, wall)[:8]
        TRACE_DIR.mkdir(exist_ok=True)
        export_chrome_trace(
            session, TRACE_DIR / f"{args.workload}-seed{args.seed}"
                                 f".trace.json")
    print(json.dumps(out))
    return 0


def _run_passes(workload, args):
    passes = [workload.measure()]
    if not workload.repeatable:
        return passes  # cold: a second pass in this process is warm
    while (len(passes) < args.passes if args.passes
           else sum(p.wall_s for p in passes) < args.budget):
        passes.append(workload.measure())
    return passes


if __name__ == "__main__":
    sys.exit(main())
