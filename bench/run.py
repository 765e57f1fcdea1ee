"""cstarfix benchmark.

Run from the repository root:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

One process, one caller, no threads: each verdict is requested after the
previous one returns (a closed loop). Every verdict is checked against the
hand-written expectation table in expect.py. The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics; the line before it records the output digest and provenance.

--trace 0 reports the end-to-end metrics. --trace 1 first times untraced
passes, then installs the span wrappers (tracing.py) and reports the
per-layer metrics of the traced passes.
"""

import os

# BLAS thread pools are pinned before numpy is imported anywhere.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
WORK_DIR = BENCH_DIR / "_work"
SETUP_PROBES = 5
MIN_VERDICTS = 100
TRACE_UNTRACED_SHARE = 1 / 3
PROBE_TIMEOUT_S = 60

END_TO_END_UNITS = {
    "setup_s": "s", "wall_s": "s", "verdict_ms_p50": "ms", "verdict_ms_p90": "ms",
    "samples_per_s": "1/s", "iterations_per_s": "1/s", "verdict_match_rate": "ratio",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def fail(message: str) -> int:
    sys.stderr.write(f"bench: {message}\n")
    return 2


def setup_probes(src: Path, use: dict) -> list:
    """Set-up time of SETUP_PROBES fresh processes."""
    results = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "setup_probe.py"), str(src), json.dumps(use)],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True,
        )
        results.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return results


def measure(harness, ops: list, seconds: float) -> list:
    """Timed passes until ``seconds`` have passed and MIN_VERDICTS are in."""
    passes = []
    start = time.perf_counter()
    while (not passes or time.perf_counter() - start < seconds
           or sum(len(p.outcomes) for p in passes) < MIN_VERDICTS):
        passes.append(harness.run_pass(ops))
    return passes


def end_to_end(harness, passes: list, setup: list) -> dict:
    outcomes = [o for p in passes for o in p.outcomes]
    seconds = [o.seconds for o in outcomes]
    solve_s = sum(o.seconds for o in outcomes if o.solve)
    return {
        "setup_s": harness.median([s["import_s"] + s["build_s"] for s in setup]),
        "wall_s": harness.median([p.wall_s for p in passes]),
        "verdict_ms_p50": 1e3 * harness.percentile(seconds, 0.50),
        "verdict_ms_p90": 1e3 * harness.percentile(seconds, 0.90),
        "samples_per_s": sum(o.samples for o in outcomes) / sum(seconds),
        "iterations_per_s": (sum(o.iterations for o in outcomes if o.solve) / solve_s
                             if solve_s else 0.0),
        # a verdict showing a known program defect is not a match either
        "verdict_match_rate": (sum(not (o.problems or o.defect) for o in outcomes)
                               / len(outcomes)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def traced(harness, tracing, ops: list, seconds: float, spans_path: Path) -> tuple:
    """Traced passes; per-layer metrics (medians over passes) and the passes."""
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)

    def on_verdict(i):
        tracer.current_verdict = i

    per_pass, passes = [], []
    start = time.perf_counter()
    try:
        while not passes or time.perf_counter() - start < seconds:
            tracer.reset()
            result = harness.run_pass(ops, on_verdict)
            samples = sum(o.samples for o in result.outcomes)
            output_bytes = sum(o.output_bytes for o in result.outcomes)
            per_pass.append(tracing.layer_metrics(tracer, result.wall_s, samples, output_bytes))
            if not passes:
                WORK_DIR.mkdir(exist_ok=True)
                np.savez(spans_path, names=np.array(tracer.names), **tracer.arrays())
            passes.append(result)
    finally:
        uninstall()
    metrics = {k: harness.median([m[k] for m in per_pass]) for k in per_pass[0]}
    unstable = [k for k in per_pass[0] if tracing.metric_unit(k) == "count"
                and len({m[k] for m in per_pass}) > 1]
    return metrics, passes, unstable


def provenance(root: Path, seed: int) -> dict:
    commit = "unknown"
    if (root / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    return {"git_commit": commit, "python": platform.python_version(),
            "numpy": np.__version__, "nproc": len(os.sched_getaffinity(0)), "seed": seed}


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "cstarfix" / "__init__.py").is_file():
        return fail(f"no src/cstarfix under {root}; run from the repository root")
    sys.path.insert(0, str(src))
    import cstarfix

    if Path(cstarfix.__file__).resolve().parent != (src / "cstarfix").resolve():
        return fail(f"imported cstarfix from {cstarfix.__file__}, not from {src}")

    import harness
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        return fail(f"unknown workload {args.workload!r}; "
                    f"known: {', '.join(sorted(workloads.WORKLOADS))}")

    setup = setup_probes(src, workloads.SETUP_USE[args.workload])
    WORK_DIR.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix="run-", dir=WORK_DIR))
    try:
        ops = workloads.WORKLOADS[args.workload](args.seed, run_dir)
        warmup = harness.run_pass(ops)
        if args.trace == 0:
            passes = measure(harness, ops, args.seconds)
            metrics = end_to_end(harness, passes, setup)
            units = END_TO_END_UNITS
            unstable = []
        else:
            untraced = measure(harness, ops, args.seconds * TRACE_UNTRACED_SHARE)
            spans_path = WORK_DIR / f"spans-{args.workload}.npz"
            metrics, passes, unstable = traced(
                harness, tracing, ops, args.seconds * (1 - TRACE_UNTRACED_SHARE), spans_path)
            metrics["registry.build_s"] = harness.median([s["build_s"] for s in setup])
            metrics["trace.overhead_s"] = (harness.median([p.wall_s for p in passes])
                                           - harness.median([p.wall_s for p in untraced]))
            passes = untraced + passes
            units = {k: tracing.metric_unit(k) for k in metrics}
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    checked = [warmup, *passes]
    outcomes = [o for p in checked for o in p.outcomes]
    digests = Counter(p.digest for p in checked)
    failed = sum(bool(o.problems) for o in outcomes)
    failed += sum(1 for p in checked if p.digest != warmup.digest) + len(unstable)
    mismatches = [f"{o.label}: {'; '.join(o.problems)}" for o in outcomes if o.problems]
    info = {
        "workload": args.workload, "trace": args.trace, "passes": len(checked),
        "verdicts": len(outcomes), "verdicts_per_pass": len(warmup.outcomes),
        "latency_samples": sum(len(p.outcomes) for p in passes),
        "digest": warmup.digest, "digests_agree": len(digests) == 1,
        "provenance": provenance(root, args.seed),
        "known_defects": dict(Counter(o.defect for o in warmup.outcomes if o.defect)),
        "first_mismatches": mismatches[:5],
        "unstable_counts": unstable,
    }
    print(json.dumps(info))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
