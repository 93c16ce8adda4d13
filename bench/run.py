"""pcqa benchmark: three workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload pair-large --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --seed 1            # every workload, untraced then traced

Run from the root of a source checkout; the program is imported from its
``src/``.  A single-workload run prints one JSON object as its last line:
``correct``, ``attempted``, ``failed`` and ``metrics`` (the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``).
Inputs, reports and trace spans go to ``.bench_work/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
# All work runs on one core: on a shared 2-vCPU host the second core's
# availability shifts from run to run, and with it the wall time of any
# threaded call.  Children inherit the affinity.
CORE = max(os.sched_getaffinity(0))
THREADS = "1"
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOAD_NAMES = ("pair-large", "study", "cli-ascii")
SETUP_REPEATS = (3, 12)  # set up at least 3 and at most 12 times,
SETUP_BUDGET_S = 3.0  # stopping once this much time has gone into set-up

END_TO_END_UNITS = {"full_op_s": "s", "light_op_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
LAYER_UNITS = {
    "ply.read_ascii_s": "s", "ply.write_ascii_s": "s",
    "ply.read_binary_s": "s", "ply.write_binary_s": "s",
    "cloud.construct_s": "s",
    "neighbors.index_build_s": "s", "neighbors.knn_k1_s": "s", "neighbors.knn_k10_s": "s",
    "neighbors.kdtree_builds": "count", "neighbors.kdtree_queries": "count",
    "neighbors.useful_tree_ratio": "ratio",
    "normals.estimate_s": "s", "normals.calls": "count", "normals.degenerate_points": "count",
    "metrics.correspondence_s": "s", "metrics.mnn_s": "s", "metrics.ann_s": "s",
    "metrics.annk_s": "s", "metrics.apdk_s": "s",
    "degrade.gaussian_s": "s", "degrade.octree_s": "s",
    "evaluation.score_pair_s": "s", "evaluation.correlate_s": "s", "evaluation.import_s": "s",
    "cli.import_s": "s",
    "trace.round_s": "s",
}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else SRC
    for name in THREAD_VARIABLES:
        env[name] = THREADS
    return env


def fresh_dir(path: str) -> str:
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def run_workload(name: str, seed: int, seconds: float, trace: bool, size: str) -> dict:
    """One run of one workload; returns the result object plus its rounds."""
    import layers
    import workloads

    setup, runner = workloads.WORKLOADS[name]
    workdir = fresh_dir(os.path.join(WORK, name))
    env = child_env()
    if not trace:
        setup_s = []
        while len(setup_s) < SETUP_REPEATS[0] or (
                sum(setup_s) < SETUP_BUDGET_S and len(setup_s) < SETUP_REPEATS[1]):
            start = time.perf_counter()
            data = setup(workdir, seed, size)
            setup_s.append(time.perf_counter() - start)
        with workloads.Launcher(env, workdir, None) as launch:
            rounds = runner(launch, data, seconds, seed)
        values = {
            "setup_s": statistics.median(setup_s),
            "full_op_s": statistics.median(rounds.full_op_s),
            "light_op_s": statistics.median(rounds.light_op_s),
            "peak_rss_mb": statistics.median(rounds.rss_mb),
        }
        units = END_TO_END_UNITS
    else:
        tracer = layers.Tracer()
        counts_path = os.path.join(workdir, "counts.jsonl")
        with tracer.span("run"):
            with tracer.span("setup"):
                data = setup(workdir, seed, size)
            with tracer.span("round"), workloads.Launcher(env, workdir, counts_path) as launch:
                rounds = runner(launch, data, seconds, seed)
            ref, deg = workloads.probe_pair(name, data)
            layers.probe_layers(tracer, ref, deg, workdir, seed, env)
        values = workloads.layer_counts(counts_path)
        values["trace.round_s"] = rounds.round_s[0]
        values.update({key: tracer.median(key) for key in LAYER_UNITS if key not in values})
        trace_dir = os.path.join(WORK, "trace")
        os.makedirs(trace_dir, exist_ok=True)
        tracer.write(os.path.join(trace_dir, f"{name}-seed{seed}.jsonl"))
        units = LAYER_UNITS
    result = {
        "correct": not rounds.problems,
        "attempted": rounds.attempted,
        "failed": rounds.failed,
        "metrics": {key: {"value": values[key], "unit": unit} for key, unit in units.items()},
    }
    return {"result": result, "rounds": rounds}


def print_run(name: str, run: dict) -> None:
    result = run["result"]
    for problem in run["rounds"].problems:
        print(f"CHECK FAILED: {problem}")
    print(f"{name}: attempted {result['attempted']}, failed {result['failed']}, "
          f"correct {str(result['correct']).lower()}")
    for key, metric in result["metrics"].items():
        print(f"  {key:<30} {metric['value']:>14.6g} {metric['unit']}")


def run_all(seed: int, seconds: float, size: str) -> dict:
    """Every workload untraced and then traced; the tracing overhead is the
    traced round's wall time against the untraced rounds' median."""
    summary = {}
    for name in WORKLOAD_NAMES:
        plain = run_workload(name, seed, seconds, False, size)
        traced = run_workload(name, seed, seconds, True, size)
        print_run(name, plain)
        print_run(f"{name} (traced)", traced)
        untraced_round = statistics.median(plain["rounds"].round_s)
        overhead = traced["rounds"].round_s[0] / untraced_round - 1.0
        print(f"  tracing overhead on one round: {100.0 * overhead:+.1f}%")
        summary[name] = {"end_to_end": plain["result"], "per_layer": traced["result"],
                         "tracing_overhead": overhead}
    with open(os.path.join(WORK, "summary.json"), "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1)
    print(f"summary written to {os.path.join(WORK, 'summary.json')}")
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES,
                        help="run one workload (default: all, untraced and traced)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true", help="toy input sizes (self-test only)")
    args = parser.parse_args(argv)
    os.sched_setaffinity(0, {CORE})
    # turn SIGTERM into SystemExit, so a running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not os.path.isfile(os.path.join(SRC, "pcqa", "__init__.py")):
        print(f"no pcqa sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    for name in THREAD_VARIABLES:
        os.environ[name] = THREADS
    sys.path.insert(0, SRC)
    import pcqa
    import workloads

    if not os.path.abspath(pcqa.__file__).startswith(SRC + os.sep):
        print(f"pcqa was imported from {pcqa.__file__}, not {SRC}", file=sys.stderr)
        return 2
    size = "toy" if args.toy else "full"
    os.makedirs(WORK, exist_ok=True)
    try:
        if args.workload is None:
            summary = run_all(args.seed, args.seconds, size)
            print(json.dumps(summary))
            return 0
        run = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), size)
    except workloads.BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print_run(args.workload, run)
    print(json.dumps(run["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
