"""The three workloads: how one round runs and what it returns.

Each runner takes the inputs written by ``inputs.setup_*`` and runs whole
rounds of the same operations.  It starts another round only while the
rounds so far say it will end within ``seconds`` (exactly one round when
traced).  The work always happens in a child process, whose
wall time and high-water RSS come from ``os.wait4`` in ``spawner.py``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field

import checks
import counting
import inputs
from pcqa import infer_bit_depth, read_ply

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


def another_round(start: float, rounds: int, seconds: float) -> bool:
    """Whether a round of the average length so far still ends within ``seconds``."""
    elapsed = time.perf_counter() - start
    return elapsed * (rounds + 1) / rounds <= seconds


class BenchError(RuntimeError):
    """The benchmark cannot produce a result (a child failed unexpectedly)."""


@dataclass
class Proc:
    code: int
    wall_s: float
    rss_mb: float
    stdout: str
    stderr: str


class Launcher:
    """Starts child processes one at a time through ``spawner.py``, which
    reaps each with ``wait4``.  Use as a context manager."""

    def __init__(self, env: dict, workdir: str, counts_path: str | None):
        self.env = env
        self.workdir = workdir
        self.counts_path = counts_path  # set in traced runs
        self._spawner = subprocess.Popen([sys.executable, os.path.join(BENCH_DIR, "spawner.py")],
                                         stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def __enter__(self) -> "Launcher":
        return self

    def __exit__(self, exc_type, *_) -> None:
        if exc_type is not None:
            self._spawner.terminate()  # the spawner kills and reaps its child
        self._spawner.stdin.close()
        self._spawner.wait()

    def pcqa(self, args: list[str]) -> list[str]:
        if self.counts_path is None:
            return [sys.executable, "-m", "pcqa", *args]
        return [sys.executable, os.path.join(BENCH_DIR, "traced_cli.py"), self.counts_path, *args]

    def run(self, argv: list[str]) -> Proc:
        out_path = os.path.join(self.workdir, "child.out")
        err_path = os.path.join(self.workdir, "child.err")
        request = {"argv": argv, "env": self.env, "stdout": out_path, "stderr": err_path}
        self._spawner.stdin.write(json.dumps(request) + "\n")
        self._spawner.stdin.flush()
        reply = self._spawner.stdout.readline()
        if not reply:
            raise BenchError(f"the spawner exited while running {' '.join(argv)}")
        reply = json.loads(reply)
        with open(out_path, encoding="utf-8") as fh:
            stdout = fh.read()
        with open(err_path, encoding="utf-8") as fh:
            stderr = fh.read()
        return Proc(reply["code"], reply["wall_s"], reply["rss_mb"], stdout, stderr)

    def run_ok(self, argv: list[str]) -> Proc:
        proc = self.run(argv)
        if proc.code != 0:
            raise BenchError(f"{' '.join(argv)} exited with {proc.code}: {proc.stderr.strip()}")
        return proc


@dataclass
class Rounds:
    """What a workload's rounds measured, plus the correctness findings."""

    full_op_s: list[float] = field(default_factory=list)
    light_op_s: list[float] = field(default_factory=list)
    round_s: list[float] = field(default_factory=list)
    rss_mb: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)


def run_pair(launch: Launcher, data: dict, seconds: float, seed: int) -> Rounds:
    """pair-large: full op = ``ra_psnr`` po2pl/ra-apdk, light op = ``psnr``
    po2po/precision, both in one worker process: D1, D2 and D1 again per round."""
    out = os.path.join(launch.workdir, "worker.json")
    argv = [sys.executable, os.path.join(BENCH_DIR, "worker.py"), data["paths"]["ref"],
            data["paths"]["deg"], str(inputs.PAIR_BIT_DEPTH), repr(seconds), out]
    if launch.counts_path is not None:
        argv.append(launch.counts_path)
    proc = launch.run_ok(argv)
    with open(out, encoding="utf-8") as fh:
        result = json.load(fh)
    d1, d2 = result["times"]["d1"], result["times"]["d2"]
    rounds = Rounds(full_op_s=d2, light_op_s=d1, round_s=result["round_s"],
                    rss_mb=[proc.rss_mb], attempted=len(d1) + len(d2))
    if not result["stable"]:
        rounds.problems.append("pair-large: results changed between rounds")
    rounds.problems += checks.check_pair(data["ref"], data["deg"], result["results"], seed)
    return rounds


def run_study(launch: Launcher, data: dict, seconds: float, seed: int) -> Rounds:
    """study: full op = ``pcqa benchmark --metric all``, light op = the same
    manifest with the D1 variant alone.  A round runs the light op and then
    the full op."""
    rounds = Rounds()
    manifest = ["benchmark", "--manifest", data["manifest"]]
    commands = [("light", "po2po:precision"), ("full", "all")]
    first: dict[str, list] = {}
    start = time.perf_counter()
    while True:
        round_start, peak = time.perf_counter(), 0.0
        for name, metric in commands:
            outdir = os.path.join(launch.workdir, f"report-{name}")
            proc = launch.run_ok(launch.pcqa([*manifest, "--metric", metric, "--out", outdir]))
            (rounds.full_op_s if name == "full" else rounds.light_op_s).append(proc.wall_s)
            peak = max(peak, proc.rss_mb)
            with open(os.path.join(outdir, "report.json"), encoding="utf-8") as fh:
                reports = json.load(fh)["reports"]
            rounds.attempted += len(data["rows"])
            rounds.failed += len(checks.failed_twins(reports, data["twins"]))
            if name not in first:
                first[name] = reports
            elif reports != first[name]:
                rounds.problems.append(f"study: {name} report changed between runs")
        rounds.round_s.append(time.perf_counter() - round_start)
        rounds.rss_mb.append(peak)
        if launch.counts_path is not None or not another_round(start, len(rounds.round_s), seconds):
            break
    rounds.problems += checks.check_study(data, first["full"], first["light"], seed)
    return rounds


def cli_sequence(data: dict, seed: int, workdir: str) -> list[tuple[str, list[str]]]:
    """The six working calls, each after a ``--help`` call: the help calls
    are the light op's samples, spread over the whole round."""
    ref, deg = data["paths"]["ref"], data["paths"]["deg"]
    work = [
        ("resolution-mnn", ["resolution", "--ref", ref, "--peak", "mnn"]),
        ("resolution-ann", ["resolution", "--ref", ref, "--peak", "ann"]),
        ("resolution-annk", ["resolution", "--ref", ref, "--peak", "annk", "--k", "10"]),
        ("compare", ["compare", "--ref", ref, "--deg", deg, "--error", "po2po",
                     "--peak", "precision", "--format", "jsonl"]),
        ("degrade-gaussian", ["degrade", "--ref", ref, "--gaussian", repr(inputs.CLI_SIGMA),
                              "--seed", str(seed), "--out", os.path.join(workdir, "gaussian.ply")]),
        ("degrade-octree", ["degrade", "--ref", ref, "--octree-quantize",
                            str(inputs.CLI_OCTREE_BITS), "--out", os.path.join(workdir, "octree.ply")]),
    ]
    return [call for step in work for call in (("help", ["--help"]), step)]


def run_cli(launch: Launcher, data: dict, seconds: float, seed: int) -> Rounds:
    """cli-ascii: full op = the whole call sequence, light op = ``pcqa --help``
    after one untimed call has filled the bytecode cache."""
    rounds = Rounds()
    sequence = cli_sequence(data, seed, launch.workdir)
    launch.run_ok([sys.executable, "-m", "pcqa", "--help"])
    outputs: dict[str, str] = {}
    start = time.perf_counter()
    while True:
        seq_start, peak = time.perf_counter(), 0.0
        for name, args in sequence:
            proc = launch.run(launch.pcqa(args))
            rounds.attempted += 1
            peak = max(peak, proc.rss_mb)
            if name == "help":
                rounds.light_op_s.append(proc.wall_s)
            if proc.code != 0:
                rounds.failed += 1
                print(f"cli-ascii: {name} exited with {proc.code}: {proc.stderr.strip()}",
                      file=sys.stderr)
            else:
                outputs.setdefault(name, proc.stdout)
        rounds.full_op_s.append(time.perf_counter() - seq_start)
        rounds.round_s.append(rounds.full_op_s[-1])
        rounds.rss_mb.append(peak)
        if launch.counts_path is not None or not another_round(start, len(rounds.round_s), seconds):
            break
    rounds.problems += checks.check_cli(data, outputs, seed, launch.workdir)
    return rounds


WORKLOADS = {
    "pair-large": (inputs.setup_pair, run_pair),
    "study": (inputs.setup_study, run_study),
    "cli-ascii": (inputs.setup_cli, run_cli),
}


def probe_pair(name: str, data: dict):
    """The reference (with bit depth) and degraded cloud the layer probes use."""
    if name == "pair-large":
        return data["ref"], data["deg"]
    if name == "study":
        ref = data["references"]["sphere"]
        return ref, read_ply(os.path.join(os.path.dirname(data["manifest"]), "sphere-gaussian2.ply"))
    ref = data["ref"]
    return ref.with_bit_depth(infer_bit_depth(ref)), data["deg"]


def layer_counts(counts_path: str) -> dict:
    counts = counting.total(counts_path)
    return {
        "neighbors.kdtree_builds": counts.kdtree_builds,
        "neighbors.kdtree_queries": counts.kdtree_queries,
        "neighbors.useful_tree_ratio": len(counts.clouds) / max(counts.kdtree_builds, 1),
        "normals.calls": counts.normal_calls,
        "normals.degenerate_points": counts.degenerate_points,
    }
