"""Self-test of the benchmark harness at toy sizes (about two minutes).

    python3 bench/selftest.py

Runs every workload untraced and traced on toy inputs and checks the
printed result against BENCHMARK.json, that the inputs follow from the
seed, that the share of failed operations does not depend on the seed,
that the correctness checks reject wrong answers, and that the benchmark
refuses to run where the program's sources are missing.
"""

from __future__ import annotations

import filecmp
import json
import os
import shutil
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORK = os.path.join(ROOT, ".bench_work", "selftest")


def run_bench(cwd: str, *args: str) -> tuple[int, str]:
    proc = subprocess.run([sys.executable, os.path.join(cwd, "bench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=180)
    return proc.returncode, proc.stdout


def check_result_line(stdout: str, spec: list[dict]) -> dict:
    result = json.loads(stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] is True, stdout
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int) and 0 <= result["failed"] <= result["attempted"]
    assert {m["name"]: m["unit"] for m in spec} == {
        name: m["unit"] for name, m in result["metrics"].items()}, result["metrics"]
    return result


def test_runs(spec: dict) -> None:
    shares = {}
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, metrics in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            for seed in ((1, 2) if trace == 0 and workload == "study" else (1,)):
                code, out = run_bench(ROOT, "--toy", "--workload", workload, "--seed", str(seed),
                                      "--seconds", "1", "--trace", str(trace))
                assert code == 0, out
                result = check_result_line(out, metrics)
                if trace == 0:
                    rounds_share = result["failed"] / result["attempted"]
                    shares.setdefault(workload, set()).add(rounds_share)
                print(f"ok   {workload} seed {seed} trace {trace}: attempted "
                      f"{result['attempted']}, failed {result['failed']}")
    for workload, seen in shares.items():
        assert len(seen) == 1, f"{workload}: failed share depends on the seed: {seen}"


def test_inputs_follow_seed() -> None:
    import inputs

    for setup in (inputs.setup_pair, inputs.setup_study, inputs.setup_cli):
        dirs = []
        for tag, seed in (("a", 3), ("b", 3), ("c", 4)):
            path = os.path.join(WORK, f"{setup.__name__}-{tag}")
            shutil.rmtree(path, ignore_errors=True)
            os.makedirs(path)
            setup(path, seed, "toy")
            dirs.append(path)
        names = sorted(os.listdir(dirs[0]))
        same = filecmp.cmpfiles(dirs[0], dirs[1], names, shallow=False)[0]
        assert same == names, f"{setup.__name__}: same seed, different inputs"
        differ = filecmp.cmpfiles(dirs[0], dirs[2], names, shallow=False)[1]
        assert differ, f"{setup.__name__}: the seed changes no input"
    print("ok   inputs follow the seed")


def test_checks_reject_wrong_answers() -> None:
    import numpy as np

    import checks
    import inputs
    from pcqa import ErrorKind, PeakSpec, psnr, ra_psnr

    data = inputs.setup_pair(os.path.join(WORK, "setup_pair-a"), 3, "toy")

    ref, deg = data["ref"], data["deg"]
    good = {"d1": psnr(ref, deg, ErrorKind.PO2PO, PeakSpec.precision()).to_dict(),
            "d2": ra_psnr(ref, deg, ErrorKind.PO2PL).to_dict()}
    assert checks.check_pair(ref, deg, good, 3) == []
    bad = {"d1": dict(good["d1"], psnr_db=good["d1"]["psnr_db"] + 0.5), "d2": good["d2"]}
    assert checks.check_pair(ref, deg, bad, 3), "a wrong pooled D1 score passed"
    bad = {"d1": good["d1"], "d2": dict(good["d2"], mse_ab=good["d1"]["mse_ab"] * 2.0)}
    assert checks.check_pair(ref, deg, bad, 3), "a po2pl MSE above po2po passed"

    ranks = checks.average_ranks(np.array([3.0, 1.0, 3.0, 2.0]))
    assert list(ranks) == [3.5, 1.0, 3.5, 2.0], ranks
    print("ok   checks reject wrong answers")


def test_refuses_without_sources() -> None:
    bare = os.path.join(WORK, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, os.path.join(bare, "bench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    code, out = run_bench(bare, "--workload", "pair-large", "--seed", "1", "--seconds", "1",
                          "--trace", "0")
    assert code != 0 and not out.strip(), (code, out)
    print("ok   refuses to run without the program's sources")


def main() -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    os.makedirs(WORK, exist_ok=True)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    test_inputs_follow_seed()
    test_checks_reject_wrong_answers()
    test_refuses_without_sources()
    test_runs(spec)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
