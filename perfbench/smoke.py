"""Smoke test of the benchmark: every workload path on tiny trees.

    python3 perfbench/smoke.py

Runs the full command path (generation in a child process, untraced and
traced runs, output checks, the result line) on scaled-down copies of the
workloads, and checks that a wrong result, a wrong input and a missing
source tree are caught.  Takes a few seconds; exits non-zero on failure.
"""
import io
import json
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import run

sys.path.insert(0, str(run.SRC))
import harness  # noqa: E402
from treesum import GenSpec, OtsSolver, gen_random_tree  # noqa: E402

# same shapes as run.WORKLOADS, a few thousand nodes at most
TINY = {
    "load": ({"n": 3000, "important_count": 30}, (10,), 1),
    "solve": ({"n": 2000, "important_count": 200}, (10, 25, 100), 2),
    "deep": ({"n": 60, "important_count": 60, "height_bias": 0.9}, (10, 25), 3),
}


def expect(condition, message):
    if not condition:
        raise SystemExit(f"smoke: FAILED {message}")


def run_cli(name, trace, seed=1):
    out = io.StringIO()
    with redirect_stdout(out):
        code = run.main(
            ["--workload", name, "--seed", str(seed), "--seconds", "0", "--trace", str(trace)],
            workloads=TINY,
        )
    expect(code == 0, f"{name}: exit code {code}")
    return json.loads(out.getvalue().strip().splitlines()[-1])


def main() -> int:
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())

    for name in TINY:
        result = run_cli(name, trace=0)
        expect(result["correct"] and result["failed"] == 0, f"{name}: {result}")
        expect(
            list(result["metrics"]) == [m["name"] for m in declared["end_to_end"]],
            f"{name}: end-to-end metrics {list(result['metrics'])}",
        )
    expect("tracemalloc" not in sys.modules, "an untraced run imported tracemalloc")

    for name in TINY:
        result = run_cli(name, trace=1)
        expect(result["correct"], f"{name} traced: {result}")
        expect(
            list(result["metrics"]) == [m["name"] for m in declared["per_layer"]],
            f"{name}: per-layer metrics {list(result['metrics'])}",
        )

    # a summary that differs from the reference digest fails its query
    workload = harness.Workload("deep", *TINY["deep"])
    work = run.WORK / "smoke"
    work.mkdir(parents=True, exist_ok=True)
    try:
        paths = [work / f"{i}.tsv" for i in range(workload.trees)]
        run.generate(workload.specs(7), paths)
        honest = harness.run_workload(workload, paths, 0, False, None, time_limit=60)
        expect(honest.failed == 0, f"unchecked run failed: {honest.problems}")
        wrong = dict(honest.jobs[0].digests, **{"t0.ots.k10": "0" * 64})
        checked = harness.run_workload(workload, paths, 0, False, wrong, time_limit=60)
        expect(all(j.failed for j in checked.jobs), "bad digest not caught")
    finally:
        shutil.rmtree(work)

    # the computed DP state space matches the solver's own count
    tree = gen_random_tree(GenSpec(n=80, important_count=80, seed=3, height_bias=0.9))
    for k in (1, 10, 25):
        expect(harness.dp_cells(tree, k) == OtsSolver(tree, k).state_count(), f"dp_cells k={k}")

    # the default seed checks the generated input against reference.json
    out = io.StringIO()
    with redirect_stdout(out):
        run.main(["--workload", "load", "--seconds", "0"], workloads=TINY)
    result = json.loads(out.getvalue().strip().splitlines()[-1])
    expect(not result["correct"] and result["failed"] > 0, "unknown input digest not caught")

    # without treesum sources the command fails and prints no result
    bare = run.WORK / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / run.HERE.name)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    try:
        done = subprocess.run(
            [sys.executable, *declared["command"][1:], "--workload", "load-1e5", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
        expect(done.returncode != 0 and not done.stdout, f"bare checkout: {done.returncode}")
    finally:
        shutil.rmtree(bare)

    print("smoke: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
