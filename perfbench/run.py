"""Benchmark runner for treesum: one workload, one seed, one run.

    python3 perfbench/run.py --workload solve-1e4x3 --seed 70707 --seconds 30 --trace 0

Run it from the root of a treesum source tree; it imports ``treesum`` from
``src/`` and needs nothing installed beyond numpy.  The workload's input
trees are generated from ``--seed`` in a child process and written under
``.bench_work/``; the run then repeats jobs (for each tree, set up from its
file and run one pass of the query mix, see ``harness.py``) for
``--seconds`` seconds.

Standard output ends with one JSON line: ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones of ``BENCHMARK.json`` (medians over the run's jobs); with
``--trace 1`` they are its per-layer ones, and the spans are written to
``.bench_work/spans-<workload>-<seed>.jsonl``.  The lines before it name the
environment and every metric with its unit, including ``error_rate``.

On the default seed (70707) the generated files and every summary must match
the digests in ``reference.json``; ``--write-reference`` records them
instead, after a change that is meant to alter results.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
REFERENCE = HERE / "reference.json"

# Jobs beyond the first two start only within this many seconds, so that a run
# (generation, jobs, traced-run probes) ends well inside three minutes.
JOB_BUDGET_S = {False: 120.0, True: 90.0}
GEN_TIMEOUT_S = 120.0

# GenSpec fields (all but the seed), k sweep and trees per job of each
# workload; why each exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    "load-1e5": ({"n": 10**5, "important_count": 10**3}, (10,), 1),
    "solve-1e4x3": ({"n": 10**4, "important_count": 10**3}, (10, 25, 100), 3),
    "deep-500x4": ({"n": 500, "important_count": 500, "height_bias": 0.9}, (10, 25), 4),
}


def parse_args(argv, workloads):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, default=70_707)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--write-reference",
        action="store_true",
        help="record the default seed's input and result digests in reference.json",
    )
    return parser.parse_args(argv)


def generate(specs: list, paths: list) -> dict:
    """Write the input trees in a child process; returns its timings."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [
            sys.executable,
            str(HERE / "gen_input.py"),
            json.dumps([[*spec, str(path)] for spec, path in zip(specs, paths)]),
        ],
        env=env,
        capture_output=True,
        text=True,
        timeout=GEN_TIMEOUT_S,
    )
    if done.returncode != 0:
        raise RuntimeError(f"input generation failed:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv=None, workloads=WORKLOADS) -> int:
    started = time.perf_counter()
    args = parse_args(argv, workloads)
    if not (SRC / "treesum" / "__init__.py").is_file():
        print(f"perfbench: no treesum sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import harness

    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        declared = json.load(fh)
    workload = harness.Workload(args.workload, *workloads[args.workload])
    traced = bool(args.trace)
    default_seed = args.seed == harness.DEFAULT_SEED
    if args.write_reference and not default_seed:
        print("perfbench: --write-reference needs the default seed", file=sys.stderr)
        return 2
    checking = default_seed and not args.write_reference

    with open(REFERENCE, encoding="utf-8") as fh:
        references = json.load(fh)
    reference = references.get(args.workload, {})

    inputs = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    inputs.mkdir(parents=True)
    paths = [inputs / f"{i}.tsv" for i in range(workload.trees)]
    input_ok = True
    try:
        gen_times = generate(workload.specs(args.seed), paths)
        input_sha = [harness.file_sha256(p) for p in paths]
        if checking and input_sha != reference.get("tsv_sha256"):
            input_ok = False
            print("perfbench: FAILED generated input differs from the reference digest", file=sys.stderr)
        budget = JOB_BUDGET_S[traced] - (time.perf_counter() - started)
        run = harness.run_workload(
            workload,
            paths,
            seconds=args.seconds,
            traced=traced,
            reference=reference.get("results", {}) if checking else None,
            time_limit=budget,
        )
        file_mb = sum(p.stat().st_size for p in paths) / 2**20
    finally:
        shutil.rmtree(inputs)

    for problem in run.problems[:10]:
        print(f"perfbench: FAILED {problem}", file=sys.stderr)
    if args.write_reference:
        references[args.workload] = {"tsv_sha256": input_sha, "results": run.jobs[0].digests}
        with open(REFERENCE, "w", encoding="utf-8") as fh:
            json.dump(references, fh, indent=2, sort_keys=True)
            fh.write("\n")

    env = harness.environment()
    print("# " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"# workload={args.workload} seed={args.seed} jobs={len(run.jobs)} trace={args.trace}")
    for number, job in enumerate(run.jobs):
        parts = " ".join(
            f"{name}={job.scaled[name]:.4f}({raw:.4f})" for name, raw in job.buckets.items()
        )
        scaled_job_s = sum(job.scaled.values())
        print(
            f"# job {number}{' traced' if job.traced else ''}: {parts} "
            f"job_s={scaled_job_s:.4f}({job.job_s:.4f})"
        )
    attempted = run.attempted + 1  # the input-digest check counts as one operation
    failed = run.failed + (0 if input_ok else 1)
    print(f"error_rate {failed / attempted!r} ratio")

    if traced:
        run.per_layer.update(
            {
                "datasets.gen_s": gen_times["gen_s"],
                "datasets.write_s": gen_times["write_s"],
                "datasets.file_mb": file_mb,
            }
        )
        for name, value in sorted(run.detail.items()):
            print(f"{name} {value!r}")
        values, wanted = run.per_layer, declared["per_layer"]
        spans_path = WORK / f"spans-{args.workload}-{args.seed}.jsonl"
        with open(spans_path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"workload": args.workload, "seed": args.seed, **env}) + "\n")
            for number, job in enumerate(run.jobs):
                for span in job.spans:
                    fh.write(json.dumps({"job": number, **span.__dict__}) + "\n")
        print(f"# spans written to {spans_path.relative_to(ROOT)}")
    else:
        values, wanted = run.end_to_end, declared["end_to_end"]
    metrics = {}
    for metric in wanted:
        value = values[metric["name"]]
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
        print(f"{metric['name']} {value!r} {metric['unit']}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
