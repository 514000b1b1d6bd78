"""Measurement core of the treesum benchmark.

A *job* is what one-shot users of treesum wait for: for each of the
workload's input trees, set up from the tree file on disk
(``parse_tree_tsv`` + ``EulerLcaIndex`` + ``vtree``), then run one pass of
the workload's query mix.  For every k of the workload the pass runs

  * ``ots`` on the reduced tree, lifted back with ``lift_result``,
  * ``gts`` on the reduced tree, lifted back with ``lift_result``,
  * the ``feq_topk``, ``agg_topk`` and ``cagg_topk`` baselines on the
    original tree,
  * ``compute_metrics`` for the ots and the gts summary, reusing the LCA
    index built during setup.

The loop is closed and single-threaded: each call starts after the previous
one returned.  Every call into a layer is timed from outside, after a
``gc.collect()`` that stays outside the interval, and every output is
checked; a query that raises or fails a check counts as failed.  The
end-to-end timings are scaled to a reference host speed measured around each
call (see *host speed* below).

With tracing on, each call also leaves a span (id, parent, name, start, end)
in memory.  Span names are ``<layer>.<call>``, where the layer is the
``treesum`` module the call goes into; ``bench.job`` encloses a job, and its
self time is the harness's own work (collections, calibration passes and
output checks).
"""
from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy

from treesum import (
    EulerLcaIndex,
    WeightedTree,
    agg_topk,
    avg_level_difference,
    cagg_topk,
    closeness_distance,
    compute_metrics,
    feq_topk,
    g_score,
    gts,
    lift_result,
    marginal_gain_fast,
    ots,
    parse_tree_tsv,
    vtree,
    weighted_coverage,
)

DEFAULT_SEED = 70_707
CAGG_THETA = 0.4
# gts is a (1 - 1/e)-approximation of ots; both bounds allow float rounding
GREEDY_RATIO = 1.0 - 1.0 / math.e
TOLERANCE = 1e-9

# end-to-end timing buckets; job_s is their sum within one job
SWEEPS = ("setup_s", "ots_sweep_s", "gts_sweep_s", "baselines_sweep_s", "metrics_sweep_s")
QUERY_KINDS = ("ots", "gts", "feq", "agg", "cagg", "metrics.ots", "metrics.gts")
LAYERS = ("datasets", "tree", "reduction", "optimal", "greedy", "baselines", "metrics", "bench")
# per-layer metrics measured by probes after the jobs, summed over the trees
PROBES = (
    "scoring.g_score_s",
    "scoring.first_round_s",
    "metrics.cd_s",
    "metrics.ald_s",
    "metrics.wc_s",
    "tree.build_s",
    "tree.retained_mb",
)
MIN_JOBS = 2


@dataclass(frozen=True)
class Workload:
    """One benchmark input: generator parameters (all of GenSpec but the
    seed), the summary sizes k the query mix sweeps, and how many trees a
    job handles.

    The shape of each tree is fixed: tree i always has the parent array and
    the important nodes that ``gen_random_tree`` makes for seed
    ``DEFAULT_SEED + i * 2**32``.  The run's seed draws how much each
    important node weighs.  The height, the reduced tree and so the DP state
    space of a random tree vary a lot with its seed, so with seeded shapes
    two seeds would measure two different amounts of work."""

    name: str
    spec: Dict[str, float]
    ks: Tuple[int, ...]
    trees: int = 1

    def specs(self, seed: int) -> List[Tuple[dict, int]]:
        """GenSpec fields (tree i uses seed + i * 2**32) and shape seed of
        each input tree."""
        return [
            (dict(self.spec, seed=seed + (i << 32)), DEFAULT_SEED + (i << 32))
            for i in range(self.trees)
        ]


@dataclass
class Span:
    id: int
    parent: Optional[int]
    name: str
    start: float
    end: float
    k: Optional[int] = None

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Clock:
    """Times the calls of one job; with ``traced`` it also keeps spans."""

    def __init__(self, traced: bool):
        self.traced = traced
        self.buckets = dict.fromkeys(SWEEPS, 0.0)
        self.spans: List[Span] = []
        # the same times at the reference host speed
        self.scaled = dict.fromkeys(SWEEPS, 0.0)
        self._speed: Optional[float] = None
        self._open: List[int] = []
        self._next_id = 0

    def _new_id(self) -> int:
        self._next_id += 1
        return self._next_id

    def call(self, bucket: str, name: str, k: Optional[int], fn, *args, **kwargs):
        """Run one call into a layer; its time goes to ``bucket``, and its
        time scaled by the host speed measured just before and just after
        it goes to ``scaled[bucket]``."""
        gc.collect()
        before = self._speed if self._speed is not None else calibration_pass()
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._speed = after = calibration_pass()
            self.buckets[bucket] += end - start
            self.scaled[bucket] += (end - start) * REFERENCE_PASS_S * 2.0 / (before + after)
            if self.traced:
                parent = self._open[-1] if self._open else None
                self.spans.append(Span(self._new_id(), parent, name, start, end, k))

    @contextmanager
    def enclose(self, name: str):
        """A span around several calls (untimed unless traced)."""
        if not self.traced:
            yield
            return
        span_id = self._new_id()
        parent = self._open[-1] if self._open else None
        self._open.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._open.pop()
            self.spans.append(Span(span_id, parent, name, start, time.perf_counter()))


# -- host speed ----------------------------------------------------------------
#
# On a shared host the speed of this process swings by tens of percent within
# seconds, in phases that can cover a whole run.  So every timed call is
# bracketed by two passes of a fixed pure-Python loop that never touches
# treesum, and the end-to-end timings report each call's time scaled by
# REFERENCE_PASS_S / (mean time of the two passes): what the call would have
# taken at the host speed at which one pass takes REFERENCE_PASS_S.  A change
# to treesum moves the call and not the loop, so it moves the scaled time by
# the same share as the raw one.  Raw times are printed and kept alongside.
REFERENCE_PASS_S = 0.003
PASS_ITERATIONS = 4000
# what the loop parses, and a list larger than the core's caches that it reads
# at scattered places: parsing and cache misses slow down on a busy host by
# other shares than interpreter work does
_PASS_LINES = [f"{i}\t{i // 3}\t{(i % 17) * 0.25:.6f}\tnode{i}" for i in range(600)]
_PASS_SCATTER = list(range(150_000))


def calibration_pass() -> float:
    """Seconds one pass of the calibration loop takes now: dict updates,
    list indexing and float arithmetic as treesum's solvers do, text parsing
    as its reader does, and scattered reads of a large list."""
    start = time.perf_counter()
    counts: Dict[int, float] = {}
    values = [0.0] * 64
    for i in range(PASS_ITERATIONS):
        key = (i * 7919) % 509
        counts[key] = counts.get(key, 0.0) + i * 0.5
        values[i & 63] += counts[key] * 1e-3
    sorted(counts.values())
    rows = [line.split("\t") for line in _PASS_LINES]
    [float(row[2]) + int(row[1]) for row in rows]
    n = len(_PASS_SCATTER)
    total = 0
    for i in range(1500):
        total += _PASS_SCATTER[(i * 7919 + 13) % n]
    return time.perf_counter() - start


def self_times(spans: List[Span]) -> Dict[str, float]:
    """Per-layer self time: span durations minus what their children cover."""
    covered: Dict[int, float] = {}
    for s in spans:
        if s.parent is not None:
            covered[s.parent] = covered.get(s.parent, 0.0) + (s.end - s.start)
    out = dict.fromkeys(LAYERS, 0.0)
    for s in spans:
        out[s.layer] += (s.end - s.start) - covered.get(s.id, 0.0)
    return out


def span_sum(spans: List[Span], name: str, k: Optional[int] = None) -> float:
    return sum(s.end - s.start for s in spans if s.name == name and (k is None or s.k == k))


def digest(result) -> str:
    """Fingerprint of a summary: its selected list and the repr of its score."""
    text = json.dumps([list(result.selected), repr(result.score)])
    return hashlib.sha256(text.encode()).hexdigest()


def file_sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


# -- output checks -----------------------------------------------------------


def check_selection(tree: WeightedTree, result, k: int) -> Optional[str]:
    sel = result.selected
    if len(sel) != k or len(set(sel)) != k:
        return f"{result.algorithm}: {len(sel)} nodes ({len(set(sel))} distinct), want {k}"
    if not all(isinstance(v, int) and 0 <= v < tree.n for v in sel):
        return f"{result.algorithm}: selection holds an invalid node"
    return None


def check_greedy(greedy, exact) -> Optional[str]:
    if exact is None:
        return "gts: no ots score to compare against"
    if not GREEDY_RATIO * exact.score - TOLERANCE <= greedy.score <= exact.score + TOLERANCE:
        return f"gts score {greedy.score!r} outside [(1-1/e), 1] x ots {exact.score!r}"
    return None


def check_baseline(baseline, exact) -> Optional[str]:
    if exact is None:
        return f"{baseline.algorithm}: no ots score to compare against"
    if baseline.score > exact.score + TOLERANCE:
        return f"{baseline.algorithm} score {baseline.score!r} beats ots {exact.score!r}"
    return None


def check_report(report, k: int, total_weight: float) -> Optional[str]:
    values = (report.cd, report.ald, report.wc)
    if report.cd is None or not all(math.isfinite(v) and v >= 0 for v in values):
        return f"metrics: invalid report {report}"
    if report.k != k or report.wc > total_weight + TOLERANCE:
        return f"metrics: report {report} inconsistent with k={k}, weight {total_weight}"
    return None


# -- one job -------------------------------------------------------------------


@dataclass
class Job:
    traced: bool
    buckets: Dict[str, float]
    job_s: float
    spans: List[Span]
    scaled: Dict[str, float]
    attempted: int = 0
    failed: int = 0
    digests: Dict[str, str] = field(default_factory=dict)
    quality: float = math.inf
    problems: List[str] = field(default_factory=list)
    # per tree: setup products and lifted summaries, for the traced-run probes
    state: Optional[List[dict]] = None


class _Queries:
    """Runs queries for one job, counting attempts and failures."""

    def __init__(self, job: Job, reference: Optional[Dict[str, str]], prefix: str):
        self.job = job
        self.reference = reference
        self.prefix = prefix

    def run(self, key: str, fn, *checks):
        """Run one query; ``checks`` take its result and return a problem
        or None.  Returns the result, or None when the query failed."""
        key = self.prefix + key
        self.job.attempted += 1
        try:
            result = fn()
        except Exception:
            self.fail(f"{key}: raised\n{traceback.format_exc()}")
            return None
        problems = [p for p in (check(result) for check in checks) if p]
        if hasattr(result, "selected"):
            self.job.digests[key] = digest(result)
            if self.reference is not None and self.reference.get(key) != self.job.digests[key]:
                problems.append(f"{key}: selection or score differs from the reference digest")
        if problems:
            self.fail("; ".join(problems))
            return None
        return result

    def fail(self, problem: str):
        self.job.failed += 1
        self.job.problems.append(problem)


def run_job(
    workload: Workload,
    paths: List,
    traced: bool,
    reference: Optional[Dict[str, str]],
    keep_state: bool,
) -> Job:
    """For each tree file in ``paths``, set up from it and run one pass of
    the workload's query mix."""
    clock = Clock(traced)
    job = Job(traced=traced, buckets=clock.buckets, job_s=0.0, spans=clock.spans, scaled=clock.scaled)
    job.state = [] if keep_state else None
    with clock.enclose("bench.job"):
        for i, path in enumerate(paths):
            q = _Queries(job, reference, prefix=f"t{i}.")
            setup = q.run("setup", lambda: _setup(clock, path))
            if setup is None:
                missing = len(workload.ks) * len(QUERY_KINDS)
                job.attempted += missing
                job.failed += missing
                continue
            tree, index, reduced = setup
            lifted = {}
            for k in workload.ks:
                lifted[k] = _query_mix(clock, q, tree, index, reduced, k)
            if keep_state:
                job.state.append({"tree": tree, "index": index, "reduced": reduced, "lifted": lifted})
            del tree, index, reduced, lifted, setup
    job.job_s = sum(clock.buckets.values())
    return job


def _setup(clock: Clock, path):
    tree = clock.call("setup_s", "datasets.parse_tree_tsv", None, parse_tree_tsv, path)
    index = clock.call("setup_s", "tree.EulerLcaIndex", None, EulerLcaIndex, tree)
    reduced = clock.call("setup_s", "reduction.vtree", None, vtree, tree, index)
    return tree, index, reduced


def _query_mix(clock: Clock, q: _Queries, tree, index, reduced, k: int):
    call = clock.call

    def solve(bucket, name, solver):
        raw = call(bucket, name, k, solver, reduced.tree, k)
        return call(bucket, "reduction.lift_result", k, lift_result, reduced, raw)

    def selection(result):
        return check_selection(tree, result, k)

    exact = q.run(f"ots.k{k}", lambda: solve("ots_sweep_s", "optimal.ots", ots), selection)
    greedy = q.run(
        f"gts.k{k}",
        lambda: solve("gts_sweep_s", "greedy.gts", gts),
        selection,
        lambda r: check_greedy(r, exact),
    )
    if exact is not None and greedy is not None:
        q.job.quality = min(q.job.quality, greedy.score / exact.score)

    baselines = (
        ("feq", "baselines.feq_topk", feq_topk, ()),
        ("agg", "baselines.agg_topk", agg_topk, ()),
        ("cagg", "baselines.cagg_topk", cagg_topk, (CAGG_THETA,)),
    )
    for key, name, fn, extra in baselines:
        q.run(
            f"{key}.k{k}",
            lambda: call("baselines_sweep_s", name, k, fn, tree, k, *extra),
            selection,
            lambda r: check_baseline(r, exact),
        )

    total_weight = tree.total_weight()
    for key, result in (("ots", exact), ("gts", greedy)):
        if result is None:
            q.job.attempted += 1
            q.fail(f"{q.prefix}metrics.{key}.k{k}: no summary to measure")
            continue
        q.run(
            f"metrics.{key}.k{k}",
            lambda: call(
                "metrics_sweep_s", "metrics.compute_metrics", k,
                compute_metrics, tree, result.selected, index=index,
            ),
            lambda r: check_report(r, k, total_weight),
        )
    return {"ots": exact, "gts": greedy}


# -- a whole run ---------------------------------------------------------------


@dataclass
class Run:
    jobs: List[Job]
    end_to_end: Dict[str, float]
    per_layer: Dict[str, float]
    detail: Dict[str, float]
    # median unscaled job_s of the untraced jobs
    raw_job_s: float = 0.0

    @property
    def attempted(self) -> int:
        return sum(j.attempted for j in self.jobs)

    @property
    def failed(self) -> int:
        return sum(j.failed for j in self.jobs)

    @property
    def problems(self) -> List[str]:
        return [p for j in self.jobs for p in j.problems]


def run_workload(
    workload: Workload,
    paths: List,
    seconds: float,
    traced: bool,
    reference: Optional[Dict[str, str]],
    time_limit: float,
) -> Run:
    """Run jobs for ``seconds``: at least MIN_JOBS, and no further job that
    would end past ``time_limit`` seconds from the start.  A traced run
    alternates untraced and traced jobs, so that the tracing overhead is
    measured in the same process."""
    jobs: List[Job] = []
    start = time.perf_counter()
    last_wall = 0.0
    while len(jobs) < MIN_JOBS or time.perf_counter() - start < seconds:
        if len(jobs) >= MIN_JOBS and time.perf_counter() - start + last_wall > time_limit:
            break
        trace_this = traced and len(jobs) % 2 == 1
        if trace_this:
            for old in jobs:
                old.state = None  # only the last traced job's trees stay alive
        gc.collect()
        job_start = time.perf_counter()
        jobs.append(run_job(workload, paths, trace_this, reference, keep_state=trace_this))
        last_wall = time.perf_counter() - job_start

    run = Run(jobs=jobs, end_to_end={}, per_layer={}, detail={})
    for other in jobs[1:]:
        if other.failed == 0 and jobs[0].failed == 0 and other.digests != jobs[0].digests:
            other.failed += 1
            other.problems.append("results differ between jobs of one run")
    plain = [j for j in jobs if not j.traced]
    for bucket in SWEEPS:
        run.end_to_end[bucket] = statistics.median(j.scaled[bucket] for j in plain)
    run.end_to_end["job_s"] = statistics.median(sum(j.scaled.values()) for j in plain)
    run.raw_job_s = statistics.median(j.job_s for j in plain)
    # ru_maxrss is in KiB on Linux
    run.end_to_end["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    run.end_to_end["gts_quality"] = min(j.quality for j in jobs)
    run.end_to_end["error_rate"] = run.failed / run.attempted
    if traced:
        _layer_metrics(run, workload, [j for j in jobs if j.traced])
    return run


def dp_cells(tree: WeightedTree, k: int) -> int:
    """Size of ots's state space on ``tree``, computed from the tree shape:
    each node has depth + 1 nearest-ancestor states, each an array over
    budgets 0..min(k, subtree size)."""
    return sum(
        (tree.levels[u] + 1) * (min(k, tree.subtree_size[u]) + 1) for u in range(tree.n)
    )


def _layer_metrics(run: Run, workload: Workload, traced_jobs: List[Job]):
    """Per-layer metrics: medians over the traced jobs, plus probes that call
    single layers outside any job.  Timings and counts add up over the
    workload's trees; tree.height is the largest."""
    med = statistics.median
    out = run.per_layer
    detail = run.detail
    for layer in LAYERS:
        out[f"{layer}.self_s"] = med(self_times(j.spans)[layer] for j in traced_jobs)
    out["trace.overhead_s"] = med(j.job_s for j in traced_jobs) - run.raw_job_s

    def span_median(name, k=None):
        return med(span_sum(j.spans, name, k) for j in traced_jobs)

    out["datasets.parse_s"] = span_median("datasets.parse_tree_tsv")
    out["tree.lca_index_s"] = span_median("tree.EulerLcaIndex")
    out["reduction.vtree_s"] = span_median("reduction.vtree")
    out["reduction.lift_s"] = span_median("reduction.lift_result")
    for short, name in (("feq", "feq_topk"), ("agg", "agg_topk"), ("cagg", "cagg_topk")):
        out[f"baselines.{short}_s"] = span_median(f"baselines.{name}")
    for k in workload.ks:
        detail[f"optimal.ots_s.k{k}"] = span_median("optimal.ots", k)
        detail[f"greedy.gts_s.k{k}"] = span_median("greedy.gts", k)
        detail[f"optimal.dp_cells.k{k}"] = 0

    states = traced_jobs[-1].state
    traced_jobs[-1].state = None
    if states is None or len(states) != workload.trees:
        raise RuntimeError("a traced job failed during setup; no per-layer probes")
    probes = dict.fromkeys(PROBES, 0.0)
    for name in ("tree.n", "tree.height", "tree.important", "reduction.reduced_n"):
        out[name] = 0
    while states:
        state = states.pop()
        tree, index, reduced = state["tree"], state["index"], state["reduced"]
        rtree = reduced.tree
        out["tree.n"] += tree.n
        out["tree.height"] = max(out["tree.height"], tree.height)
        out["tree.important"] += len(tree.important)
        out["reduction.reduced_n"] += rtree.n
        for k in workload.ks:
            detail[f"optimal.dp_cells.k{k}"] += dp_cells(rtree, k)
        summaries = [r for per_k in state["lifted"].values() for r in per_k.values() if r is not None]
        del state

        # scoring: the rescore lift_result does, and greedy's first round
        probes["scoring.g_score_s"] += _timed(lambda: [g_score(tree, r.selected) for r in summaries])
        probes["scoring.first_round_s"] += _timed(
            lambda: [marginal_gain_fast(rtree, frozenset(), x) for x in rtree.pre_order]
        )
        # metrics: the three parts of compute_metrics, one call each
        probes["metrics.cd_s"] += _timed(
            lambda: [closeness_distance(tree, r.selected, index=index) for r in summaries]
        )
        probes["metrics.ald_s"] += _timed(
            lambda: [avg_level_difference(tree, r.selected) for r in summaries]
        )
        probes["metrics.wc_s"] += _timed(lambda: [weighted_coverage(tree, r.selected) for r in summaries])

        # tree: the constructor alone, on arrays already in memory, then the
        # memory it keeps (tracemalloc is imported only here, in traced runs)
        arrays = (tree.ids, tree.parent, tree.feq, tree.labels)
        del tree, index, reduced, rtree, summaries
        probes["tree.build_s"] += _timed(lambda: WeightedTree(*arrays))
        probes["tree.retained_mb"] += _retained_mb(lambda: WeightedTree(*arrays))
        del arrays
    out.update(probes)
    out["scoring.first_round_calls"] = out["reduction.reduced_n"]
    out["reduction.keep_ratio"] = out["reduction.reduced_n"] / out["tree.n"]
    kmax = max(workload.ks)
    for name in ("optimal.ots_s", "greedy.gts_s", "optimal.dp_cells"):
        out[f"{name}.k10"] = detail[f"{name}.k10"]
        out[f"{name}.kmax"] = detail[f"{name}.k{kmax}"]


def _timed(fn) -> float:
    gc.collect()
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def _retained_mb(build) -> float:
    import tracemalloc

    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        kept = build()
        gc.collect()
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    del kept
    return (after - before) / 2**20


def environment() -> Dict[str, str]:
    return {
        "platform": platform.platform(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "nproc": str(os.cpu_count()),
    }
