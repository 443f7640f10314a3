"""One benchmark run: set up, prepare references, time passes, and report metrics.

With ``trace=False`` the run reports the end-to-end metrics of
:data:`END_TO_END`: medians over the run's passes, except ``setup_s``
(the median of repeated set-ups), ``warm_start_ms`` (the mean of the
run's warm starts) and ``peak_rss_mib`` (the highest peak of any pass).
With ``trace=True`` it times untraced passes the same way, then
replays the workload's inputs layer by layer (see
:func:`perfbench.streaming.replay` and :func:`perfbench.matrix.replay`)
and reports the per-layer metrics of :data:`PER_LAYER`.  A layer the
workload never runs reports 0.
"""

from __future__ import annotations

import itertools
import json
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

from repro.core.config import CLASSIFIER_NAMES, ENSEMBLE_MODES

from perfbench import matrix, streaming
from perfbench.common import (
    Seeds,
    SetUps,
    mismatches,
    WarmStarts,
    median,
    peak_rss_mib,
    reset_peak_rss,
    run_passes,
    stamp,
    warm_start_trace,
)

WORKLOADS = ("serve-short", "serve-long", "fleet-observed")

#: name -> (unit, better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "windows_per_s": ("1/s", "higher"),
    "cpu_us_per_window": ("us", "lower"),
    "warm_start_ms": ("ms", "lower"),
    "pass_wall_s": ("s", "lower"),
    "peak_rss_mib": ("MiB", "lower"),
}

PER_LAYER = {
    "hpc.lxc.run_us_per_window": ("us", "lower"),
    "hpc.counters.reduce_us_per_window": ("us", "lower"),
    "core.detector.grade_calls": ("count", "lower"),
    "core.detector.rows_per_grade_call": ("count", "higher"),
    "core.detector.grade_us_per_window": ("us", "lower"),
    "core.detector.grade_batched_us_per_window": ("us", "lower"),
    "core.runtime.verdict_us_per_execution": ("us", "lower"),
    "serve.bus.publish_us_per_message": ("us", "lower"),
    "serve.bus.consume_us_per_message": ("us", "lower"),
    "serve.bus.handoff_us_per_message": ("us", "lower"),
    "serve.service.backpressure_waits_per_kwindow": ("count", "lower"),
    "serve.service.unattributed_us_per_window": ("us", "lower"),
    "registry.load_ms": ("ms", "lower"),
    "registry.first_verdict_ms": ("ms", "lower"),
    "registry.payload_bytes": ("bytes", "lower"),
    "obs.quality.observe_us_per_execution": ("us", "lower"),
    "obs.health.observe_us_per_verdict": ("us", "lower"),
    "obs.metrics.update_us": ("us", "lower"),
    "obs.overhead_share": ("share", "lower"),
    "core.fleet.retries_per_execution": ("count", "lower"),
    "core.fleet.degraded_share": ("share", "lower"),
    "workloads.corpus_s": ("s", "lower"),
    "features.rank_s": ("s", "lower"),
    **{f"ml.fit_s.{name}": ("s", "lower") for name in CLASSIFIER_NAMES + ENSEMBLE_MODES},
    "ml.eval_s": ("s", "lower"),
    "ledger.unattributed_share": ("share", "lower"),
    "ledger.trace_cost_s": ("s", "lower"),
}


@dataclass(frozen=True)
class Sizes:
    """How much work one run does."""

    setup_windows_per_app: int = 10
    setup_repeats: int = 5
    short_rounds: int = 8
    short_windows: int = 20
    long_windows: int = 2000
    matrix_windows_per_app: int = 4
    matrix_classifiers: tuple[str, ...] = CLASSIFIER_NAMES
    min_passes: int = 3
    warm_starts: int = 150
    replays: int = 3


#: A seconds-long form of every workload, for the benchmark's own tests.
QUICK = Sizes(
    setup_windows_per_app=4,
    setup_repeats=1,
    short_rounds=1,
    short_windows=10,
    long_windows=60,
    matrix_windows_per_app=2,
    matrix_classifiers=("OneR", "REPTree"),
    min_passes=1,
    warm_starts=2,
    replays=1,
)


def make_workload(name: str, deployment, seeds: Seeds, sizes: Sizes):
    """Generate the workload's inputs from the seed and compute its reference."""
    if name == "serve-long":
        jobs = streaming.serve_jobs(seeds.jobs, 1, sizes.long_windows)
    else:
        jobs = streaming.serve_jobs(seeds.jobs, sizes.short_rounds, sizes.short_windows)
    if name == "fleet-observed":
        return streaming.FleetWorkload(deployment, seeds, jobs)
    return streaming.ServeWorkload(deployment, seeds, jobs)


def _metric(table: dict, values: dict) -> dict:
    return {name: {"value": values[name], "unit": table[name][0]} for name in table}


def _median_of(rows: list[dict]) -> dict:
    return {key: median([row[key] for row in rows]) for key in rows[0]}


def _streaming_layers(name, workload, passes, sizes) -> tuple[dict, list[str], int, int]:
    fleet = name == "fleet-observed"
    attempted = failed = 0
    if fleet:
        on, off = passes[0::2], passes[1::2]
        on_wall, off_wall = median([p.wall_s for p in on]), median([p.wall_s for p in off])
    else:
        on = passes
    e2e_us = median([p.wall_s / p.windows for p in on]) * 1e6
    rows = []
    for _ in range(sizes.replays):
        rp = streaming.replay(workload)
        if not fleet:  # the fleet's reference carries its faults; the replay has none
            attempted += rp.executions
            failed += mismatches(rp.verdicts, workload.reference)
        per_window = 1e6 / rp.windows
        per_execution = 1e6 / rp.executions
        attributed = (
            rp.run_s + rp.reduce_s + rp.grade_s + rp.verdict_s + rp.handoff_s
            + rp.quality_s + rp.health_s + rp.metrics_s
        ) * per_window
        row = {
            "hpc.lxc.run_us_per_window": rp.run_s * per_window,
            "hpc.counters.reduce_us_per_window": rp.reduce_s * per_window,
            "core.detector.grade_calls": rp.grade_calls,
            "core.detector.rows_per_grade_call": rp.windows / rp.grade_calls,
            "core.detector.grade_us_per_window": rp.grade_s * per_window,
            "core.detector.grade_batched_us_per_window": rp.grade_batched_s * per_window,
            "core.runtime.verdict_us_per_execution": rp.verdict_s * per_execution,
            "obs.quality.observe_us_per_execution": rp.quality_s * per_execution,
            "obs.health.observe_us_per_verdict": rp.health_s * per_execution,
            "obs.metrics.update_us": rp.metrics_s * per_execution,
            "serve.service.unattributed_us_per_window": e2e_us - attributed,
            "ledger.unattributed_share": (e2e_us - attributed) / e2e_us,
            "ledger.trace_cost_s": rp.wall_s,
        }
        if not fleet:
            per_message = 1e6 / rp.messages
            row["serve.bus.publish_us_per_message"] = rp.publish_s * per_message
            row["serve.bus.consume_us_per_message"] = rp.consume_s * per_message
            row["serve.bus.handoff_us_per_message"] = rp.handoff_s * per_message
        rows.append(row)
    layers = _median_of(rows)
    if fleet:
        apps = workload.counter("fleet_apps_total")
        layers["obs.overhead_share"] = (on_wall - off_wall) / on_wall
        layers["core.fleet.retries_per_execution"] = (
            workload.counter("fleet_retries_total") / apps
        )
        layers["core.fleet.degraded_share"] = (
            workload.counter("fleet_degraded_verdicts_total") / apps
        )
    else:
        layers["serve.service.backpressure_waits_per_kwindow"] = (
            workload.backpressure_waits * 1000.0 / on[-1].windows
        )
    lines = [f"end to end {e2e_us:10.2f} us/window (untraced median)"]
    lines += [
        f"{key:45s} {layers[key]:12.3f}"
        for key in PER_LAYER if key in layers
    ]
    if fleet:
        lines.append(
            f"hooks on {on_wall:.4f} s/pass, hooks off {off_wall:.4f} s/pass"
        )
    return layers, lines, attempted, failed


def _training_layers(seeds: Seeds, sizes: Sizes) -> tuple[dict, list[str], int, int]:
    """The training ledger: one traced pass of the learner x ensemble grid."""
    grid = matrix.TrainingGrid(
        seeds, sizes.matrix_windows_per_app, matrix.grid(sizes.matrix_classifiers)
    )
    rp = matrix.replay(grid)
    layers = {
        "workloads.corpus_s": rp.corpus_s,
        "features.rank_s": rp.rank_s,
        **{f"ml.fit_s.{key}": value for key, value in rp.fit_s.items()},
        "ml.eval_s": rp.eval_s,
    }
    fit_total = sum(rp.fit_s[name] for name in CLASSIFIER_NAMES)
    attributed = rp.corpus_s + rp.rank_s + fit_total + rp.eval_s
    lines = [
        f"training grid: traced pass {rp.wall_s:.4f} s, stages {attributed:.4f} s"
    ] + [f"{key:45s} {value:12.4f}" for key, value in layers.items()]
    return layers, lines, rp.attempted, rp.failed


def run(
    name: str, seed: int, seconds: float, trace: bool, sizes: Sizes,
    root: Path, work_dir: Path,
) -> tuple[dict, list[str]]:
    """One benchmark run; returns the result object and the report lines."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
    seeds = Seeds.from_seed(seed)
    setups = SetUps(sizes.setup_windows_per_app, work_dir)
    deployment = setups.deployment
    # Untraced runs set up again between passes, evenly over the run.
    setup_repeats = 1 if trace else sizes.setup_repeats
    start = time.perf_counter()
    workload = make_workload(name, deployment, seeds, sizes)
    prepare_s = time.perf_counter() - start
    warm = workload.run_pass()  # untimed: threads, allocator and caches warm up
    attempted, failed = warm.attempted, warm.failed

    # Warm starts run between passes, so they sample the whole run.
    warm_starts = WarmStarts(deployment, warm_start_trace(seeds), sizes.warm_starts)
    workload_pass = workload.run_pass
    alternate = trace and name == "fleet-observed"
    if alternate:
        # Hooks-on passes alternate with hooks-off passes, to measure
        # the hooks' share of the wall time.
        hooks = itertools.cycle((True, False))
        workload_pass = lambda: workload.run_pass(hooks=next(hooks))  # noqa: E731

    def run_pass():
        reset_peak_rss()
        done = workload_pass()
        pass_peaks.append(peak_rss_mib())
        elapsed = time.perf_counter() - started
        warm_starts.run_due(elapsed / seconds if seconds else 1.0)
        due = seconds * len(setups.times) / setup_repeats
        if len(setups.times) < setup_repeats and elapsed >= due:
            setups.run()
        return done

    pass_peaks: list[float] = []
    started = time.perf_counter()
    passes = run_passes(run_pass, seconds, sizes.min_passes)
    warm_starts.run_due(1.0)
    while len(setups.times) < setup_repeats:
        setups.run()
    if alternate and len(passes) % 2:
        passes.append(run_pass())
    attempted += sum(p.attempted for p in passes) + len(warm_starts.load_s)
    failed += sum(p.failed for p in passes) + warm_starts.failed
    loads, firsts = warm_starts.load_s, warm_starts.first_verdict_s

    report = [
        "stamp " + json.dumps(stamp(root, seed)),
        f"workload {name}: set-up {len(setups.times)}x, prepare {prepare_s:.3f} s, "
        f"{len(passes)} passes",
    ]
    if trace:
        values = dict.fromkeys(PER_LAYER, 0.0)
        lines = []
        for layers, ledger_lines, replay_attempted, replay_failed in (
            _streaming_layers(name, workload, passes, sizes),
            _training_layers(seeds, sizes),
        ):
            attempted += replay_attempted
            failed += replay_failed
            values.update(layers)
            lines += ledger_lines
        values["registry.load_ms"] = statistics.fmean(loads) * 1e3
        values["registry.first_verdict_ms"] = statistics.fmean(firsts) * 1e3
        values["registry.payload_bytes"] = deployment.payload_bytes
        metrics = _metric(PER_LAYER, values)
        report += ["ledger:"] + ["  " + line for line in lines]
    else:
        values = {
            "setup_s": median(setups.times),
            "windows_per_s": median([p.windows / p.wall_s for p in passes]),
            "cpu_us_per_window": median([p.cpu_s / p.windows for p in passes]) * 1e6,
            # A mean, not a median: a start lasts milliseconds, and the
            # host switches between a fast and a slow state (about 4 and
            # 7 ms a start) as often as every second.  Starts sample both
            # states in a share that varies little from run to run; their
            # median jumps between the states when the share nears half.
            "warm_start_ms": (statistics.fmean(loads) + statistics.fmean(firsts)) * 1e3,
            "pass_wall_s": median([p.wall_s for p in passes]),
            "peak_rss_mib": max(pass_peaks),
        }
        metrics = _metric(END_TO_END, values)
        walls = sorted(p.wall_s for p in passes)
        line = f"pass wall: {len(walls)} passes, median {median(walls):.6f} s"
        if len(walls) > 10:
            rank = len(walls) - 10  # the highest rank with ten passes beyond it
            line += f", p{100 * rank // len(walls)} {walls[rank - 1]:.6f} s"
        report.append(line)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return result, report
