"""The streaming workloads (serve-short, serve-long, fleet-observed) and their ledger.

Each workload owns a seeded job list and a reference verdict list made
during preparation; every timed pass is checked verdict by verdict
against that reference.  :func:`replay` is the traced run: it drives the
same jobs through the public call of each layer, one layer at a time,
and times every call from outside the program.
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass

import numpy as np

from repro.core.fleet import FleetJob, FleetMonitor, RetryPolicy
from repro.core.runtime import (
    DetectionVerdict,
    RuntimeMonitor,
    observe_execution_quality,
    reduce_trace,
)
from repro.hpc.faults import FaultPlan
from repro.hpc.lxc import ContainerPool
from repro.hpc.microarch import ApplicationBehavior
from repro.obs import (
    FAST_LATENCY_BUCKETS,
    HealthEvaluator,
    QualityTracker,
    Registry,
    build_reference_profile,
    parse_alert_spec,
    parse_slo,
)
from repro.serve import (
    SHUTDOWN,
    Channel,
    DetectionService,
    ServeJob,
    WindowClosed,
    WindowSample,
)
from repro.workloads.benign import BENIGN_FAMILIES
from repro.workloads.dataset import MALWARE
from repro.workloads.malware import MALWARE_FAMILIES

from perfbench.common import (
    N_COUNTERS,
    VOTE_THRESHOLD,
    Deployment,
    Pass,
    Seeds,
    mismatches,
    timed,
)

#: Bound of the service's shard channel.
QUEUE_DEPTH = 16
FLEET_WORKERS = 2
#: Seeded substrate faults of fleet-observed: retried crashes and glitches.
FLEET_CRASH_RATE = 0.1
FLEET_GLITCH_RATE = 0.1
#: Event time the health and quality hooks see advance per observation:
#: one 20-window execution at the paper's 10 ms sampling interval.
HOOK_CLOCK_STEP_S = 0.2
HEALTH_RULES = (
    "degraded_ratio>=0.2:critical:5:0.1",
    "windows_lost_fraction>=0.1:warning",
    "retry_rate>=0.5:warning:10",
    "detection_rate>=0.9:info",
)
HEALTH_SLOS = ("nondegraded>=0.95", "windows_kept>=0.9", "p95_classify_s<=0.01")


def serve_jobs(seed: int, rounds: int, n_windows: int) -> list[ServeJob]:
    """One seeded instance of each of the 18 families, repeated ``rounds`` times.

    Each round runs on its own host, named ``<app>.<round>``: the fleet
    draws faults per application name, so distinct names give every job
    its own draws, and the retry work of a job list varies less from
    seed to seed than with 18 names repeated.
    """
    rng = np.random.default_rng(seed)
    apps = [
        (family.instantiate(rng)[0], family.label == MALWARE)
        for family in BENIGN_FAMILIES + MALWARE_FAMILIES
    ]
    return [
        ServeJob(
            ApplicationBehavior(f"{app.name}.{round_}", app.phases, app.mean_dwell_windows),
            n_windows,
            truth,
        )
        for round_ in range(rounds)
        for app, truth in apps
    ]


def _hook_clock():
    """A deterministic event-time clock, so every pass does the same hook work."""
    return itertools.count(0.0, HOOK_CLOCK_STEP_S).__next__


def _health(metrics: Registry) -> HealthEvaluator:
    return HealthEvaluator(
        rules=[parse_alert_spec(spec) for spec in HEALTH_RULES],
        slos=[parse_slo(spec) for spec in HEALTH_SLOS],
        window_s=30.0,
        metrics=metrics,
        clock=_hook_clock(),
    )


class ServeWorkload:
    """``DetectionService`` at 1 producer x 1 worker, hooks off."""

    def __init__(self, deployment: Deployment, seeds: Seeds, jobs: list[ServeJob]):
        self.detector = deployment.detector
        self.pool_seed = seeds.pool
        self.jobs = jobs
        monitor = RuntimeMonitor(
            self.detector, n_counters=N_COUNTERS, vote_threshold=VOTE_THRESHOLD
        )
        self.reference = [
            monitor.monitor(
                job.app, job.n_windows, ContainerPool(seed=self.pool_seed + i),
                job.is_malware,
            )
            for i, job in enumerate(jobs)
        ]
        self.backpressure_waits = 0

    def run_pass(self) -> Pass:
        service = DetectionService(
            self.detector,
            producers=1,
            workers=1,
            queue_depth=QUEUE_DEPTH,
            n_counters=N_COUNTERS,
            vote_threshold=VOTE_THRESHOLD,
            pool_seed=self.pool_seed,
        )
        report, wall, cpu = timed(service.run, self.jobs)
        self.backpressure_waits = report.backpressure_waits
        return Pass(
            wall, cpu, report.n_windows, len(self.jobs),
            mismatches(report.verdicts, self.reference),
        )


class FleetWorkload:
    """``FleetMonitor`` with 2 workers, seeded faults, and every hook on."""

    def __init__(self, deployment: Deployment, seeds: Seeds, jobs: list[ServeJob]):
        self.detector = deployment.detector
        self.pool_seed = seeds.pool
        self.jobs = jobs
        self.fleet_jobs = [
            FleetJob(job.app, job.n_windows, job.is_malware) for job in jobs
        ]
        self.plan = FaultPlan(
            seed=seeds.faults,
            crash_rate=FLEET_CRASH_RATE,
            glitch_rate=FLEET_GLITCH_RATE,
        )
        self.profile = build_reference_profile(self.detector, deployment.split.train)
        self.reference = self._fleet(hooks=False)[0]
        self.metrics = Registry()

    def _fleet(self, hooks: bool):
        metrics = Registry() if hooks else None
        fleet = FleetMonitor(
            self.detector,
            workers=FLEET_WORKERS,
            n_counters=N_COUNTERS,
            vote_threshold=VOTE_THRESHOLD,
            faults=self.plan,
            retry=RetryPolicy(base_backoff_s=0.0),
            pool_seed=self.pool_seed,
            metrics=metrics,
            health=_health(metrics) if hooks else None,
            quality=(
                QualityTracker(self.profile, metrics=metrics, clock=_hook_clock())
                if hooks else None
            ),
        )
        verdicts, wall, cpu = timed(fleet.monitor_fleet, self.fleet_jobs)
        return verdicts, wall, cpu, metrics

    def run_pass(self, hooks: bool = True) -> Pass:
        verdicts, wall, cpu, metrics = self._fleet(hooks)
        if hooks:
            self.metrics = metrics
        return Pass(
            wall, cpu, sum(v.n_windows for v in verdicts), len(self.jobs),
            mismatches(verdicts, self.reference),
        )

    def counter(self, name: str) -> float:
        """A counter of the last hooks-on pass's metrics registry."""
        return self.metrics.snapshot()["counters"].get(name, {}).get("value", 0.0)


# ----------------------------------------------------------------------
# the traced replay
# ----------------------------------------------------------------------
@dataclass
class Replay:
    """Seconds spent in each layer while replaying one job list."""

    executions: int = 0
    windows: int = 0
    run_s: float = 0.0
    reduce_s: float = 0.0
    grade_s: float = 0.0
    grade_calls: int = 0
    grade_batched_s: float = 0.0
    verdict_s: float = 0.0
    messages: int = 0
    publish_s: float = 0.0
    consume_s: float = 0.0
    handoff_s: float = 0.0
    quality_s: float = 0.0
    health_s: float = 0.0
    metrics_s: float = 0.0
    wall_s: float = 0.0
    verdicts: tuple = ()


def _bus_handoff(jobs: list[ServeJob], traces: list[np.ndarray], depth: int, out: Replay):
    """Move the jobs' window and close messages through a two-thread channel."""
    channel = Channel("perfbench", depth)
    spent = [0.0]

    def produce():
        for index, (job, trace) in enumerate(zip(jobs, traces)):
            host = job.host_name
            messages = [
                WindowSample(host, index, seq, trace[seq])
                for seq in range(trace.shape[0])
            ]
            messages.append(WindowClosed(host, index, job.app.name, job.n_windows))
            for message in messages:
                start = time.perf_counter()
                channel.publish(message)
                spent[0] += time.perf_counter() - start
        channel.publish(SHUTDOWN)

    started = time.perf_counter()
    producer = threading.Thread(target=produce, name="perfbench-producer")
    producer.start()
    try:
        while True:
            start = time.perf_counter()
            message = channel.consume(timeout=60.0)
            if message is SHUTDOWN:
                break
            out.consume_s += time.perf_counter() - start
            out.messages += 1
    finally:
        producer.join(timeout=60.0)
    if producer.is_alive():
        raise RuntimeError("bus replay producer did not finish")
    out.handoff_s = time.perf_counter() - started
    out.publish_s = spent[0]


def replay(workload: ServeWorkload | FleetWorkload) -> Replay:
    """Drive the workload's jobs through each layer's public call, timing each.

    The fleet replay adds its hooks' work; the serve replay adds the bus.
    """
    detector = workload.detector
    out = Replay()
    started = time.perf_counter()
    traces, readings_all, verdicts = [], [], []
    for index, job in enumerate(workload.jobs):
        t0 = time.perf_counter()
        trace = ContainerPool(seed=workload.pool_seed + index).run(
            job.app, job.n_windows, job.is_malware
        )
        t1 = time.perf_counter()
        readings = reduce_trace(detector, N_COUNTERS, trace)
        t2 = time.perf_counter()
        flags = detector.predict_windows(readings)
        t3 = time.perf_counter()
        verdict = DetectionVerdict.from_flags(job.app.name, flags, VOTE_THRESHOLD)
        t4 = time.perf_counter()
        out.run_s += t1 - t0
        out.reduce_s += t2 - t1
        out.grade_s += t3 - t2
        out.verdict_s += t4 - t3
        out.grade_calls += 1
        out.windows += int(flags.size)
        traces.append(trace)
        readings_all.append(readings)
        verdicts.append(verdict)
    out.executions = len(workload.jobs)
    out.verdicts = tuple(verdicts)

    stacked = np.concatenate(readings_all)
    start = time.perf_counter()
    detector.predict_windows(stacked)
    out.grade_batched_s = time.perf_counter() - start

    if isinstance(workload, FleetWorkload):
        _replay_hooks(workload, traces, verdicts, out)
    else:
        _bus_handoff(workload.jobs, traces, QUEUE_DEPTH, out)
    out.wall_s = time.perf_counter() - started
    return out


def _replay_hooks(workload: FleetWorkload, traces, verdicts, out: Replay):
    """The per-execution work of the fleet's quality, health and metrics hooks."""
    metrics = Registry()
    quality = QualityTracker(workload.profile, metrics=metrics, clock=_hook_clock())
    health = _health(metrics)
    lock = threading.Lock()
    c_apps = metrics.counter("fleet_apps_total")
    c_windows = metrics.counter("fleet_windows_total")
    c_alarms = metrics.counter("fleet_alarms_total")
    h_classify = metrics.histogram(
        "fleet_window_classify_seconds", buckets=FAST_LATENCY_BUCKETS
    )
    per_window = out.grade_s / max(out.windows, 1)
    for job, trace, verdict in zip(workload.jobs, traces, verdicts):
        n = verdict.n_windows
        t0 = time.perf_counter()
        observe_execution_quality(
            quality, workload.detector, N_COUNTERS, trace, verdict,
            VOTE_THRESHOLD, job.is_malware, job.app.name,
        )
        t1 = time.perf_counter()
        health.observe_classify(per_window, n)
        health.observe_verdict(
            job.app.name, is_malware=verdict.is_malware, degraded=verdict.degraded,
            n_windows=n, n_windows_lost=verdict.n_windows_lost,
        )
        t2 = time.perf_counter()
        with lock:
            h_classify.observe_many(per_window, n)
            c_apps.inc()
            c_windows.inc(n)
            if verdict.is_malware:
                c_alarms.inc()
        t3 = time.perf_counter()
        out.quality_s += t1 - t0
        out.health_s += t2 - t1
        out.metrics_s += t3 - t2
