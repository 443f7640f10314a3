"""One classification pass per execution, on every driver.

The oracle is the fleet as it was when its quality hook re-reduced each
execution through a pristine register file and re-graded it: the
``_attempt``/``_degrade`` bodies below classify with ``predict_windows``
and hand the tracker nothing but the trace.  The fleet now shares the
verdict's readings and scores with the tracker
(:func:`~repro.core.runtime.grade_trace`); verdicts and every piece of
quality evidence must come out equal, and each classified execution
must cost exactly one ``predict_proba`` call on the monitor, the fleet
and the service alike.
"""

from __future__ import annotations

import itertools
import json
import time

import numpy as np
import pytest

from repro.core.config import DetectorConfig
from repro.core.detector import HMDDetector
from repro.core.fleet import FleetJob, FleetMonitor, RetryPolicy, _TransientFault
from repro.core.runtime import (
    DetectionVerdict,
    RuntimeMonitor,
    detection_latency_windows,
    grade_trace,
    observe_execution_quality,
    reduce_trace,
)
from repro.hpc.faults import (
    NO_FAULTS,
    ContainerCrashError,
    CounterReadGlitchError,
    FaultPlan,
    FaultyContainerPool,
    GlitchyCounterRegisterFile,
)
from repro.hpc.lxc import ContainerPool
from repro.obs import QualityTracker, Registry, Tracer, build_reference_profile
from repro.serve import DetectionService, ServeJob
from repro.workloads.benign import BENIGN_FAMILIES
from repro.workloads.dataset import MALWARE
from repro.workloads.malware import MALWARE_FAMILIES

POOL_SEED = 5
N_WINDOWS = 10
#: Crash, glitch, drop and permanent faults all fire on the job mix below.
PLAN = FaultPlan(
    seed=3, crash_rate=0.3, glitch_rate=0.3, drop_rate=0.1, permanent_rate=0.1
)
RETRY = RetryPolicy(max_attempts=3, base_backoff_s=0.0)
CELLS = [("REPTree", "general"), ("J48", "boosted"), ("SGD", "general")]


def _classify_trace_oracle(detector, n_counters, trace, register_file=None):
    if trace.shape[0] == 0:
        return np.zeros(0, dtype=np.intp)
    readings = reduce_trace(detector, n_counters, trace, register_file)
    return detector.predict_windows(readings)


class ReReducingFleet(FleetMonitor):
    """The fleet before one-pass grading: its quality hook re-reduces."""

    def _attempt(self, job, pool, attempt):
        draw = (
            self.faults.draw(job.app.name, attempt, job.n_windows)
            if self.faults is not None
            else NO_FAULTS
        )
        try:
            if isinstance(pool, FaultyContainerPool):
                trace = pool.run(
                    job.app,
                    job.n_windows,
                    job.is_malware,
                    window_ms=self.window_ms,
                    attempt=attempt,
                )
            else:
                trace = pool.run(
                    job.app, job.n_windows, job.is_malware, window_ms=self.window_ms
                )
        except ContainerCrashError as exc:
            raise _TransientFault("crash", exc.partial_trace) from exc
        n_lost = 0
        if draw.dropped:
            keep = np.setdiff1d(np.arange(trace.shape[0]), np.array(draw.dropped))
            n_lost = trace.shape[0] - keep.size
            trace = trace[keep]
        register_file = None
        if self.faults is not None:
            register_file = GlitchyCounterRegisterFile(
                self.n_counters, glitch_read=draw.glitch_read
            )
        try:
            start = time.perf_counter()
            flags = _classify_trace_oracle(
                self.detector, self.n_counters, trace, register_file=register_file
            )
            elapsed = time.perf_counter() - start
        except CounterReadGlitchError as exc:
            raise _TransientFault("glitch", trace[: exc.windows_read]) from exc
        if flags.size:
            per_window = elapsed / flags.size
            with self._metrics_lock:
                self._h_classify.observe_many(per_window, int(flags.size))
            if self.health is not None:
                self.health.observe_classify(per_window, int(flags.size))
        if n_lost:
            self._inc(self._c_dropped, n_lost)
        verdict = DetectionVerdict.from_flags(
            job.app.name, flags, self.vote_threshold, n_windows_lost=n_lost
        )
        if self.quality is not None:
            observe_execution_quality(
                self.quality, self.detector, self.n_counters, trace,
                verdict, self.vote_threshold, job.is_malware, job.app.name,
            )
        return verdict

    def _degrade(self, job, salvage_trace):
        flags = _classify_trace_oracle(self.detector, self.n_counters, salvage_trace)
        n_lost = job.n_windows - int(salvage_trace.shape[0])
        self._inc(self._c_dropped, n_lost)
        verdict = DetectionVerdict.from_flags(
            job.app.name,
            flags,
            self.vote_threshold,
            n_windows_lost=n_lost,
            degraded=True,
        )
        if self.quality is not None:
            observe_execution_quality(
                self.quality, self.detector, self.n_counters, salvage_trace,
                verdict, self.vote_threshold, job.is_malware, job.app.name,
            )
        return verdict


@pytest.fixture(scope="module", params=CELLS, ids=lambda c: f"{c[0]}-{c[1]}")
def detector(request, small_split):
    learner, ensemble = request.param
    config = DetectorConfig(learner, ensemble, 4)
    return HMDDetector(config).fit(small_split.train)


@pytest.fixture(scope="module")
def profile(detector, small_split):
    return build_reference_profile(detector, small_split.train)


@pytest.fixture(scope="module")
def jobs():
    rng = np.random.default_rng(23)
    return [
        FleetJob(family.instantiate(rng)[0], N_WINDOWS, family.label == MALWARE)
        for _ in range(2)
        for family in BENIGN_FAMILIES + MALWARE_FAMILIES
    ]


def _tracker(profile) -> QualityTracker:
    """A tracker on an event-time clock (0.2 s per observation), small
    enough a window that entries are evicted during the run."""
    ticks = itertools.count()
    return QualityTracker(
        profile, window_s=6.0, min_windows=16, min_executions=2,
        eval_interval_s=0.5, clock=lambda: 0.2 * next(ticks),
    )


def _run(cls, detector, profile, jobs, workers):
    tracker = _tracker(profile)
    metrics = Registry()
    fleet = cls(
        detector, workers=workers, faults=PLAN, retry=RETRY, pool_seed=POOL_SEED,
        metrics=metrics, quality=tracker, sleep=lambda _s: None,
    )
    return fleet.monitor_fleet(jobs), tracker, metrics


def _window_state(window) -> tuple:
    return (
        [ts for ts, _ in window._entries],
        window.feature.tobytes(),
        window.score.tobytes(),
        window.margin.tobytes(),
        window.cal.tobytes(),
        window.n_windows,
        window.n_nan,
        window.executions,
    )


def _totals(tracker: QualityTracker) -> tuple:
    return tracker.total_executions, tracker.total_windows, tracker.total_nan


def test_fleet_matches_re_reducing_oracle_serially(detector, profile, jobs):
    verdicts, tracker, metrics = _run(FleetMonitor, detector, profile, jobs, 1)
    expected, oracle, _ = _run(ReReducingFleet, detector, profile, jobs, 1)
    counters = metrics.snapshot()["counters"]
    for name in (
        "fleet_faults_crash_total",
        "fleet_faults_glitch_total",
        "fleet_faults_permanent_total",
        "fleet_windows_dropped_total",
        "fleet_degraded_verdicts_total",
    ):
        assert counters[name]["value"] > 0, name
    assert verdicts == expected
    assert _totals(tracker) == _totals(oracle)
    assert _window_state(tracker.window) == _window_state(oracle.window)
    assert sorted(tracker.hosts) == sorted(oracle.hosts)
    for host in tracker.hosts:
        assert _window_state(tracker.hosts[host]) == _window_state(oracle.hosts[host])
    assert json.dumps(tracker.report(), sort_keys=True) == json.dumps(
        oracle.report(), sort_keys=True
    )


def test_fleet_matches_re_reducing_oracle_threaded(detector, profile, jobs):
    verdicts, tracker, _ = _run(FleetMonitor, detector, profile, jobs, 4)
    expected, oracle, _ = _run(ReReducingFleet, detector, profile, jobs, 4)
    assert verdicts == expected
    assert _totals(tracker) == _totals(oracle)
    assert tracker.total_windows == sum(v.n_windows for v in verdicts)


def test_grade_trace_empty_trace_leaves_the_registers_alone(detector):
    register_file = GlitchyCounterRegisterFile(4, glitch_read=0)
    flags, readings, scores = grade_trace(
        detector, 4, np.zeros((0, 44)), register_file=register_file
    )
    assert flags.dtype == np.intp and flags.shape == (0,)
    assert readings.shape == reduce_trace(detector, 4, np.zeros((0, 44))).shape
    assert scores.shape == (0,)
    assert register_file.reads_completed == 0
    assert not register_file.programmed_events


# -- one predict_proba per classified execution --------------------------


@pytest.fixture
def proba_calls(detector, monkeypatch):
    """Counts the detector's top-level ``predict_proba`` calls."""
    calls = []
    inner = detector.model.predict_proba

    def spy(features):
        calls.append(len(features))
        return inner(features)

    monkeypatch.setattr(detector.model, "predict_proba", spy)
    return calls


@pytest.mark.parametrize("quality", [False, True], ids=["quality-off", "quality-on"])
def test_monitor_grades_each_execution_once(
    detector, profile, jobs, proba_calls, quality
):
    monitor = RuntimeMonitor(
        detector, quality=_tracker(profile) if quality else None
    )
    for i, job in enumerate(jobs[:6]):
        monitor.monitor(
            job.app, job.n_windows, ContainerPool(seed=POOL_SEED + i), job.is_malware
        )
    assert proba_calls == [N_WINDOWS] * 6


@pytest.mark.parametrize("quality", [False, True], ids=["quality-off", "quality-on"])
@pytest.mark.parametrize(
    "faults",
    [None, FaultPlan(seed=1, crash_rate=1.0)],
    ids=["success", "degrade"],
)
def test_fleet_grades_each_execution_once(
    detector, profile, jobs, proba_calls, quality, faults
):
    verdicts = FleetMonitor(
        detector, workers=1, faults=faults, retry=RetryPolicy(max_attempts=1),
        pool_seed=POOL_SEED, quality=_tracker(profile) if quality else None,
    ).monitor_fleet(jobs[:8])
    if faults is not None:
        assert all(v.degraded for v in verdicts)
    assert proba_calls == [v.n_windows for v in verdicts if v.n_windows]


@pytest.mark.parametrize("quality", [False, True], ids=["quality-off", "quality-on"])
def test_service_grades_each_execution_once(
    detector, profile, jobs, proba_calls, quality
):
    report = DetectionService(
        detector, pool_seed=POOL_SEED,
        quality=_tracker(profile) if quality else None,
    ).run([ServeJob(job.app, job.n_windows, job.is_malware) for job in jobs[:6]])
    assert len(report.verdicts) == 6
    assert proba_calls == [N_WINDOWS] * 6


# -- detection latency only for a consumer ------------------------------


@pytest.fixture
def latency_calls(monkeypatch):
    import repro.core.fleet
    import repro.serve.service

    calls = []

    def spy(flags, vote_threshold):
        calls.append(len(flags))
        return detection_latency_windows(flags, vote_threshold)

    monkeypatch.setattr(repro.core.fleet, "detection_latency_windows", spy)
    monkeypatch.setattr(repro.serve.service, "detection_latency_windows", spy)
    return calls


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
def test_latency_is_computed_only_for_a_tracer(detector, jobs, latency_calls, traced):
    tracer = Tracer() if traced else None
    FleetMonitor(
        detector, workers=1, pool_seed=POOL_SEED, tracer=tracer
    ).monitor_fleet(jobs[:4])
    DetectionService(detector, pool_seed=POOL_SEED, tracer=tracer).run(
        [ServeJob(job.app, job.n_windows, job.is_malware) for job in jobs[:4]]
    )
    assert len(latency_calls) == (8 if traced else 0)


def test_fleet_verdict_events_carry_detection_latency(detector, jobs):
    tracer = Tracer()
    verdicts = FleetMonitor(
        detector, workers=2, faults=PLAN, retry=RETRY, pool_seed=POOL_SEED,
        tracer=tracer, sleep=lambda _s: None,
    ).monitor_fleet(jobs)
    events = {
        e["attrs"]["index"]: e["attrs"]
        for e in tracer.events
        if e.get("name") == "fleet.verdict"
    }
    assert sorted(events) == list(range(len(jobs)))
    for index, verdict in enumerate(verdicts):
        assert events[index]["detection_latency_windows"] == (
            detection_latency_windows(verdict.window_flags, 0.5)
        )
