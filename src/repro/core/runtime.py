"""Run-time streaming detection — the deployment the paper argues for.

A trained detector whose event budget fits the physical counter registers
can classify every 10 ms window of a *single* execution, with no re-runs
and no multiplexing error.  :class:`RuntimeMonitor` wires a fitted
:class:`~repro.core.detector.HMDDetector` to the counter register file
and streams verdicts; :class:`DetectionVerdict` aggregates per-window
decisions into an application-level alarm with a configurable vote.

The constructor enforces the paper's central practicality constraint: a
detector that monitors more events than there are registers cannot run
at run time and is rejected outright.

:class:`DetectionVerdict` also carries the degraded-evidence fields
(``confidence`` / ``n_windows_lost`` / ``degraded``) used by
:class:`~repro.core.fleet.FleetMonitor` when windows are lost to
injected faults; a pristine single-execution verdict always reports
full confidence with nothing lost, so serial and fleet verdicts stay
bit-comparable.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.core.detector import HMDDetector
from repro.hpc.counters import CounterCapacityError, CounterRegisterFile, sample_trace
from repro.hpc.events import ALL_EVENTS
from repro.hpc.lxc import ContainerPool
from repro.hpc.microarch import DEFAULT_WINDOW_MS, ApplicationBehavior
from repro.obs import (
    FAST_LATENCY_BUCKETS,
    NULL_REGISTRY,
    NULL_TRACER,
    HealthEvaluator,
    QualityTracker,
    Registry,
    Tracer,
)


def validate_deployment(
    detector: HMDDetector, n_counters: int, vote_threshold: float
) -> None:
    """Reject deployments that cannot run at run time.

    Shared by :class:`RuntimeMonitor` and
    :class:`~repro.core.fleet.FleetMonitor` so both enforce the paper's
    register-capacity constraint identically.
    """
    if not detector.fitted_:
        raise RuntimeError("detector must be fitted before deployment")
    if not 0.0 < vote_threshold <= 1.0:
        raise ValueError("vote_threshold must be in (0, 1]")
    events = detector.monitored_events
    if len(events) > n_counters:
        raise CounterCapacityError(
            f"detector monitors {len(events)} events but the CPU has "
            f"{n_counters} counter registers; run-time detection needs "
            f"a detector with n_hpcs <= {n_counters}"
        )


def reduce_trace(
    detector: HMDDetector,
    n_counters: int,
    trace: np.ndarray,
    register_file: CounterRegisterFile | None = None,
) -> np.ndarray:
    """Sample a raw 44-event trace down to the detector's feature windows.

    Args:
        detector: fitted detector whose events are programmed.
        n_counters: register-file capacity when ``register_file`` is None.
        trace: array ``(n_windows, 44)`` of raw event activity.
        register_file: optional pre-built register file (e.g. a
            :class:`~repro.hpc.faults.GlitchyCounterRegisterFile`); a
            pristine one is built when omitted.

    Returns:
        Per-window counter readings ``(n_windows, n_monitored_events)``
        — the exact matrix the detector classifies, and the matrix the
        quality tracker profiles.
    """
    if register_file is None:
        register_file = CounterRegisterFile(n_counters)
    register_file.program(list(detector.monitored_events))
    return sample_trace(register_file, trace, ALL_EVENTS)


def grade_trace(
    detector: HMDDetector,
    n_counters: int,
    trace: np.ndarray,
    register_file: CounterRegisterFile | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sample a raw 44-event trace once and grade it once.

    Args:
        detector: fitted detector whose events are programmed.
        n_counters: register-file capacity when ``register_file`` is None.
        trace: array ``(n_windows, 44)`` of raw event activity.
        register_file: optional pre-built register file (e.g. a
            :class:`~repro.hpc.faults.GlitchyCounterRegisterFile`, whose
            glitch raises, so a completed reduction equals a pristine
            one); a pristine one is built when omitted.

    Returns:
        ``(flags, readings, scores)``: per-window 0/1 flags, the counter
        readings they were graded from, and the malware-class scores —
        one batch through :meth:`~repro.core.detector.HMDDetector.
        grade_windows`, never a per-window loop.  An empty trace grades
        to empty arrays without touching the registers.
    """
    if trace.shape[0] == 0:
        readings = np.zeros((0, detector.config.n_hpcs))
        return np.zeros(0, dtype=np.intp), readings, np.zeros(0)
    readings = reduce_trace(detector, n_counters, trace, register_file)
    flags, scores = detector.grade_windows(readings)
    return flags, readings, scores


def classify_trace(
    detector: HMDDetector,
    n_counters: int,
    trace: np.ndarray,
    register_file: CounterRegisterFile | None = None,
) -> np.ndarray:
    """The per-window 0/1 flags of :func:`grade_trace`."""
    return grade_trace(detector, n_counters, trace, register_file)[0]


def observe_execution_quality(
    quality: QualityTracker,
    detector: HMDDetector,
    n_counters: int,
    trace: np.ndarray,
    verdict: "DetectionVerdict",
    vote_threshold: float,
    truth: bool,
    host: str,
    ts: float | None = None,
    readings: np.ndarray | None = None,
    scores: np.ndarray | None = None,
) -> None:
    """Feed one classified execution to a quality tracker.

    Shared by :class:`RuntimeMonitor`, the fleet, and the serving stack
    so all three score drift identically: the execution's reduced
    windows are scored with the detector's graded outputs and handed to
    the tracker along with the verdict's vote margin and the ground
    truth that calibrates the score bins.  The drivers pass the
    ``readings`` and ``scores`` their verdict came from
    (:func:`grade_trace`), so nothing is computed twice; a caller that
    passes neither gets them from a pristine re-reduction of ``trace``.
    The tracker only observes — the verdict is already final.
    """
    if readings is None:
        readings = reduce_trace(detector, n_counters, trace)
    if scores is None:
        scores = detector.decision_scores_windows(readings)
    quality.observe_execution(
        host,
        readings,
        scores,
        margin=verdict.malware_fraction - vote_threshold,
        truth=truth,
        ts=ts,
    )


def detection_latency_windows(
    window_flags: np.ndarray, vote_threshold: float
) -> int | None:
    """First window index at which the cumulative vote crosses the
    alarm threshold, or None if it never does.

    This is the run-time detection delay (in sampling windows) the
    paper's run-time argument is about.
    """
    flags = np.asarray(window_flags)
    if flags.size == 0:
        return None
    cumulative = np.cumsum(flags) / (np.arange(flags.size) + 1)
    crossed = np.flatnonzero(cumulative >= vote_threshold)
    return int(crossed[0]) if crossed.size else None


@dataclass(frozen=True, eq=False)
class DetectionVerdict:
    """Outcome of monitoring one application execution.

    Attributes:
        app_name: monitored application.
        window_flags: per-window 0/1 classifications, stored as a
            read-only copy (the verdict is evidence; callers must not
            be able to rewrite it, and the constructor's array may be
            reused by the caller).
        malware_fraction: fraction of surviving windows flagged malicious.
        is_malware: application-level alarm decision.
        confidence: fraction of requested windows that survived faults
            (1.0 for a pristine execution, 0.0 when every window was
            lost and the quorum is vacuous).
        n_windows_lost: windows requested but never classified (dropped
            by the sampler, lost to a container crash, or lost to a
            counter-read glitch).
        degraded: True when the verdict rests on partial evidence.
        n_windows: number of windows actually observed.
    """

    app_name: str
    window_flags: np.ndarray
    malware_fraction: float
    is_malware: bool
    confidence: float = 1.0
    n_windows_lost: int = 0
    degraded: bool = False

    def __post_init__(self) -> None:
        flags = np.array(self.window_flags, dtype=np.intp, copy=True)
        flags.setflags(write=False)
        object.__setattr__(self, "window_flags", flags)

    @classmethod
    def from_flags(
        cls,
        app_name: str,
        window_flags: np.ndarray,
        vote_threshold: float,
        n_windows_lost: int = 0,
        degraded: bool = False,
    ) -> "DetectionVerdict":
        """Build a verdict from per-window flags by quorum vote.

        The vote runs over the *surviving* windows only: the alarm is
        raised when the flagged fraction of observed windows reaches
        ``vote_threshold``, and ``confidence`` reports how much of the
        requested evidence that quorum actually saw.
        """
        if not 0.0 < vote_threshold <= 1.0:
            raise ValueError("vote_threshold must be in (0, 1]")
        if n_windows_lost < 0:
            raise ValueError("n_windows_lost cannot be negative")
        flags = np.asarray(window_flags)
        fraction = float(flags.mean()) if flags.size else 0.0
        requested = int(flags.size) + n_windows_lost
        confidence = float(flags.size) / requested if requested else 1.0
        return cls(
            app_name=app_name,
            window_flags=flags,
            malware_fraction=fraction,
            is_malware=fraction >= vote_threshold,
            confidence=confidence,
            n_windows_lost=n_windows_lost,
            degraded=degraded or n_windows_lost > 0,
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DetectionVerdict):
            return NotImplemented
        return (
            self.app_name == other.app_name
            and np.array_equal(self.window_flags, other.window_flags)
            and self.malware_fraction == other.malware_fraction
            and self.is_malware == other.is_malware
            and self.confidence == other.confidence
            and self.n_windows_lost == other.n_windows_lost
            and self.degraded == other.degraded
        )

    def __hash__(self) -> int:
        return hash(
            (
                self.app_name,
                self.window_flags.tobytes(),
                self.malware_fraction,
                self.is_malware,
                self.confidence,
                self.n_windows_lost,
                self.degraded,
            )
        )

    @property
    def n_windows(self) -> int:
        return int(self.window_flags.size)

    @property
    def n_windows_requested(self) -> int:
        return self.n_windows + self.n_windows_lost


class RuntimeMonitor:
    """Streams HPC windows of a live execution through a detector.

    Args:
        detector: fitted detector; its event budget must not exceed
            ``n_counters`` (otherwise run-time detection is impossible
            and :class:`~repro.hpc.counters.CounterCapacityError` raises).
        n_counters: physical counter registers of the deployment CPU.
        vote_threshold: fraction of flagged windows that raises the
            application-level alarm.
        window_ms: sampling interval.
        tracer: optional :class:`~repro.obs.Tracer`; every monitored
            execution records ``monitor.app`` / ``monitor.execute`` /
            ``monitor.classify`` spans and one ``monitor.verdict``
            stream event.
        metrics: optional :class:`~repro.obs.Registry` exposing the
            paper's run-time quantities: a per-window classification
            latency histogram (amortized over the vectorized batch) and
            a windows-to-alarm detection-latency gauge.
        health: optional :class:`~repro.obs.HealthEvaluator` fed each
            verdict and classify latency in-process (no file
            round-trip); it observes but never alters verdicts, and
            None costs one attribute check per execution.
        quality: optional :class:`~repro.obs.QualityTracker` fed each
            execution's reduced feature windows, graded scores, and
            vote margin for drift scoring against a reference profile;
            like ``health`` it observes but never alters verdicts, and
            None costs one attribute check per execution.
    """

    def __init__(
        self,
        detector: HMDDetector,
        n_counters: int = 4,
        vote_threshold: float = 0.5,
        window_ms: float = DEFAULT_WINDOW_MS,
        tracer: Tracer | None = None,
        metrics: Registry | None = None,
        health: HealthEvaluator | None = None,
        quality: QualityTracker | None = None,
    ) -> None:
        validate_deployment(detector, n_counters, vote_threshold)
        self.detector = detector
        self.n_counters = n_counters
        self.vote_threshold = vote_threshold
        self.window_ms = window_ms
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics if metrics is not None else NULL_REGISTRY
        self.health = health
        self.quality = quality
        self._h_classify = self.metrics.histogram(
            "monitor_window_classify_seconds",
            "per-window classification latency (amortized over the batch)",
            buckets=FAST_LATENCY_BUCKETS,
        )
        self._g_latency = self.metrics.gauge(
            "monitor_detection_latency_windows",
            "windows until the last monitored app crossed the alarm "
            "threshold (-1 = never crossed)",
        )
        self._c_windows = self.metrics.counter(
            "monitor_windows_total", "sampling windows classified"
        )
        self._c_apps = self.metrics.counter(
            "monitor_apps_total", "application executions monitored"
        )
        self._c_alarms = self.metrics.counter(
            "monitor_alarms_total", "application-level malware alarms raised"
        )

    def monitor(
        self,
        app: ApplicationBehavior,
        n_windows: int,
        pool: ContainerPool,
        is_malware: bool,
    ) -> DetectionVerdict:
        """Execute an application once and classify every window live.

        ``is_malware`` is the ground truth used only by the execution
        substrate (container contamination); the verdict comes from the
        detector alone.
        """
        with self.tracer.span("monitor.app", app=app.name, n_windows=n_windows):
            with self.tracer.span("monitor.execute", app=app.name):
                trace = pool.run(
                    app, n_windows, is_malware, window_ms=self.window_ms
                )
            with self.tracer.span("monitor.classify", app=app.name):
                start = time.perf_counter()
                flags, readings, scores = grade_trace(
                    self.detector, self.n_counters, trace
                )
                elapsed = time.perf_counter() - start
            verdict = DetectionVerdict.from_flags(
                app.name, flags, self.vote_threshold
            )
        n = int(flags.size)
        self._c_windows.inc(n)
        if n:
            # The detector classifies the batch vectorized; the honest
            # per-window figure is the amortized share of that batch.
            self._h_classify.observe_many(elapsed / n, n)
        latency = self.detection_latency_windows(verdict)
        self._g_latency.set(-1 if latency is None else latency)
        self._c_apps.inc()
        if verdict.is_malware:
            self._c_alarms.inc()
        self.tracer.event(
            "monitor.verdict",
            app=app.name,
            is_malware=verdict.is_malware,
            malware_fraction=verdict.malware_fraction,
            n_windows=verdict.n_windows,
            detection_latency_windows=latency,
        )
        if self.health is not None:
            if n:
                self.health.observe_classify(elapsed / n, n)
            self.health.observe_verdict(
                app.name,
                is_malware=verdict.is_malware,
                degraded=verdict.degraded,
                n_windows=verdict.n_windows,
                n_windows_lost=verdict.n_windows_lost,
            )
        if self.quality is not None:
            observe_execution_quality(
                self.quality, self.detector, self.n_counters, trace,
                verdict, self.vote_threshold, is_malware, app.name,
                readings=readings, scores=scores,
            )
        return verdict

    def detection_latency_windows(self, verdict: DetectionVerdict) -> int | None:
        """First window index at which the cumulative vote crosses the
        alarm threshold, or None if it never does.
        """
        return detection_latency_windows(verdict.window_flags, self.vote_threshold)
