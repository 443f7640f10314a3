"""Fault-tolerant fleet monitoring: differential and property tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import DetectorConfig
from repro.core.detector import HMDDetector
from repro.core.fleet import FleetJob, FleetMonitor, RetryPolicy
from repro.core.runtime import DetectionVerdict, RuntimeMonitor
from repro.hpc.counters import CounterCapacityError
from repro.hpc.faults import FaultPlan
from repro.hpc.lxc import ContainerPool
from repro.obs import Registry, Tracer
from repro.workloads.benign import BENIGN_FAMILIES
from repro.workloads.dataset import MALWARE
from repro.workloads.malware import MALWARE_FAMILIES

POOL_SEED = 5
N_WINDOWS = 10


@pytest.fixture(scope="module")
def detector4(small_split):
    return HMDDetector(DetectorConfig("REPTree", "general", 4)).fit(small_split.train)


@pytest.fixture(scope="module")
def jobs():
    rng = np.random.default_rng(17)
    jobs = []
    for family in (BENIGN_FAMILIES + MALWARE_FAMILIES)[::3]:
        app = family.instantiate(rng)[0]
        jobs.append(FleetJob(app, N_WINDOWS, family.label == MALWARE))
    return jobs


def no_sleep(_seconds: float) -> None:
    pass


# -- construction ------------------------------------------------------


def test_fleet_rejects_over_budget_detector(small_split):
    wide = HMDDetector(DetectorConfig("J48", "general", 16)).fit(small_split.train)
    with pytest.raises(CounterCapacityError):
        FleetMonitor(wide, n_counters=4)


def test_fleet_rejects_bad_threshold(detector4):
    with pytest.raises(ValueError):
        FleetMonitor(detector4, vote_threshold=0.0)


def test_fleet_rejects_bad_workers(detector4):
    with pytest.raises(ValueError):
        FleetMonitor(detector4, workers=0)


def test_retry_policy_validation():
    with pytest.raises(ValueError):
        RetryPolicy(max_attempts=0)
    with pytest.raises(ValueError):
        RetryPolicy(jitter=1.0)
    with pytest.raises(ValueError):
        RetryPolicy(backoff_multiplier=0.5)
    with pytest.raises(ValueError):
        RetryPolicy(timeout_s=-1.0)


def test_retry_policy_backoff_deterministic_and_bounded():
    policy = RetryPolicy(
        base_backoff_s=0.1, backoff_multiplier=2.0, max_backoff_s=0.5, jitter=0.2
    )
    values = [
        policy.backoff_s(i, np.random.default_rng(42)) for i in range(6)
    ]
    again = [policy.backoff_s(i, np.random.default_rng(42)) for i in range(6)]
    assert values == again
    for i, value in enumerate(values):
        nominal = min(0.1 * 2.0**i, 0.5)
        assert nominal * 0.8 <= value <= nominal * 1.2


def test_retry_policy_backoff_finite_at_huge_retry_counts():
    """multiplier ** index overflows float range long before the cap is
    applied; the clamp must happen in log space so a pathological retry
    count still sleeps max_backoff_s, not inf (or raises OverflowError)."""
    policy = RetryPolicy(jitter=0.0)
    for index in (100, 1_000, 10_000, 2**20):
        value = policy.backoff_s(index, np.random.default_rng(0))
        assert np.isfinite(value)
        assert value == policy.max_backoff_s
    jittery = RetryPolicy(jitter=0.1)
    value = jittery.backoff_s(10_000, np.random.default_rng(0))
    assert np.isfinite(value)
    assert value <= jittery.max_backoff_s * 1.1


@settings(deadline=None, max_examples=60)
@given(
    base=st.floats(1e-6, 10.0),
    multiplier=st.floats(1.0, 16.0),
    max_backoff=st.floats(1e-6, 100.0),
    jitter=st.floats(0.0, 0.99),
    index=st.integers(0, 10_000),
)
def test_retry_policy_backoff_properties(base, multiplier, max_backoff, jitter, index):
    """Finite always; bounded by max_backoff_s * (1 + jitter); monotone
    non-decreasing in the retry index when jitter is off."""
    policy = RetryPolicy(
        base_backoff_s=base,
        backoff_multiplier=multiplier,
        max_backoff_s=max_backoff,
        jitter=jitter,
    )
    rng = np.random.default_rng(7)
    value = policy.backoff_s(index, rng)
    assert np.isfinite(value)
    assert 0.0 <= value <= max_backoff * (1.0 + jitter) * (1.0 + 1e-12)
    if jitter == 0.0 and index > 0:
        assert value >= policy.backoff_s(index - 1, rng)


# -- differential: fleet vs serial -------------------------------------


def test_fleet_matches_serial(detector4, jobs):
    """faults=None ⇒ bit-identical to a serial RuntimeMonitor sweep."""
    serial = RuntimeMonitor(detector4, n_counters=4)
    pool = ContainerPool(seed=POOL_SEED)
    serial_verdicts = [
        serial.monitor(job.app, job.n_windows, pool, job.is_malware) for job in jobs
    ]
    fleet = FleetMonitor(detector4, workers=4, pool_seed=POOL_SEED)
    fleet_verdicts = fleet.monitor_fleet(jobs)
    assert len(fleet_verdicts) == len(serial_verdicts)
    for serial_v, fleet_v in zip(serial_verdicts, fleet_verdicts):
        assert serial_v == fleet_v
        assert hash(serial_v) == hash(fleet_v)
        assert not fleet_v.degraded
        assert fleet_v.confidence == 1.0
        assert fleet_v.n_windows_lost == 0


def test_fleet_serial_worker_matches_threaded(detector4, jobs):
    one = FleetMonitor(detector4, workers=1, pool_seed=POOL_SEED).monitor_fleet(jobs)
    four = FleetMonitor(detector4, workers=4, pool_seed=POOL_SEED).monitor_fleet(jobs)
    assert one == four


@settings(max_examples=12, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    crash=st.floats(0.0, 1.0),
    glitch=st.floats(0.0, 1.0),
    drop=st.floats(0.0, 0.6),
    permanent=st.floats(0.0, 1.0),
)
def test_fleet_total_under_any_fault_plan(
    detector4, jobs, seed, crash, glitch, drop, permanent
):
    """Any seeded FaultPlan: one verdict per app, in order, never raises."""
    plan = FaultPlan(
        seed=seed,
        crash_rate=crash,
        glitch_rate=glitch,
        drop_rate=drop,
        permanent_rate=permanent,
    )
    fleet = FleetMonitor(
        detector4,
        workers=3,
        pool_seed=POOL_SEED,
        faults=plan,
        retry=RetryPolicy(max_attempts=2, base_backoff_s=0.0),
        sleep=no_sleep,
    )
    verdicts = fleet.monitor_fleet(jobs)
    assert len(verdicts) == len(jobs)
    for job, verdict in zip(jobs, verdicts):
        assert isinstance(verdict, DetectionVerdict)
        assert verdict.app_name == job.app.name
        assert 0.0 <= verdict.confidence <= 1.0
        assert 0 <= verdict.n_windows_lost <= job.n_windows
        assert verdict.n_windows + verdict.n_windows_lost <= job.n_windows
        if verdict.n_windows_lost:
            assert verdict.degraded


def test_fleet_faulted_run_replays_from_seed(detector4, jobs):
    plan = FaultPlan(seed=77, crash_rate=0.4, glitch_rate=0.3, drop_rate=0.15)
    kwargs = dict(
        pool_seed=POOL_SEED,
        faults=plan,
        retry=RetryPolicy(max_attempts=3, base_backoff_s=0.0),
        sleep=no_sleep,
    )
    first = FleetMonitor(detector4, workers=4, **kwargs).monitor_fleet(jobs)
    second = FleetMonitor(detector4, workers=2, **kwargs).monitor_fleet(jobs)
    assert first == second


# -- fault semantics ---------------------------------------------------


def test_fleet_degrades_when_every_attempt_crashes(detector4, jobs):
    sleeps = []
    metrics = Registry()
    fleet = FleetMonitor(
        detector4,
        workers=2,
        pool_seed=POOL_SEED,
        faults=FaultPlan(seed=1, crash_rate=1.0),
        retry=RetryPolicy(max_attempts=3, base_backoff_s=0.001),
        metrics=metrics,
        sleep=sleeps.append,
    )
    verdicts = fleet.monitor_fleet(jobs)
    assert all(v.degraded for v in verdicts)
    assert all(v.n_windows_lost > 0 for v in verdicts)
    snap = metrics.snapshot()["counters"]
    assert snap["fleet_faults_crash_total"]["value"] == 3 * len(jobs)
    assert snap["fleet_retries_total"]["value"] == 2 * len(jobs)
    assert snap["fleet_degraded_verdicts_total"]["value"] == len(jobs)
    assert len(sleeps) == 2 * len(jobs)
    assert all(s >= 0 for s in sleeps)


def test_fleet_drop_only_degrades_without_retrying(detector4, jobs):
    metrics = Registry()
    fleet = FleetMonitor(
        detector4,
        workers=2,
        pool_seed=POOL_SEED,
        faults=FaultPlan(seed=4, drop_rate=0.4),
        metrics=metrics,
        sleep=no_sleep,
    )
    verdicts = fleet.monitor_fleet(jobs)
    snap = metrics.snapshot()["counters"]
    assert snap["fleet_retries_total"]["value"] == 0
    for verdict in verdicts:
        assert verdict.n_windows + verdict.n_windows_lost == N_WINDOWS
        assert verdict.degraded == (verdict.n_windows_lost > 0)
    assert any(v.degraded for v in verdicts)


def test_fleet_permanent_fault_yields_empty_degraded_verdict(detector4, jobs):
    metrics = Registry()
    fleet = FleetMonitor(
        detector4,
        workers=2,
        pool_seed=POOL_SEED,
        faults=FaultPlan(seed=6, permanent_rate=1.0),
        metrics=metrics,
        sleep=no_sleep,
    )
    verdicts = fleet.monitor_fleet(jobs)
    for verdict in verdicts:
        assert verdict.degraded
        assert verdict.n_windows == 0
        assert verdict.n_windows_lost == N_WINDOWS
        assert verdict.confidence == 0.0
        assert not verdict.is_malware
    snap = metrics.snapshot()["counters"]
    assert snap["fleet_faults_permanent_total"]["value"] == len(jobs)
    assert snap["fleet_retries_total"]["value"] == 0


def test_fleet_timeout_stops_retrying(detector4, jobs):
    metrics = Registry()
    fleet = FleetMonitor(
        detector4,
        workers=1,
        pool_seed=POOL_SEED,
        faults=FaultPlan(seed=1, crash_rate=1.0),
        retry=RetryPolicy(max_attempts=5, base_backoff_s=0.0, timeout_s=0.0),
        metrics=metrics,
        sleep=no_sleep,
    )
    verdicts = fleet.monitor_fleet(jobs)
    assert all(v.degraded for v in verdicts)
    assert metrics.snapshot()["counters"]["fleet_retries_total"]["value"] == 0


def test_fleet_salvages_partial_crash_evidence(detector4):
    """A crash late in the run still leaves classifiable windows."""
    app = next(
        f for f in MALWARE_FAMILIES if f.name == "dos_flooder"
    ).instantiate(np.random.default_rng(0))[0]
    plan = FaultPlan(seed=11, crash_rate=1.0)
    fleet = FleetMonitor(
        detector4,
        workers=1,
        pool_seed=POOL_SEED,
        faults=plan,
        retry=RetryPolicy(max_attempts=1),
        sleep=no_sleep,
    )
    (verdict,) = fleet.monitor_fleet([FleetJob(app, 30, True)])
    crash_after = plan.draw(app.name, 0, 30).crash_after
    assert verdict.n_windows == crash_after
    assert verdict.n_windows_lost == 30 - crash_after
    assert verdict.degraded


# -- observability -----------------------------------------------------


def test_fleet_obs_wiring(detector4, jobs):
    tracer = Tracer()
    metrics = Registry()
    fleet = FleetMonitor(
        detector4,
        workers=2,
        pool_seed=POOL_SEED,
        faults=FaultPlan(seed=2, crash_rate=0.5, drop_rate=0.2),
        retry=RetryPolicy(max_attempts=2, base_backoff_s=0.001),
        tracer=tracer,
        metrics=metrics,
        sleep=no_sleep,
    )
    verdicts = fleet.monitor_fleet(jobs)
    events = tracer.events
    spans = [e for e in events if e["type"] == "span"]
    names = {e["name"] for e in events}
    assert {"fleet.run", "fleet.app", "fleet.verdict"} <= names
    app_spans = [s for s in spans if s["name"] == "fleet.app"]
    assert len(app_spans) == len(jobs)
    assert all("attempts" in s["attrs"] for s in app_spans)
    snap = metrics.snapshot()
    assert snap["counters"]["fleet_apps_total"]["value"] == len(jobs)
    assert snap["counters"]["fleet_windows_total"]["value"] == sum(
        v.n_windows for v in verdicts
    )
    retries = snap["counters"]["fleet_retries_total"]["value"]
    assert snap["histograms"]["fleet_backoff_sleep_seconds"]["count"] == retries


def test_fleet_accepts_tuple_jobs(detector4, jobs):
    fleet = FleetMonitor(detector4, workers=1, pool_seed=POOL_SEED)
    as_tuples = [(j.app, j.n_windows, j.is_malware) for j in jobs[:2]]
    assert fleet.monitor_fleet(as_tuples) == fleet.monitor_fleet(jobs[:2])


# -- in-process health hook --------------------------------------------


def test_fleet_with_health_is_bit_identical_to_serial(detector4, jobs):
    """Enabling health evaluation must not perturb verdicts."""
    from repro.obs import HealthEvaluator, parse_alert_spec

    serial = RuntimeMonitor(detector4, n_counters=4)
    pool = ContainerPool(seed=POOL_SEED)
    serial_verdicts = [
        serial.monitor(job.app, job.n_windows, pool, job.is_malware) for job in jobs
    ]
    health = HealthEvaluator(rules=[parse_alert_spec("degraded_ratio>=0.5:critical")])
    fleet = FleetMonitor(detector4, workers=4, pool_seed=POOL_SEED, health=health)
    fleet_verdicts = fleet.monitor_fleet(jobs)
    assert fleet_verdicts == serial_verdicts
    assert health.window.total_verdicts == len(jobs)
    assert health.window.total_degraded == 0
    assert not health.critical_fired()


def test_fleet_health_observes_faulted_run(detector4, jobs):
    from repro.obs import HealthEvaluator, parse_alert_spec

    health = HealthEvaluator(rules=[parse_alert_spec("degraded_ratio>=0.05:critical")])
    fleet = FleetMonitor(
        detector4,
        workers=2,
        pool_seed=POOL_SEED,
        faults=FaultPlan(seed=77, crash_rate=0.4, glitch_rate=0.3, drop_rate=0.15),
        sleep=no_sleep,
        health=health,
    )
    verdicts = fleet.monitor_fleet(jobs)
    assert health.window.total_verdicts == len(jobs)
    assert health.window.total_degraded == sum(v.degraded for v in verdicts)
    assert health.window.total_degraded > 0
    assert health.critical_fired()
    # Signal values agree with the verdicts the run actually produced.
    assert health.last_values["verdicts"] == float(len(jobs))


def test_fleet_trace_replay_yields_identical_alert_transitions(detector4, jobs):
    """The acceptance contract: one faulted run, many identical watches."""
    from repro.obs import HealthEvaluator, parse_alert_spec

    tracer = Tracer()
    fleet = FleetMonitor(
        detector4,
        workers=2,
        pool_seed=POOL_SEED,
        faults=FaultPlan(seed=77, crash_rate=0.4, glitch_rate=0.3, drop_rate=0.15),
        sleep=no_sleep,
        tracer=tracer,
    )
    fleet.monitor_fleet(jobs)
    events = [e for e in tracer.events if e["name"] == "fleet.verdict"]
    assert events

    def replay():
        evaluator = HealthEvaluator(
            rules=[parse_alert_spec("degraded_ratio>=0.05:critical:0:0.01")]
        )
        for event in events:
            evaluator.ingest(event)
        (state,) = evaluator.states
        return state.transitions

    first, second = replay(), replay()
    assert first == second
    assert first[0]["state"] == "firing"
    # Transition timestamps come from the trace, not the watcher's clock.
    trace_ts = {e["ts"] for e in events}
    assert all(t["ts"] in trace_ts for t in first)


def test_fleet_quality_tracking_keeps_verdicts_identical(
    detector4, jobs, small_split
):
    """The quality hook observes fleet executions without touching them."""
    from repro.obs import QualityTracker, build_reference_profile

    profile = build_reference_profile(detector4, small_split.train)
    baseline = FleetMonitor(
        detector4, workers=4, pool_seed=POOL_SEED
    ).monitor_fleet(jobs)
    tracker = QualityTracker(profile, window_s=1e9)
    tracked = FleetMonitor(
        detector4, workers=4, pool_seed=POOL_SEED, quality=tracker
    ).monitor_fleet(jobs)
    assert tracked == baseline
    assert tracker.total_executions == len(jobs)
    assert tracker.total_windows == sum(job.n_windows for job in jobs)


# -- retry policy: NaN and infinity ------------------------------------


@pytest.mark.parametrize(
    "field, value",
    [
        ("max_attempts", float("nan")),
        ("base_backoff_s", float("nan")),
        ("base_backoff_s", float("inf")),
        ("backoff_multiplier", float("nan")),
        ("backoff_multiplier", float("inf")),
        ("max_backoff_s", float("nan")),
        ("max_backoff_s", float("inf")),
        ("jitter", float("nan")),
        ("timeout_s", float("nan")),
    ],
)
def test_retry_policy_rejects_nan_and_non_finite_backoff(field, value):
    """A NaN or infinite backoff reached time.sleep or math.log inside a
    worker (the fleet then raised instead of degrading), a NaN ceiling
    or timeout silently meant "none", and an infinite ceiling overflowed
    multiplier ** index after ~1,100 retries."""
    with pytest.raises(ValueError, match=field):
        RetryPolicy(**{field: value})


def test_retry_policy_infinite_timeout_means_none():
    assert RetryPolicy(timeout_s=float("inf")).timeout_s == float("inf")


def test_retry_policy_backoff_finite_with_subnormal_base():
    """max_backoff_s / base_backoff_s overflows to inf for a subnormal
    base, which put the cap out of reach and overflowed
    multiplier ** index from retry index 1,074 on."""
    policy = RetryPolicy(base_backoff_s=5e-324, jitter=0.0)
    for index in (10, 1_074, 2_000, 2**20):
        value = policy.backoff_s(index, np.random.default_rng(0))
        assert np.isfinite(value)
        assert value <= policy.max_backoff_s
    assert policy.backoff_s(2_000, np.random.default_rng(0)) == policy.max_backoff_s


@pytest.mark.parametrize("workers", [1, 3])
def test_fleet_draws_each_attempts_faults_once(detector4, jobs, monkeypatch, workers):
    """The monitor hands its draw to the pool instead of both drawing."""
    draws = []
    real_draw = FaultPlan.draw

    def spy(plan, app_name, attempt, n_windows):
        draws.append((app_name, attempt))
        return real_draw(plan, app_name, attempt, n_windows)

    monkeypatch.setattr(FaultPlan, "draw", spy)
    metrics = Registry()
    fleet = FleetMonitor(
        detector4,
        workers=workers,
        pool_seed=POOL_SEED,
        faults=FaultPlan(
            seed=3, crash_rate=0.4, glitch_rate=0.3, drop_rate=0.1, permanent_rate=0.1
        ),
        retry=RetryPolicy(max_attempts=3, base_backoff_s=0.0),
        metrics=metrics,
        sleep=no_sleep,
    )
    fleet.monitor_fleet(jobs)
    retries = metrics.snapshot()["counters"]["fleet_retries_total"]["value"]
    assert retries > 0
    assert len(draws) == len(set(draws)) == len(jobs) + retries
