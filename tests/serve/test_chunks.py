"""Chunked streaming: one chunk plus one close per execution.

Producers publish each execution's trace as one zero-copy chunk, the
ledger releases a trace once its verdict is out, and an injected crash
at any message — a chunk (so its close meets a torn assembly) or a
close (lost before it was handled) — still yields every verdict
exactly once, bit-identical to the serial monitor.  Every cell of the
learner × ensemble grid is served, loaded from the registry, and
chaos-tested against the same serial verdicts.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.core.config import CLASSIFIER_NAMES, DetectorConfig
from repro.core.detector import HMDDetector
from repro.core.fleet import FleetMonitor
from repro.core.runtime import RuntimeMonitor
from repro.hpc.events import ALL_EVENTS
from repro.hpc.faults import ServiceFaultPlan
from repro.hpc.lxc import ContainerPool
from repro.registry import ModelRegistry
from repro.serve import DetectionService, ServeJob
from repro.workloads.benign import BENIGN_FAMILIES
from repro.workloads.dataset import MALWARE
from repro.workloads.malware import MALWARE_FAMILIES

POOL_SEED = 5
N_WINDOWS = 10


@pytest.fixture(scope="module")
def detector4(small_split):
    return HMDDetector(DetectorConfig("REPTree", "boosted", 4, n_estimators=4)).fit(
        small_split.train
    )


@pytest.fixture(scope="module")
def jobs():
    rng = np.random.default_rng(31)
    return [
        ServeJob(family.instantiate(rng)[0], N_WINDOWS, family.label == MALWARE)
        for family in (BENIGN_FAMILIES + MALWARE_FAMILIES)[::4]
    ]


def serial_verdicts(detector, jobs):
    monitor = RuntimeMonitor(detector, n_counters=4)
    return [
        monitor.monitor(
            job.app, job.n_windows, ContainerPool(seed=POOL_SEED + i), job.is_malware
        )
        for i, job in enumerate(jobs)
    ]


class CrashAt:
    """Fault plan stub: every worker's first incarnation dies on message ``after``."""

    def __init__(self, after: int) -> None:
        self.after = after
        self.scales: list[int] = []

    def crash_after(self, worker_index: int, incarnation: int, scale: int = 64):
        self.scales.append(scale)
        return self.after if incarnation == 0 else None


class LedgerProbe(DetectionService):
    """A service that checks the ledger at every verdict and recovery."""

    def _emit_verdict(self, state, closed, *args, **kwargs):
        super()._emit_verdict(state, closed, *args, **kwargs)
        self.state = state
        assert state.records[closed.execution].trace is None

    def _recover(self, state, shard, assembly):
        # The producer runs concurrently; let it finish its ledger writes
        # so this snapshot and the recovery below read the same ledger.
        while not all(record.closed for record in state.records):
            time.sleep(0.001)
        self.at_recovery = [
            (record.index, record.trace is not None, record.index in state.verdicts)
            for record in state.records
        ]
        super()._recover(state, shard, assembly)


def test_producer_publishes_one_chunk_and_one_close_per_execution(detector4, jobs):
    report = DetectionService(detector4, queue_depth=64, pool_seed=POOL_SEED).run(jobs)
    assert report.n_windows == N_WINDOWS * len(jobs)
    service = LedgerProbe(detector4, queue_depth=64, pool_seed=POOL_SEED)
    service.run(jobs)
    # verdicted records hold no trace: the whole ledger is released
    assert all(record.trace is None for record in service.state.records)
    assert service.state.bus.published == 2 * len(jobs) + 1  # + SHUTDOWN


@pytest.mark.parametrize("position", ["chunk", "close"])
@pytest.mark.parametrize("execution", [0, 1, 3])
def test_crash_at_every_message_kind_recovers_bit_identically(
    detector4, jobs, position, execution
):
    """1x1: message ``2k+1`` is execution k's chunk, ``2k+2`` its close."""
    after = 2 * execution + (1 if position == "chunk" else 2)
    plan = CrashAt(after)
    service = LedgerProbe(detector4, queue_depth=64, pool_seed=POOL_SEED, faults=plan)
    report = service.run(jobs)
    assert list(report.verdicts) == serial_verdicts(detector4, jobs)
    assert report.worker_crashes == 1
    assert set(plan.scales) == {2}  # crash draws span one chunk + one close
    # every verdict before the crash released its trace; the recovery
    # rebuilt exactly the produced executions still without a verdict
    for index, has_trace, verdicted in service.at_recovery:
        if verdicted:
            assert not has_trace
        if index < execution:
            assert verdicted
        if index == execution:
            assert has_trace and not verdicted
    pending = sum(has and not done for _, has, done in service.at_recovery)
    assert report.recovered_windows == N_WINDOWS * pending > 0
    assert all(record.trace is None for record in service.state.records)


@pytest.mark.parametrize("after", range(1, 9))
def test_crashes_at_any_message_under_parallel_geometry(detector4, jobs, after):
    service = DetectionService(
        detector4, producers=2, workers=2, queue_depth=2, pool_seed=POOL_SEED,
        faults=CrashAt(after),
    )
    report = service.run(jobs)
    assert list(report.verdicts) == serial_verdicts(detector4, jobs)
    assert report.worker_crashes >= 1
    assert report.recovered_windows > 0


def test_assembly_joins_chunks_in_window_order():
    assemble = DetectionService._assemble
    trace = np.arange(6 * len(ALL_EVENTS), dtype=float).reshape(6, -1)
    # a lone chunk is handed over without a copy
    assert assemble({0: trace}, 6) is trace
    # a missing chunk leaves the assembly torn
    assert assemble({0: trace[:4]}, 6) is None
    assert assemble({}, 6) is None
    joined = assemble({4: trace[4:], 0: trace[:2], 2: trace[2:4]}, 6)
    assert np.array_equal(joined, trace)
    assert assemble({}, 0).shape == (0, len(ALL_EVENTS))


# -- the grid: every cell served, loaded, crashed ------------------------


@pytest.mark.parametrize("classifier", CLASSIFIER_NAMES)
@pytest.mark.parametrize("ensemble", ["general", "boosted", "bagging"])
def test_every_cell_serves_bit_identically(classifier, ensemble, small_split, jobs, tmp_path):
    config = DetectorConfig(classifier, ensemble, 4, n_estimators=3)
    detector = HMDDetector(config).fit(small_split.train)
    registry = ModelRegistry(tmp_path)
    loaded = registry.load_detector(registry.save_detector(detector).model_id)
    want = serial_verdicts(detector, jobs)
    fleet = FleetMonitor(detector, workers=2, pool_seed=POOL_SEED)
    assert fleet.monitor_fleet([(j.app, j.n_windows, j.is_malware) for j in jobs]) == want
    chaos = ServiceFaultPlan(seed=3, worker_crash_rate=0.9, max_crashes_per_worker=3)
    for deployed in (detector, loaded):
        for producers, workers, faults in ((1, 1, None), (2, 2, chaos)):
            report = DetectionService(
                deployed, producers=producers, workers=workers, queue_depth=4,
                pool_seed=POOL_SEED, faults=faults,
            ).run(jobs)
            assert list(report.verdicts) == want
            assert (report.worker_crashes > 0) == (faults is not None)
