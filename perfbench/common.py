"""Set-up, pass timing, warm start and correctness gates shared by every workload.

Every workload starts from the same deployment set-up: build a corpus,
split it by application, fit the deployment detector, and save it to a
scratch :class:`~repro.registry.ModelRegistry`.  The workloads then
differ only in what they drive through the program.
"""

from __future__ import annotations

import gc
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from repro.core.config import DetectorConfig
from repro.core.detector import HMDDetector
from repro.core.runtime import classify_trace
from repro.hpc.lxc import ContainerPool
from repro.ml.validation import SplitResult, app_level_split
from repro.registry import ModelRegistry
from repro.workloads import default_corpus
from repro.workloads.benign import BENIGN_FAMILIES

#: The detector every streaming workload serves: the paper's boosted
#: REPTree at the Xeon X5550's four counter registers.
DEPLOYMENT = DetectorConfig("REPTree", "boosted", 4)
N_COUNTERS = 4
VOTE_THRESHOLD = 0.5
TRAIN_FRACTION = 0.7
#: Windows in the execution the warm-start path classifies first.
WARM_START_WINDOWS = 20


#: Corpus and split seeds of the deployment set-up.  They are fixed, so
#: every ``--seed`` serves the same model: a model's size sets its load
#: and classify cost, and letting it vary with the seed would add spread
#: that no change to the program caused.
DEPLOYMENT_CORPUS_SEED = 2018
DEPLOYMENT_SPLIT_SEED = 7


@dataclass(frozen=True)
class Seeds:
    """Every random stream of one run's inputs, derived from ``--seed``."""

    corpus: int
    split: int
    jobs: int
    pool: int
    faults: int

    @classmethod
    def from_seed(cls, seed: int) -> "Seeds":
        return cls(
            corpus=seed, split=seed + 1, jobs=seed + 2, pool=seed + 3, faults=seed + 4
        )


@dataclass(frozen=True)
class Deployment:
    """The fitted deployment detector and the registry it was saved to."""

    detector: HMDDetector
    split: SplitResult
    registry: ModelRegistry
    model_id: str

    @property
    def payload_bytes(self) -> int:
        """On-disk size of the saved model (spec plus compiled arrays)."""
        model_dir = self.registry._model_dir(self.model_id)
        return sum(path.stat().st_size for path in model_dir.iterdir())


@dataclass(frozen=True)
class Pass:
    """One timed pass of a workload and its correctness tally."""

    wall_s: float
    cpu_s: float
    windows: int
    attempted: int
    failed: int


def set_up(windows_per_app: int, registry_root: Path) -> Deployment:
    """Corpus, split, deployment detector fit, and registry save."""
    corpus = default_corpus(seed=DEPLOYMENT_CORPUS_SEED, windows_per_app=windows_per_app)
    split = app_level_split(corpus, TRAIN_FRACTION, seed=DEPLOYMENT_SPLIT_SEED)
    detector = HMDDetector(DEPLOYMENT).fit(split.train)
    registry = ModelRegistry(registry_root)
    entry = registry.save_detector(detector, tags=["perfbench"])
    return Deployment(detector, split, registry, entry.model_id)


class SetUps:
    """From-scratch set-ups, each timed; the first one's deployment is kept.

    Later set-ups can run between passes, so their times sample the
    whole run rather than its first seconds.
    """

    def __init__(self, windows_per_app: int, work_dir: Path) -> None:
        self.windows_per_app = windows_per_app
        self.work_dir = work_dir
        self.times: list[float] = []
        self.deployment = self.run()

    def run(self) -> Deployment:
        gc.collect()
        start = time.perf_counter()
        deployment = set_up(
            self.windows_per_app, self.work_dir / f"registry-{len(self.times)}"
        )
        self.times.append(time.perf_counter() - start)
        return deployment


def run_passes(
    run_pass: Callable[[], Pass], seconds: float, min_passes: int
) -> list[Pass]:
    """Repeat a pass until ``seconds`` have gone by and ``min_passes`` ran."""
    passes: list[Pass] = []
    start = time.perf_counter()
    while len(passes) < min_passes or time.perf_counter() - start < seconds:
        gc.collect()
        passes.append(run_pass())
    return passes


def timed(fn, *args):
    """``fn(*args)`` with its wall and process-CPU seconds."""
    wall, cpu = time.perf_counter(), time.process_time()
    result = fn(*args)
    return result, time.perf_counter() - wall, time.process_time() - cpu


def mismatches(got: Sequence, want: Sequence) -> int:
    """Operations whose result differs from the reference.

    Positions are compared pairwise; results missing from either side
    count as failed too.
    """
    return sum(a != b for a, b in zip(got, want)) + abs(len(got) - len(want))


def warm_start_trace(seeds: Seeds) -> np.ndarray:
    """The raw trace of the execution a warm-started detector classifies first."""
    app = BENIGN_FAMILIES[0].instantiate(np.random.default_rng(seeds.jobs))[0]
    return ContainerPool(seed=seeds.pool).run(app, WARM_START_WINDOWS, False)


class WarmStarts:
    """Registry load (mmap) then the first ``classify_trace``, timed per start.

    A run makes ``target`` starts, spread over the run: :meth:`run_due`
    tops the count up to the share of the run gone by, so a workload with
    long passes samples as many starts as one with short passes.  Each
    start is checked against the flags the fitted detector gives the
    same trace.
    """

    def __init__(self, deployment: Deployment, trace: np.ndarray, target: int) -> None:
        self.deployment = deployment
        self.trace = trace
        self.target = target
        self.expected = classify_trace(deployment.detector, N_COUNTERS, trace)
        self.load_s: list[float] = []
        self.first_verdict_s: list[float] = []
        self.failed = 0

    def run_due(self, share: float) -> None:
        """Start until ``share`` of the target count has run."""
        due = min(self.target, max(1, math.ceil(self.target * share)))
        if len(self.load_s) >= due:
            return
        gc.collect()  # the pass's garbage must not be collected inside a start
        while len(self.load_s) < due:
            start = time.perf_counter()
            detector = self.deployment.registry.load_detector(self.deployment.model_id)
            loaded = time.perf_counter()
            flags = classify_trace(detector, N_COUNTERS, self.trace)
            self.load_s.append(loaded - start)
            self.first_verdict_s.append(time.perf_counter() - loaded)
            self.failed += not np.array_equal(flags, self.expected)


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def reset_peak_rss() -> None:
    """Start a new peak-RSS interval where the kernel offers one.

    Writing ``5`` to a process's ``clear_refs`` resets its resident-set
    high-water mark (Linux 4.0 and later).  Elsewhere the peak stays the
    process's peak so far.
    """
    try:
        with open("/proc/self/clear_refs", "w") as control:
            control.write("5")
    except OSError:
        pass


def peak_rss_mib() -> float:
    """Peak resident set size since the last reset (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def git_commit(root: Path) -> str:
    """The checked-out commit, or ``"unknown"`` outside a git checkout.

    The ceiling keeps git from searching the directories above ``root``.
    """
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True,
            timeout=30, env={**os.environ, "GIT_CEILING_DIRECTORIES": str(root.parent)},
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def stamp(root: Path, seed: int) -> dict:
    """What a result was measured on: seed, commit, cores, interpreter, numpy."""
    return {
        "seed": seed,
        "commit": git_commit(root),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": sys.platform,
    }
