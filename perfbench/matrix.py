"""The training ledger: corpus -> rank -> fit -> eval over the 24-cell grid.

Every traced run ends with one pass that builds a corpus from the seed
and evaluates every learner x ensemble cell at 4 HPCs through a
cache-less :class:`MatrixRunner`, timing each stage from outside.  The
reference digests come from fitting and scoring every cell through
:class:`HMDDetector` directly, so a pass that changes any cell's
accuracy or AUC by a single bit fails.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field

from repro.analysis.matrix import MatrixRunner
from repro.core.config import CLASSIFIER_NAMES, ENSEMBLE_MODES, DetectorConfig
from repro.core.detector import HMDDetector
from repro.ml.validation import app_level_split
from repro.workloads import default_corpus

from perfbench.common import TRAIN_FRACTION, Seeds, mismatches

N_HPCS = 4
RANKING_METHOD = "correlation"


def grid(classifiers=CLASSIFIER_NAMES) -> list[DetectorConfig]:
    return [
        DetectorConfig(classifier, ensemble, N_HPCS)
        for classifier in classifiers
        for ensemble in ENSEMBLE_MODES
    ]


def cell_digest(name: str, accuracy: float, auc: float) -> str:
    """Bit-exact fingerprint of one cell's accuracy and AUC."""
    return hashlib.sha256(f"{name}|{accuracy!r}|{auc!r}".encode()).hexdigest()


class TrainingGrid:
    """The grid's seeded corpus and the reference digest of every cell."""

    def __init__(self, seeds: Seeds, windows_per_app: int, configs: list[DetectorConfig]):
        self.seeds = seeds
        self.windows_per_app = windows_per_app
        self.configs = configs
        corpus = self._corpus()
        split = app_level_split(corpus, TRAIN_FRACTION, seed=seeds.split)
        self.reference = []
        for config in configs:
            scores = HMDDetector(config).fit(split.train).evaluate(split.test)
            self.reference.append(cell_digest(config.name, scores.accuracy, scores.auc))

    def _corpus(self):
        return default_corpus(seed=self.seeds.corpus, windows_per_app=self.windows_per_app)


@dataclass
class MatrixReplay:
    """Seconds spent in each stage while replaying one matrix pass."""

    corpus_s: float = 0.0
    rank_s: float = 0.0
    eval_s: float = 0.0
    fit_s: dict = field(default_factory=dict)
    wall_s: float = 0.0
    attempted: int = 0
    failed: int = 0


def replay(grid: TrainingGrid) -> MatrixReplay:
    """One pass with every stage timed: corpus, ranking, then each cell's fit and eval.

    Fit and eval seconds come from the :class:`MatrixTiming` that
    ``MatrixRunner.timed_evaluate`` returns for each cell.
    """
    out = MatrixReplay(fit_s={key: 0.0 for key in CLASSIFIER_NAMES + ENSEMBLE_MODES})
    started = time.perf_counter()
    corpus = grid._corpus()
    out.corpus_s = time.perf_counter() - started
    runner = MatrixRunner(corpus, TRAIN_FRACTION, seeds=(grid.seeds.split,))
    start = time.perf_counter()
    runner.ranking(grid.seeds.split, RANKING_METHOD)
    out.rank_s = time.perf_counter() - start
    digests = []
    for config in grid.configs:
        record, timing = runner.timed_evaluate(config)
        out.fit_s[config.classifier] += timing.fit_seconds
        out.fit_s[config.ensemble] += timing.fit_seconds
        out.eval_s += timing.eval_seconds
        digests.append(cell_digest(config.name, record.accuracy, record.auc))
    out.wall_s = time.perf_counter() - started
    out.attempted = len(digests)
    out.failed = mismatches(digests, grid.reference)
    return out
