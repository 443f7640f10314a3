"""Inference throughput: windows classified per second, per detector.

The paper's run-time argument prices every 10 ms HPC window through the
detector, so windows/second *is* the deployment budget.  This bench pins
three things:

1. Throughput of the vectorized batch kernels for all 8 base learners
   and their boosted/bagged ensemble forms on the seeded evaluation
   corpus (the same corpus/split seeds the figure benches use).
2. Bit-identical agreement between the vectorized paths and the retained
   scalar references (``route``-based tree descent, the JRip mask loop,
   the sequential ensemble accumulation) — same probabilities, same
   classes.  CI fails on any disagreement.
3. The tree-family speedup: the flat-array kernels must classify at
   least ``MIN_TREE_SPEEDUP``× faster than the pre-vectorization scalar
   loop they replaced.
4. The per-call price of a small batch: J48 and REPTree, alone and
   boosted/bagged, graded ``SMALL_BATCH`` windows per call — the shape
   of one short execution at run time, which the path-table kernel
   serves — with agreement against each member's level loop.

``REPRO_BENCH_QUICK=1`` shrinks the batch for CI smoke runs; the
agreement assertions run identically in both modes.  Results land in
``BENCH_inference.json`` (cwd, or ``$REPRO_BENCH_DIR``).
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from repro.core.config import DetectorConfig
from repro.core.detector import HMDDetector
from repro.ml.base import proba_from_counts
from repro.ml.tree import leaf_counts_matrix_scalar

QUICK = os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0")
#: Tiling factor applied to the evaluation windows for stable timing.
TILE = 4 if QUICK else 32
#: Timing repetitions (best-of).
REPS = 2 if QUICK else 4
#: Training windows per detector fit (inference is what's measured).
TRAIN_ROWS = 300 if QUICK else 1000
#: Acceptance floor for the flat-tree kernels vs the scalar loop.
MIN_TREE_SPEEDUP = 10.0
#: Rows per call of the small-batch row (one short execution's windows).
SMALL_BATCH = 20

CLASSIFIERS = ("BayesNet", "J48", "JRip", "MLP", "OneR", "REPTree", "SGD", "SMO")
TREE_FAMILY = ("J48", "REPTree")
ENSEMBLES = ("general", "boosted", "bagging")
N_HPCS = 4


def _bench_out_path() -> Path:
    return Path(os.environ.get("REPRO_BENCH_DIR", ".")) / "BENCH_inference.json"


def _rate(fn, features: np.ndarray, reps: int = REPS) -> float:
    """Best-of-``reps`` windows/second of ``fn(features)``."""
    fn(features)  # warm up caches and lazy state
    best = np.inf
    for _ in range(reps):
        start = time.perf_counter()
        fn(features)
        best = min(best, time.perf_counter() - start)
    return features.shape[0] / best


def _scalar_tree_proba(model, features: np.ndarray) -> np.ndarray:
    """Pre-vectorization J48/REPTree prediction path, verbatim."""
    return proba_from_counts(leaf_counts_matrix_scalar(model.root_, features))


def _level_loop_tree_proba(model, features: np.ndarray) -> np.ndarray:
    """J48/REPTree prediction through the tree's own level loop."""
    return proba_from_counts(model._flat.leaf_counts(features))


def _scalar_tree_ensemble_proba(
    model, features: np.ndarray, member_proba=_scalar_tree_proba
) -> np.ndarray:
    """Pre-vectorization boosted/bagged prediction, member by member."""
    if hasattr(model, "estimator_weights_"):  # AdaBoostM1
        votes = np.zeros((features.shape[0], 2))
        for member, alpha in zip(model.estimators_, model.estimator_weights_):
            predictions = (member_proba(member, features)[:, 1] >= 0.5).astype(np.intp)
            votes[np.arange(len(predictions)), predictions] += alpha
        total = votes.sum(axis=1, keepdims=True)
        return votes / np.where(total > 0, total, 1.0)
    total = np.zeros((features.shape[0], 2))  # Bagging
    for member in model.estimators_:
        total += member_proba(member, features)
    return total / len(model.estimators_)


def _level_loop_proba(model, features: np.ndarray) -> np.ndarray:
    """A tree detector graded member by member through the level loop."""
    if hasattr(model, "estimators_"):
        return _scalar_tree_ensemble_proba(model, features, _level_loop_tree_proba)
    return _level_loop_tree_proba(model, features)


def _us_per_call(fn, batches: list[np.ndarray], reps: int = REPS) -> float:
    """Best-of-``reps`` mean microseconds of ``fn`` over ``batches``."""
    for batch in batches[:2]:  # a forest builds its path table on reuse
        fn(batch)
    best = np.inf
    for _ in range(reps):
        start = time.perf_counter()
        for batch in batches:
            fn(batch)
        best = min(best, time.perf_counter() - start)
    return best / len(batches) * 1e6


def _scalar_jrip_proba(model, features: np.ndarray) -> np.ndarray:
    smoothed = model._counts_scalar(features) + 1.0
    return smoothed / smoothed.sum(axis=1, keepdims=True)


def _subsample(dataset, n_rows: int, seed: int = 0):
    if dataset.n_samples <= n_rows:
        return dataset
    keep = np.sort(
        np.random.default_rng(seed).choice(
            dataset.n_samples, size=n_rows, replace=False
        )
    )
    return replace(
        dataset,
        features=dataset.features[keep],
        labels=dataset.labels[keep],
        app_ids=dataset.app_ids[keep],
    )


def _small_batch_row(model, features: np.ndarray) -> dict:
    """Per-call cost of ``SMALL_BATCH``-row calls, kernel vs level loop."""
    batches = [
        features[start : start + SMALL_BATCH]
        for start in range(0, features.shape[0] - SMALL_BATCH + 1, SMALL_BATCH)
    ]
    for batch in batches:
        assert np.array_equal(model.predict_proba(batch), _level_loop_proba(model, batch)), (
            f"{type(model).__name__}: small-batch kernel and level loop disagree"
        )
    us = _us_per_call(model.predict_proba, batches)
    loop_us = _us_per_call(lambda b: _level_loop_proba(model, b), batches)
    return {
        "us_per_call": us,
        "windows_per_second": SMALL_BATCH / us * 1e6,
        "level_loop_us_per_call": loop_us,
        "speedup": loop_us / us,
    }


def test_inference_throughput_and_agreement(corpus, split):
    train = _subsample(split.train, TRAIN_ROWS)
    results: dict[str, dict] = {}
    speedups: dict[str, float] = {}

    for name in CLASSIFIERS:
        results[name] = {}
        for ensemble in ENSEMBLES:
            detector = HMDDetector(DetectorConfig(name, ensemble, N_HPCS))
            detector.fit(train, ranking_dataset=split.train)
            features = detector.reducer.transform(split.test).features
            batch = np.tile(features, (TILE, 1))
            model = detector.model
            vec_rate = _rate(model.predict_proba, batch)
            results[name][ensemble] = {"windows_per_second": vec_rate}

            if name in TREE_FAMILY:
                results[name][ensemble]["small_batch"] = _small_batch_row(model, features)

            scalar_proba = None
            if name in TREE_FAMILY and ensemble == "general":
                scalar_proba = _scalar_tree_proba
            elif name in TREE_FAMILY:
                scalar_proba = _scalar_tree_ensemble_proba
            elif name == "JRip" and ensemble == "general":
                scalar_proba = _scalar_jrip_proba
            if scalar_proba is None:
                continue

            # agreement: same probabilities, same classes, bit for bit
            got = model.predict_proba(features)
            want = scalar_proba(model, features)
            assert np.array_equal(got, want), (
                f"{name}/{ensemble}: vectorized and scalar paths disagree"
            )
            assert np.array_equal(
                model.predict(features), (want[:, 1] >= 0.5).astype(np.intp)
            )

            scalar_rate = _rate(
                lambda b: scalar_proba(model, b), batch, reps=min(REPS, 2)
            )
            speedup = vec_rate / scalar_rate
            results[name][ensemble].update(
                scalar_windows_per_second=scalar_rate, speedup=speedup
            )
            if name in TREE_FAMILY and ensemble == "general":
                speedups[name] = speedup

    print()
    for name, by_ensemble in results.items():
        row = "  ".join(
            f"{ensemble}: {stats['windows_per_second']:>12,.0f} w/s"
            for ensemble, stats in by_ensemble.items()
        )
        print(f"{name:>8}  {row}")
    for name in TREE_FAMILY:
        row = "  ".join(
            f"{ensemble}: {stats['small_batch']['us_per_call']:>7.1f} us "
            f"({stats['small_batch']['speedup']:.1f}x the level loop)"
            for ensemble, stats in results[name].items()
        )
        print(f"{name:>8}  {SMALL_BATCH}-row calls  {row}")
    for name, speedup in speedups.items():
        print(f"{name}: {speedup:.1f}x over the scalar loop")
        assert speedup >= MIN_TREE_SPEEDUP, (
            f"{name} vectorized kernel is only {speedup:.1f}x the scalar "
            f"reference (need >= {MIN_TREE_SPEEDUP}x)"
        )

    out = _bench_out_path()
    out.write_text(
        json.dumps(
            {
                "bench": "inference",
                "quick": QUICK,
                "n_hpcs": N_HPCS,
                "batch_windows": int(split.test.features.shape[0] * TILE),
                "small_batch_windows": SMALL_BATCH,
                "min_tree_speedup": MIN_TREE_SPEEDUP,
                "tree_speedups": speedups,
                "detectors": results,
            },
            indent=1,
        )
    )
    print(f"wrote {out}")
