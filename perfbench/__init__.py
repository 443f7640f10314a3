"""The repository benchmark: serve, fleet and training-matrix workloads.

Run it from the repository root with ``python3 perfbench/run.py``; see
``perfbench/README.md`` for the workloads, the metrics and the noise
they carry.
"""
