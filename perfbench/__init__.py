"""Benchmark for kyle_stability: seeded workloads, checks and a span tracer.

Run ``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
from the repository root.  See ``run.py`` for the output contract.
"""
