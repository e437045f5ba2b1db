"""Benchmark harness for lpcore: seeded workloads, output checks and tracing.

Run it through ``benchmark/run.py``; see ``benchmark/README.md``.
"""
