"""Benchmark of the patrolgame solvers; see README.md."""
