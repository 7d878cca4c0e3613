"""Benchmark of the repro simulation and serving stack; run ``perfbench/run.py``."""
