"""Benchmark of the helper-cluster simulator (see ``perfbench/run.py``)."""
