"""Benchmark of the NDP-GPU simulator; run perfbench/run.py."""
