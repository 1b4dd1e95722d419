"""Helpers for the repository benchmark (``perfbench/run.py``).

The modules here import ``repro`` lazily, inside the functions that
need it, so the pure helpers (statistics, span bookkeeping, replay
accounting) can be tested without the simulator on the path.
"""
