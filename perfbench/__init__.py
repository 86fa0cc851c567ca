"""The repository benchmark: three workloads, end-to-end and per-layer.

Run ``python3 perfbench/run.py --help`` from the repository root.
"""
