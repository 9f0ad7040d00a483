"""The repo benchmark: workloads, an outside tracer and per-layer metrics.

Run ``python3 perfbench/run.py --help`` from the root of a checkout.
"""
