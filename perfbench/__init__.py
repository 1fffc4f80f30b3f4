"""The repository benchmark: SSB workloads with end-to-end and per-layer metrics.

Run one workload with ``python3 perfbench/run.py --workload dashboard``;
see ``perfbench/README.md``.
"""
