"""End-to-end and per-layer benchmark for the subsketch package.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>``
is the entry point; its module docstring describes the workloads and metrics.
"""
