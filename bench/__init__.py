"""End-to-end and per-layer benchmark for usdguard.

Run ``python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>``
from the repository root.  See ``bench/run.py`` for the workloads and the
metrics it prints.
"""
