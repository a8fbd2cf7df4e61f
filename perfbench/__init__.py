"""Repository benchmark: times the experiment sweeps end to end and per layer.

Run ``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
from the repository root; ``perfbench/README.md`` describes the workloads and
metrics.
"""
