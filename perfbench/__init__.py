"""The repository benchmark: seeded workloads over both product stacks.

Run it with ``python3 perfbench/run.py --workload NAME --seed N
--seconds S --trace 0|1`` from the repository root; see
``perfbench/README.md`` for the workloads, metrics and layer table.
"""
