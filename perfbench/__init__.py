"""End-to-end benchmark of the synthesis daemon and the sharded router.

Run it from the root of a checkout with ``python3 perfbench/run.py``;
see ``perfbench/README.md`` for the workloads and metrics.
"""
