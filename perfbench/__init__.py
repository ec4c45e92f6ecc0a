"""The repository benchmark: seeded workloads, end-to-end and per-layer
metrics, digest and exact-count gates.  Entry point: ``perfbench/run.py``."""
