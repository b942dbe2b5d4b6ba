"""Seeded benchmark for widthlab: tightening and certificate workloads with
outside-in layer spans.  Run it with ``python3 perfbench/run.py --help``."""
