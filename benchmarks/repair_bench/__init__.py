"""The repository benchmark: four-semantics repairs, large closures and
durable maintenance, end to end and layer by layer.

Run it with ``PYTHONPATH=src python -m benchmarks.repair_bench run``; see
``README.md`` in this directory.
"""
