"""bench_e2e: the end-to-end benchmark every performance claim is measured with.

Four fixed workloads, five end-to-end metrics, a per-layer table.  See
``README.md`` in this directory; run with ``python3 benchmarks/e2e/run.py``.
"""
