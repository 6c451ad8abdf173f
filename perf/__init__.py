"""The repository's one benchmark: eight workloads over the whole stack.

``python perf/run.py --seed 0`` runs every workload and every correctness
check; ``BENCHMARK.json`` at the repository root declares the names a
performance claim may use.  See ``perf/README.md``.
"""
