"""The repo benchmark: the frozen gate later perf PRs are judged on.

Entry point ``bench/run.py``; see ``bench/README.md`` for the
workloads, the metric tables and the measurement rules.  Nothing here
imports from ``benchmarks/`` (the editable dev-loop micro suite).
"""
