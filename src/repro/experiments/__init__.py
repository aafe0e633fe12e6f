"""Experiment harness: episodes, the protocol runner, figure regeneration.

Each figure/table of the paper's evaluation maps to one function in
:mod:`repro.experiments.figures`; the pytest-benchmark targets under
``benchmarks/`` call these and print the paper-shaped series.
"""
