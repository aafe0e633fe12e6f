"""Experiment harness: episodes, the protocol runner, figure regeneration.

Each figure/table of the paper's evaluation maps to one function in
:mod:`repro.experiments.figures`; the claims table in
``benchmarks/fidelity.py`` calls these and checks the paper's claims.
"""
