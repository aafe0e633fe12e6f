"""Reproduction of "Reliable Interdomain Routing Through Multiple
Complementary Routing Processes" (Liao, Gao, Guérin, Zhang — ACM
ReArch'08 / CoNEXT 2008 workshop).

The package implements the STAMP protocol and everything it is
evaluated against: an AS-level BGP simulator with Gao-Rexford policies,
the R-BGP baseline (with and without RCI), Internet-like topology
generation, Gao's relationship-inference algorithm, data-plane walk
analysis, and the full experiment harness regenerating the paper's
figures.  See ``docs/architecture.md`` for the system inventory and
``README.md`` for how to regenerate each figure.

A package is its docstring: every name is imported from the module
that defines it (``from repro.experiments.figures import
fig2_single_link_failure``).
"""
