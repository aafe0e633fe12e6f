"""Discrete-event simulation kernel.

Provides the event loop, FIFO message channels with the paper's
uniform [10 ms, 20 ms] processing/transmission delays, per-peer MRAI
pacing (30 s x U[0.75, 1.0]), and forwarding-change tracing consumed by
the transient-problem analyzer.
"""
