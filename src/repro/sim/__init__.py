"""Discrete-event simulation kernel.

Provides the event loop, FIFO message channels with the paper's
uniform [10 ms, 20 ms] processing/transmission delays, per-peer MRAI
pacing (30 s x U[0.75, 1.0]), and forwarding-change tracing consumed by
the transient-problem analyzer.
"""

from repro import _lazy_exports

__getattr__, __dir__ = _lazy_exports(
    globals(),
    {
        "repro.sim.engine": ("Engine", "EventHandle"),
        "repro.sim.delays": ("DelayModel", "UniformDelay"),
        "repro.sim.transport": ("Transport", "SessionDownListener"),
        "repro.sim.timers": ("MRAIConfig", "MRAIPacer"),
        "repro.sim.tracing": ("ForwardingChange", "ForwardingTrace"),
    },
)

__all__ = [
    "Engine",
    "EventHandle",
    "DelayModel",
    "UniformDelay",
    "Transport",
    "SessionDownListener",
    "MRAIConfig",
    "MRAIPacer",
    "ForwardingChange",
    "ForwardingTrace",
]
