"""Bare-layer probes, run as a child: the floor under the traced numbers.

Public ``Engine.schedule``/``run`` with no-op actions and
``Transport.send`` between two no-op receivers give the host cost of
one event and one message with no protocol attached — multiplied by
the traced counts they bound the engine/transport share of
``sim.converge_s``/``sim.react_s`` until in-program timers exist.
``--shm`` adds the worker-side ``shm.attach_graph`` on the pool
workload's topology (a worker's attach is lost with the fork, so it
cannot come from the trace).  Prints one JSON object.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

REPEATS = 3


def _noop(*_args) -> None:
    pass


def engine_bare_us_per_event(events: int = 50_000) -> float:
    from repro.sim.engine import Engine

    best = float("inf")
    for _ in range(REPEATS):
        engine = Engine(seed=0)
        started = time.perf_counter()
        for i in range(events):
            # Message-like delays (10-20 ms), so the near heap does the
            # work it does in a simulation.
            engine.schedule(0.010 + (i % 1000) * 1e-5, _noop)
        engine.run()
        best = min(best, time.perf_counter() - started)
    return best / events * 1e6


def transport_bare_us_per_message(messages: int = 50_000) -> float:
    from repro.sim.engine import Engine
    from repro.sim.transport import Transport

    best = float("inf")
    for _ in range(REPEATS):
        engine = Engine(seed=0)
        transport = Transport(engine)
        transport.register_receiver(1, _noop)
        transport.register_receiver(2, _noop)
        started = time.perf_counter()
        for i in range(messages):
            if i & 1:
                transport.send(1, 2, i)
            else:
                transport.send(2, 1, i)
        engine.run()
        best = min(best, time.perf_counter() - started)
    return best / messages * 1e6


def shm_attach_ms(seed: int, tiers) -> float:
    from repro.topology import shm
    from repro.topology.generators import (
        InternetTopologyConfig,
        generate_internet_topology,
    )

    t1, t2, t3, stubs = tiers
    graph, _ = generate_internet_topology(
        InternetTopologyConfig(seed=seed, n_tier1=t1, n_tier2=t2, n_tier3=t3, n_stub=stubs)
    )
    best = float("inf")
    with shm.share_graph(graph) as shared:
        for _ in range(REPEATS):
            started = time.perf_counter()
            attached = shm.attach_graph(shared.name)
            best = min(best, time.perf_counter() - started)
            attached.close()
    return best * 1e3


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--shm", nargs=5, type=int, default=None,
                        metavar=("SEED", "T1", "T2", "T3", "STUBS"))
    args = parser.parse_args()
    document = {
        "sim.engine_bare_us_per_event": engine_bare_us_per_event(),
        "sim.transport_bare_us_per_message": transport_bare_us_per_message(),
        "topology.shm_attach_ms": (
            shm_attach_ms(args.shm[0], args.shm[1:]) if args.shm else 0.0
        ),
    }
    print(json.dumps(document))
    return 0


if __name__ == "__main__":
    sys.exit(main())
