"""Reference twins and oracles the differential tests pin the package to.

Each module here is a second, brute-force statement of semantics the
package computes one way, kept out of ``src/`` because nothing but the
tests runs it:

* :mod:`reference.graph` — the dict-of-dicts ``ASGraph`` the CSR core
  is pinned against;
* :mod:`reference.paths` — valley-freedom and (downhill) disjointness
  of forwarding paths;
* :mod:`reference.walk` — the scalar per-source walks of every data
  plane, the successor table's reference;
* :mod:`reference.transient` — the full-rescan transient analyzers;
* :mod:`reference.tracing` — the copying replay of a forwarding trace
  they read;
* :mod:`reference.phi` — unmemoized, per-path-DFS Φ;
* :mod:`reference.policy` — the decision order whose key each stored
  route carries, and the valley-free export rule
  ``BGPSpeaker.export_for`` evaluates inline;
* :mod:`reference.static` — the stable Gao-Rexford solution, computed
  in three passes without a message: the state BGP converges to;
* :mod:`reference.start` — the drained state of a BGP or R-BGP
  network, rebuilt from that static solution.

Do not "improve" them: their value is that they do not change.
"""
