"""R-BGP baseline (Kushman et al., NSDI'07), with and without RCI.

The paper benchmarks STAMP against R-BGP, which precomputes failover
paths and (in its full form) carries root cause information (RCI) in
updates.  This is an AS-level reproduction built on the BGP substrate:

* every AS advertises its most disjoint alternate path to the next-hop
  neighbor of its primary path (the failover path);
* packets whose primary is unusable divert once onto a received
  failover path, which is followed pinned (virtual-interface style);
* with RCI, updates triggered by a failure carry the failed link, and
  receivers immediately purge every path through it — eliminating
  stale-path exploration.
"""
