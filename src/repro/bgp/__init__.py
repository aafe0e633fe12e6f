"""Event-driven BGP simulator (policy path-vector, Gao-Rexford policies).

This package is the substrate every protocol in the paper builds on:
plain BGP is the baseline of Figures 2-3, R-BGP subclasses the speaker,
and each STAMP color process is one (slightly extended) speaker with a
selective-announcement gate installed.
"""
