"""AS-level Internet topology substrate.

Provides the annotated AS graph (customer-provider and peer-peer
relationships), Internet-like synthetic generators, Gao's relationship
inference algorithm, RouteViews-style table synthesis, valley-free path
utilities, and the CAIDA text format (its reader and writer).
"""
