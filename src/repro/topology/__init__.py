"""AS-level Internet topology substrate.

Provides the annotated AS graph (customer-provider and peer-peer
relationships), Internet-like synthetic generators, valley-free path
utilities, and the CAIDA text format (its reader and writer), through
which a measured graph enters.
"""
