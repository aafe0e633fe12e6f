"""Data-plane modeling: packet walks and transient-problem detection.

Given a snapshot of every AS's control-plane state, these modules walk
the data plane from each AS toward the destination and classify the
outcome as delivered, looped, or blackholed — the paper's definition of
a transient routing problem (section 6.2).
"""
