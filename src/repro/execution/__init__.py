"""Execution engine: caches, rank-aware joins, dataflow, statistics."""
