"""Simulated deep-Web sources: travel, bioinformatics, bibliography, weekend."""
