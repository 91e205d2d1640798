"""Benchmark of dadt: seeded workloads, end-to-end timings and a per-layer trace."""
