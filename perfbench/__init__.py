"""Repo benchmark: workloads, per-layer tracing, and the runner (see README.md)."""
