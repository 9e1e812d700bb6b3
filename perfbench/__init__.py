"""Benchmark harness for modcluster: workloads, tracing and run-level metrics."""
