"""Benchmark harness for forestfuse; see README.md."""
