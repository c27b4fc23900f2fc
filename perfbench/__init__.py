"""Benchmark harness for cliffsteer; see perfbench/README.md."""
