"""Benchmark for the hindsight planner; see README.md in this directory."""
