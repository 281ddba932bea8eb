"""End-to-end benchmark: workloads, harness and span tracer (README.md)."""
