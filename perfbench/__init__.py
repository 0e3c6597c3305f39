"""p2amg benchmark: workloads, tracing and the command-line entry point."""
