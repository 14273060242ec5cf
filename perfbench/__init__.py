"""The MINARET benchmark: workloads, outside-in tracing and the runner."""
