"""fdwpc benchmark internals: workloads, output checks, span tracing, runner."""
