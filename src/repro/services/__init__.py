"""Service substrate: profiles, invocation protocol, registry, profiler."""
