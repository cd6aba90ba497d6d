"""Cost metrics: sum cost, request-response, execution time, bottleneck."""
