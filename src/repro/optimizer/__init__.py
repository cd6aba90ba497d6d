"""Three-phase branch-and-bound optimizer for multi-domain queries."""
