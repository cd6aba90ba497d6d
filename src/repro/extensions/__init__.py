"""Extensions beyond the core framework: off-query expansion."""
