"""Query and service model: terms, atoms, schemas, queries, parser."""
