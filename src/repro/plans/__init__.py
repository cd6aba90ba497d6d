"""Query plans: DAG representation, builder, annotation, rendering."""
