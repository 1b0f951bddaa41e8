"""Layered benchmark of the rewritten Spark plans (see NOTES.md)."""
