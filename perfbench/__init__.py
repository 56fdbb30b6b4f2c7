"""Whole-step benchmark of the simulation stack; see README.md."""
