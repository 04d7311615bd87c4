"""Functional serving benchmark (see run.py)."""
