"""Deterministic FL workbench: perception-poisoning attacks, spatio-temporal
gradient forensics with sigma-density uncertainty management, baseline
defenses, and empirical separability checks on a surrogate detection task."""
