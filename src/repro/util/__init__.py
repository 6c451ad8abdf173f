"""Shared utilities: error types, seeded RNG helpers, table formatting."""
