"""End-to-end and per-layer benchmark of the fokas-heat pipeline (see README.md)."""
