"""Seeded, layer-resolved end-to-end benchmark (see README.md)."""
