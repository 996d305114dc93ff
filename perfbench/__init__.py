"""End-to-end and per-layer benchmark of the engine; see README.md."""
