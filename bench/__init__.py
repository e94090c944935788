"""One named benchmark for the whole serving stack (see bench/README.md)."""
