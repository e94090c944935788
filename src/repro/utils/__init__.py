"""Shared utilities: seeded RNG, table formatting, units, and the one
name :mod:`~repro.utils.registry` every named policy resolves through.

These helpers are deliberately dependency-free (numpy only) so every other
subpackage can import them without cycles.
"""

from repro.utils.rng import RngFactory, seeded_rng
from repro.utils.tables import format_series, format_table
from repro.utils.units import GB, KB, MB, bytes_to_gb, human_bytes

__all__ = [
    "RngFactory",
    "seeded_rng",
    "format_table",
    "format_series",
    "GB",
    "MB",
    "KB",
    "bytes_to_gb",
    "human_bytes",
]
