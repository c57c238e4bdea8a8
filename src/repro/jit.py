"""Run provenance: the JIT toolchain behind the enumeration and MLGP engines.

No engine is JIT-compiled; every kernel runs as NumPy or plain Python.
The module stays only so run records (benchmark provenance and the like)
can keep reporting which toolchain ran.
"""

from __future__ import annotations

__all__ = ["toolchain"]


def toolchain() -> str:
    """The JIT toolchain the engines run under: always ``"none"``."""
    return "none"
