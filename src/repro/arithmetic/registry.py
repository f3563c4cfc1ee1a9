"""Registry of the machine-number formats evaluated in the paper.

The registry maps format names (as used throughout the experiments, figures
and benchmarks) to :class:`~repro.arithmetic.base.NumberFormat` instances and
groups them by storage width, mirroring the four panels (8/16/32/64 bits) of
the paper's figures.
"""

from __future__ import annotations

from .base import NumberFormat
from .ieee import BFLOAT16, FLOAT16, FLOAT32, FLOAT64
from .ofp8 import E4M3, E5M2
from .posit import POSIT8, POSIT16, POSIT32, POSIT64
from .takum import TAKUM8, TAKUM16, TAKUM32, TAKUM64

__all__ = [
    "FORMATS",
    "get_format",
    "available_formats",
    "formats_by_width",
    "PAPER_FORMATS",
    "preload_tables",
]

#: every format instance known to the library, keyed by name
FORMATS: dict[str, NumberFormat] = {
    fmt.name: fmt
    for fmt in (
        E4M3,
        E5M2,
        POSIT8,
        TAKUM8,
        FLOAT16,
        BFLOAT16,
        POSIT16,
        TAKUM16,
        FLOAT32,
        POSIT32,
        TAKUM32,
        FLOAT64,
        POSIT64,
        TAKUM64,
    )
}

#: formats evaluated by the paper, grouped by bit width in figure order
PAPER_FORMATS: dict[int, tuple[str, ...]] = {
    8: ("E4M3", "E5M2", "takum8", "posit8"),
    16: ("float16", "takum16", "posit16", "bfloat16"),
    32: ("float32", "takum32", "posit32"),
    64: ("float64", "takum64", "posit64"),
}


def get_format(name: str) -> NumberFormat:
    """Return the registered format called ``name``.

    Raises
    ------
    KeyError
        If no format with that name is registered.
    """
    try:
        return FORMATS[name]
    except KeyError:
        raise KeyError(
            f"unknown number format {name!r}; available: {sorted(FORMATS)}"
        ) from None


def available_formats() -> list[str]:
    """Names of all registered formats."""
    return list(FORMATS)


def preload_tables(names=None) -> list[str]:
    """Build the rounding kernels of the named formats (all when ``None``).

    Registered formats are process-wide singletons, so the bit kernels and
    scalar-kernel state built here are shared by every context that uses
    them afterwards; the experiment runner and the service call this before
    forking worker processes so workers inherit them copy-on-write.  Names
    that are not registered formats (native/reference contexts) and formats
    with nothing to build (the cast IEEE widths) are skipped.  Returns the
    loaded format names.
    """
    loaded = []
    for name in FORMATS if names is None else names:
        fmt = FORMATS.get(name)
        if fmt is None or fmt.scalar_cutoff == 0:
            continue  # native/reference names and the cast IEEE widths
        fmt.bitkernel()
        fmt.round_scalar_analytic(1.0)  # builds the scalar kernel's state
        loaded.append(name)
    return loaded


def formats_by_width(bits: int) -> list[NumberFormat]:
    """All registered formats with the given storage width, in figure order
    when the width is one of the paper's panels."""
    if bits in PAPER_FORMATS:
        return [FORMATS[name] for name in PAPER_FORMATS[bits]]
    return [fmt for fmt in FORMATS.values() if fmt.bits == bits]
