"""Machine-number formats and per-operation rounding compute contexts.

This subpackage provides software emulation of the arithmetic formats studied
in the paper:

* IEEE 754 style formats: ``float16``, ``bfloat16``, ``float32``, ``float64``
  and the OFP8 types ``E4M3`` and ``E5M2``;
* tapered-precision formats: posits (2022 standard, ``es = 2``) and linear
  takums at 8, 16, 32 and 64 bits;
* an extended-precision reference format backed by ``numpy.longdouble``.

Every format exposes a vectorised ``round`` operation (round an array of
work-precision values to the nearest representable value of the format) which
is the primitive used by the compute contexts in
:mod:`repro.arithmetic.context` to emulate "every scalar operation is
performed in the target arithmetic".

On top of the contexts sits the operator API
(:mod:`repro.arithmetic.farray`): ``ctx.array(...)`` / ``ctx.scalar(...)``
bind values to a context so that rounded kernels read as plain NumPy-style
expressions (``w - V @ h``) while every operator routes through the same
context methods; :func:`repro.arithmetic.precision` binds a precision for a
block of such code, and :class:`repro.arithmetic.ContextSpec` names a
context declaratively for the runner and CLI.

Every rounding follows one dispatch rule, bit-identical to the analytic
ground truth: a scalar rounds through the format's pure-Python scalar kernel
(``round_scalar_analytic``), an array of at most ``fmt.scalar_cutoff``
elements — the regime of the solvers' elementwise operations — through the
same kernel element by element, a larger array through the format's integer
bit kernel (:mod:`repro.arithmetic.bitkernels`; one family-parameterized
round/encode/decode engine over float64 words, plus the two-word kernels of
the extended-precision 64-bit formats), and anything else through the
vectorised analytic kernel (``round_array_analytic``).  See
``docs/architecture.md`` for the dispatch matrix.  The analytic kernels can
be forced for verification with ``use_tables=False`` (per context) or
``REPRO_DISABLE_BITKERNELS=1`` / ``set_bitkernels_enabled(False)``
(process-wide, bit kernels only).
"""

from .base import LONGDOUBLE_EXTENDED, NumberFormat, RoundingInfo
from .bitkernels import (
    BitKernel,
    E4M3BitKernel,
    IEEEBitKernel,
    PositBitKernel,
    TakumBitKernel,
    bitkernels_enabled,
    set_enabled as set_bitkernels_enabled,
)
from .ieee import IEEEFormat, BFLOAT16, FLOAT16, FLOAT32, FLOAT64
from .ofp8 import OFP8E4M3, OFP8E5M2, E4M3, E5M2
from .posit import PositFormat, POSIT8, POSIT16, POSIT32, POSIT64
from .takum import TakumFormat, TAKUM8, TAKUM16, TAKUM32, TAKUM64
from .registry import (
    FORMATS,
    get_format,
    available_formats,
    formats_by_width,
    preload_tables,
)
from .context import (
    ComputeContext,
    ContextSpec,
    EmulatedContext,
    NativeContext,
    ReferenceContext,
    get_context,
    DynamicRangeError,
)
from .farray import (
    BoundNamespace,
    ContextMismatchError,
    FArray,
    FScalar,
    PrecisionLeakError,
    precision,
)
from .batched import (
    BatchedContext,
    BatchedFArray,
    BatchSpec,
)

__all__ = [
    "NumberFormat",
    "RoundingInfo",
    "LONGDOUBLE_EXTENDED",
    "BitKernel",
    "IEEEBitKernel",
    "E4M3BitKernel",
    "PositBitKernel",
    "TakumBitKernel",
    "bitkernels_enabled",
    "set_bitkernels_enabled",
    "IEEEFormat",
    "BFLOAT16",
    "FLOAT16",
    "FLOAT32",
    "FLOAT64",
    "OFP8E4M3",
    "OFP8E5M2",
    "E4M3",
    "E5M2",
    "PositFormat",
    "POSIT8",
    "POSIT16",
    "POSIT32",
    "POSIT64",
    "TakumFormat",
    "TAKUM8",
    "TAKUM16",
    "TAKUM32",
    "TAKUM64",
    "FORMATS",
    "get_format",
    "available_formats",
    "formats_by_width",
    "preload_tables",
    "ComputeContext",
    "ContextSpec",
    "EmulatedContext",
    "NativeContext",
    "ReferenceContext",
    "get_context",
    "DynamicRangeError",
    "BoundNamespace",
    "FArray",
    "FScalar",
    "PrecisionLeakError",
    "ContextMismatchError",
    "precision",
    "BatchSpec",
    "BatchedContext",
    "BatchedFArray",
]
