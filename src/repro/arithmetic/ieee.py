"""IEEE-754 style binary floating-point formats.

The generic :class:`IEEEFormat` covers every "classical" format used in the
paper: ``float16`` (1-5-10), ``bfloat16`` (1-8-7), ``float32`` (1-8-23) and
``float64`` (1-11-52), as well as the IEEE-style OFP8 format ``E5M2``
(1-5-2).  The OFP8 ``E4M3`` format deviates from IEEE special-value encoding
and lives in :mod:`repro.arithmetic.ofp8`.

The emulation keeps values in ``float64`` "value space" and rounds after each
operation; rounding is round-to-nearest, ties-to-even, with gradual underflow
(subnormals) and overflow to the signed infinity of the format.
"""

from __future__ import annotations

import math

import numpy as np

from .base import NumberFormat, round_to_quantum
from .bitkernels import IEEEBitKernel

__all__ = ["IEEEFormat", "FLOAT16", "BFLOAT16", "FLOAT32", "FLOAT64"]

_FLOAT32_MAX = float(np.finfo(np.float32).max)


class IEEEFormat(NumberFormat):
    """Parametric IEEE-754 binary format with ``ebits`` exponent bits and
    ``mbits`` explicit mantissa bits.

    Parameters
    ----------
    ebits, mbits:
        Field widths; total width is ``1 + ebits + mbits``.
    name:
        Registry name of the format.
    """

    has_infinity = True
    saturating = False
    work_dtype = np.float64

    def __init__(self, ebits: int, mbits: int, name: str):
        if ebits < 2 or mbits < 1:
            raise ValueError("IEEEFormat requires ebits >= 2 and mbits >= 1")
        self.ebits = int(ebits)
        self.mbits = int(mbits)
        self.name = name
        self.bits = 1 + self.ebits + self.mbits
        self.bias = (1 << (self.ebits - 1)) - 1
        #: minimum normal exponent
        self.emin = 1 - self.bias
        #: maximum normal exponent
        self.emax = self.bias
        self._max_value = float(
            math.ldexp(2.0 - math.ldexp(1.0, -self.mbits), self.emax)
        )
        self._min_positive = float(math.ldexp(1.0, self.emin - self.mbits))
        self._min_normal = float(math.ldexp(1.0, self.emin))
        # float32/float64 round via a single hardware cast; there the vector
        # kernel beats any per-element Python loop, so the small-array scalar
        # dispatch is disabled (the scalar kernel itself stays available for
        # the contexts' scalar elementary operations)
        self._cast_dtype = None
        if (self.ebits, self.mbits) == (11, 52):
            self._cast_dtype = np.float64
            self.scalar_cutoff = 0
        elif (self.ebits, self.mbits) == (8, 23):
            self._cast_dtype = np.float32
            self.scalar_cutoff = 0

    # ------------------------------------------------------------------ #
    # bit-level
    # ------------------------------------------------------------------ #
    def decode_code(self, code: int) -> float:
        """Decode one IEEE code (sign, biased exponent, mantissa) into its
        float64 value: subnormals for exponent field 0, ±inf/NaN for the
        all-ones exponent field."""
        code = int(code) & ((1 << self.bits) - 1)
        sign = -1.0 if (code >> (self.bits - 1)) & 1 else 1.0
        exp_field = (code >> self.mbits) & ((1 << self.ebits) - 1)
        mant = code & ((1 << self.mbits) - 1)
        if exp_field == (1 << self.ebits) - 1:
            if mant == 0:
                return sign * math.inf
            return math.nan
        if exp_field == 0:
            return sign * math.ldexp(mant, self.emin - self.mbits)
        return sign * math.ldexp(
            (1 << self.mbits) + mant, exp_field - self.bias - self.mbits
        )

    def _build_bitkernel(self):
        """Integer bit-twiddling kernel for the non-cast widths.

        float32/float64 round via a single hardware cast, which no integer
        kernel can beat; every other width (float16, bfloat16, E5M2) gets
        the LUT-driven RNE kernel with overflow and deep-subnormal binades
        resolved through :meth:`round_without_kernel`."""
        if self._cast_dtype is not None:
            return None
        return IEEEBitKernel(self.ebits, self.mbits, self.round_without_kernel)

    def encode_analytic(self, values) -> np.ndarray:
        """Analytic (table-free) encode: round through the analytic kernel,
        then emit the sign/exponent/mantissa fields per element.  Returns
        ``uint64`` codes of the same shape as ``values``."""
        values = np.asarray(values, dtype=self.work_dtype)
        rounded = self.round_array_analytic(values)
        out = np.zeros(values.shape, dtype=np.uint64)
        flat = rounded.ravel()
        res = out.ravel()
        for i in range(flat.size):
            res[i] = self._encode_scalar(float(flat[i]))
        return out

    def _encode_scalar(self, v: float) -> int:
        sign_bit = 1 if (math.copysign(1.0, v) < 0) else 0
        if math.isnan(v):
            # canonical quiet NaN: all exponent bits set, MSB of mantissa set
            return (
                (1 << (self.bits - 1))
                | (((1 << self.ebits) - 1) << self.mbits)
                | (1 << (self.mbits - 1))
            )
        if math.isinf(v):
            return (sign_bit << (self.bits - 1)) | (
                ((1 << self.ebits) - 1) << self.mbits
            )
        a = abs(v)
        if a == 0.0:
            return sign_bit << (self.bits - 1)
        if a < self._min_normal:
            mant = int(round(a / self._min_positive))
            exp_field = 0
            if mant >= (1 << self.mbits):
                exp_field, mant = 1, 0
        else:
            exp = math.floor(math.log2(a))
            # guard against log2 rounding at binade boundaries
            if math.ldexp(1.0, exp) > a:
                exp -= 1
            elif math.ldexp(1.0, exp + 1) <= a:
                exp += 1
            mant = int(round(math.ldexp(a, self.mbits - exp))) - (1 << self.mbits)
            exp_field = exp + self.bias
            if mant >= (1 << self.mbits):
                mant = 0
                exp_field += 1
        return (sign_bit << (self.bits - 1)) | (exp_field << self.mbits) | mant

    # ------------------------------------------------------------------ #
    # value-space rounding
    # ------------------------------------------------------------------ #
    def round_scalar_analytic(self, value):
        """Scalar twin of :meth:`round_array_analytic` for one value.

        ``float64`` is the identity, ``float32`` one hardware cast; every
        other width runs the pure-Python quantum kernel
        (``math.frexp``/``math.ldexp``, ties to even via Python's banker
        ``round``) with gradual underflow and overflow to signed infinity,
        bit-identical to the vector kernel — including the sign of zero.
        """
        v = float(value)
        if self._cast_dtype is np.float64:
            return v
        if self._cast_dtype is not None:
            if abs(v) <= _FLOAT32_MAX:  # cannot overflow: skip the errstate cost
                return float(np.float32(v))
            with np.errstate(over="ignore"):  # overflow to inf is the rounding
                return float(np.float32(v))
        return self._round_scalar_quantum(v)

    def _round_scalar_quantum(self, v: float) -> float:
        """Pure-Python quantum rounding of one float (non-cast widths)."""
        if v != v or v == math.inf or v == -math.inf:
            return v  # non-finite values pass through unchanged
        if v == 0.0:
            return v  # preserve the sign of zero
        a = -v if v < 0.0 else v
        exp = math.frexp(a)[1] - 1
        if exp < self.emin:
            exp = self.emin  # gradual underflow: subnormal quantum
        qexp = exp - self.mbits
        mag = float(round(math.ldexp(a, -qexp))) * math.ldexp(1.0, qexp)
        if mag > self._max_value:
            mag = math.inf
        return -mag if v < 0.0 else mag

    def round_array_analytic(self, values) -> np.ndarray:
        """Vectorised ground-truth rounding: a single hardware cast for
        float32/float64, otherwise quantum rounding at the magnitude's
        (clamped) binade — gradual underflow below ``emin``, overflow to
        the signed infinity beyond ``max_value``."""
        x = np.asarray(values, dtype=self.work_dtype)
        if self.ebits == 11 and self.mbits == 52:
            return x.astype(np.float64)
        if self.ebits == 8 and self.mbits == 23:
            with np.errstate(over="ignore"):  # overflow to inf is the rounding
                return x.astype(np.float32).astype(self.work_dtype)
        out = np.array(x, dtype=self.work_dtype, copy=True)
        finite = np.isfinite(x)
        if not finite.any():
            return out
        a = np.abs(np.where(finite, x, 0.0))
        # exponent of each magnitude; frexp(0) -> (0, 0) which is harmless
        _, e = np.frexp(a)
        exp = e.astype(np.int64) - 1
        exp_eff = np.maximum(exp, self.emin)
        quantum = np.ldexp(np.ones_like(a), (exp_eff - self.mbits).astype(np.int64))
        rounded = round_to_quantum(np.where(finite, x, 0.0), quantum)
        over = np.abs(rounded) > self._max_value
        rounded = np.where(over, np.copysign(np.inf, rounded), rounded)
        out[finite] = rounded[finite]
        return out

    # ------------------------------------------------------------------ #
    # metadata
    # ------------------------------------------------------------------ #
    @property
    def max_value(self) -> float:
        """Largest finite magnitude ``(2 - 2^-mbits) * 2^emax``."""
        return self._max_value

    @property
    def min_positive(self) -> float:
        """Smallest positive (subnormal) magnitude ``2^(emin - mbits)``."""
        return self._min_positive

    @property
    def min_normal(self) -> float:
        """Smallest positive normal magnitude."""
        return self._min_normal

    def _compute_machine_epsilon(self) -> float:
        return math.ldexp(1.0, -self.mbits)


#: IEEE binary16 ("half precision")
FLOAT16 = IEEEFormat(5, 10, "float16")
#: Google Brain bfloat16
BFLOAT16 = IEEEFormat(8, 7, "bfloat16")
#: IEEE binary32
FLOAT32 = IEEEFormat(8, 23, "float32")
#: IEEE binary64
FLOAT64 = IEEEFormat(11, 52, "float64")
