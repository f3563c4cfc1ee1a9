"""OFP8 8-bit floating-point formats (OCP 8-bit Floating Point Specification).

Two formats are defined by the specification:

* ``E5M2`` (1-5-2) follows IEEE-754 special-value conventions (signed
  infinities, NaNs with non-zero mantissa in the top exponent) and is simply
  an :class:`~repro.arithmetic.ieee.IEEEFormat` instance.
* ``E4M3`` (1-4-3) trades the infinities for one extra binade: the top
  exponent field still encodes normal numbers except for the all-ones
  mantissa, which is the (only) NaN.  The largest finite value is 448.

E4M3 overflow behaviour is configurable: the specification's default
(non-saturating) mode maps overflows to NaN, the saturating mode clamps to
±448.  The experiments use the NaN mode by default; the saturation ablation
benchmark exercises the alternative.
"""

from __future__ import annotations

import math

import numpy as np

from .base import NumberFormat, nearest_in_table, nearest_in_table_scalar
from .bitkernels import E4M3BitKernel
from .ieee import IEEEFormat

__all__ = ["OFP8E4M3", "OFP8E5M2", "E4M3", "E5M2"]


class OFP8E4M3(NumberFormat):
    """OFP8 E4M3: 4 exponent bits, 3 mantissa bits, bias 7, no infinities.

    Parameters
    ----------
    saturate:
        Overflow policy: ``False`` (specification default) maps overflowing
        magnitudes to NaN, ``True`` clamps them to ±448.
    name:
        Registry name; defaults to ``"E4M3"`` / ``"E4M3sat"``.
    """

    bits = 8
    has_infinity = False
    work_dtype = np.float64

    #: magnitude beyond which round-to-nearest can no longer return 448
    _overflow_threshold = 464.0

    def __init__(self, saturate: bool = False, name: str | None = None):
        self.saturate = bool(saturate)
        self.name = name or ("E4M3sat" if saturate else "E4M3")
        self.bias = 7
        self._build_table()
        self._scalar_state: tuple | None = None

    def _build_table(self) -> None:
        mags = []
        codes = []
        for code in range(128):  # non-negative codes
            v = self.decode_code(code)
            if math.isnan(v):
                continue
            mags.append(v)
            codes.append(code)
        order = np.argsort(np.asarray(mags))
        self._magnitudes = np.asarray(mags, dtype=np.float64)[order]
        self._codes = np.asarray(codes, dtype=np.int64)[order]

    def _build_bitkernel(self):
        """Integer bit-twiddling kernel; the top binade (overflow-to-NaN or
        saturation policy) and deep subnormals resolve through
        :meth:`round_without_kernel`, so both overflow variants share one
        kernel construction."""
        return E4M3BitKernel(self.round_without_kernel)

    # ------------------------------------------------------------------ #
    def decode_code(self, code: int) -> float:
        """Decode one E4M3 code: IEEE-style fields except the all-ones
        exponent still encodes normals, with ``S.1111.111`` the only NaN
        and no infinities."""
        code = int(code) & 0xFF
        sign = -1.0 if code & 0x80 else 1.0
        exp_field = (code >> 3) & 0xF
        mant = code & 0x7
        if exp_field == 0xF and mant == 0x7:
            return math.nan
        if exp_field == 0:
            return sign * math.ldexp(mant, -6 - 3)
        return sign * math.ldexp(8 + mant, exp_field - self.bias - 3)

    def encode_analytic(self, values) -> np.ndarray:
        """Analytic (table-free) encode: round through the analytic kernel,
        then look each magnitude up in the enumerated code table.  Returns
        ``uint64`` codes; ``-0.0`` canonicalises to the all-zeros code."""
        values = np.asarray(values, dtype=self.work_dtype)
        rounded = self.round_array_analytic(values)
        out = np.zeros(values.shape, dtype=np.uint64)
        flat = rounded.ravel()
        res = out.ravel()
        for i in range(flat.size):
            v = float(flat[i])
            if math.isnan(v):
                res[i] = 0x7F
                continue
            idx = int(np.searchsorted(self._magnitudes, abs(v)))
            idx = min(idx, len(self._magnitudes) - 1)
            code = int(self._codes[idx])
            if math.copysign(1.0, v) < 0 and v != 0.0:
                code |= 0x80
            res[i] = code
        return out

    def round_scalar_analytic(self, value):
        """Scalar twin of :meth:`round_array_analytic` for one value.

        Bisect over the enumerated magnitude table with ties to the even
        code, plus the configured overflow policy (NaN above 464, or
        saturation at ±448); bit-identical to the vector kernel, including
        the sign of zero.
        """
        state = self._scalar_state
        if state is None:
            state = (self._magnitudes.tolist(), self._codes.tolist())
            self._scalar_state = state
        v = float(value)
        if v != v:
            return math.nan
        a = -v if v < 0.0 else v
        if a > self._overflow_threshold:  # includes infinite inputs
            mag = 448.0 if self.saturate else math.nan
        else:
            mags, codes = state
            mag = mags[nearest_in_table_scalar(a, mags, codes)]
        return math.copysign(mag, v)

    def round_array_analytic(self, values) -> np.ndarray:
        """Vectorised ground-truth rounding: nearest entry of the
        enumerated magnitude table (ties to the even code), with the
        configured overflow policy above 464 (NaN, or ±448 when
        saturating)."""
        x = np.asarray(values, dtype=self.work_dtype)
        out = np.empty(x.shape, dtype=self.work_dtype)
        nan_mask = np.isnan(x)
        a = np.abs(np.where(nan_mask, 0.0, x))
        idx = nearest_in_table(
            np.where(np.isfinite(a), a, self.max_value), self._magnitudes, self._codes
        )
        mags = self._magnitudes[idx]
        over = a > self._overflow_threshold
        if self.saturate:
            mags = np.where(over, self.max_value, mags)
        else:
            mags = np.where(over, np.nan, mags)
        out[...] = np.copysign(mags, np.where(nan_mask, 1.0, x))
        out[nan_mask] = np.nan
        return out

    @property
    def max_value(self) -> float:
        """Largest finite magnitude (code ``S.1111.110``)."""
        return 448.0

    @property
    def min_positive(self) -> float:
        """Smallest positive (subnormal) magnitude ``2^-9``."""
        return math.ldexp(1.0, -9)

    def _compute_machine_epsilon(self) -> float:
        return 0.125


class OFP8E5M2(IEEEFormat):
    """OFP8 E5M2: IEEE-style 1-5-2 format with infinities and NaNs."""

    def __init__(self):
        super().__init__(5, 2, "E5M2")


#: module-level singletons used by the registry
E4M3 = OFP8E4M3()
E5M2 = OFP8E5M2()
