"""Value-table sweeps: bit-exactness of the rounding dispatch over the whole
enumerated value table of every format of <= 16 bits.

A format of at most 16 bits has few enough codes to enumerate, so its
rounding can be checked at *every* decision boundary: each representable
magnitude, each exact tie between adjacent codes, the overflow threshold and
their float64 neighbours.  These tests run the public dispatch
(``round_array``, which serves tiny arrays through the scalar kernel and
larger ones through the bit kernel), the codecs (``encode``/``decode``) and
the context opt-out against the analytic ground truth.  The sweep generators
and comparators live in :mod:`tests._kernel_harness`; the ``slow``-marked
tests densify the float32-pattern sweep (run them with
``pytest -m slow tests/test_tables.py``).
"""

import numpy as np
import pytest

from repro.arithmetic import get_context, get_format, preload_tables
from repro.arithmetic.context import EmulatedContext
from repro.arithmetic.ofp8 import OFP8E4M3
from tests._kernel_harness import (
    assert_rounded_equal,
    float32_pattern_values,
    value_table_boundaries,
)

EIGHT_BIT = ["E4M3", "E5M2", "posit8", "takum8"]
SIXTEEN_BIT = ["float16", "bfloat16", "posit16", "takum16"]
TABLE_FORMATS = EIGHT_BIT + SIXTEEN_BIT


def _check_dispatch(fmt, values, context=""):
    assert_rounded_equal(
        fmt.round_array(values), fmt.round_array_analytic(values), f"{fmt.name}{context}"
    )


@pytest.fixture(params=TABLE_FORMATS)
def table_format(request):
    return get_format(request.param)


class TestBitExactRounding:
    def test_boundary_sweep(self, table_format):
        _check_dispatch(table_format, value_table_boundaries(table_format))

    @pytest.mark.parametrize("fmt_name", EIGHT_BIT)
    def test_float32_pattern_sweep_sample(self, fmt_name):
        values = float32_pattern_values(stride=65537)  # ~65k patterns, odd stride
        _check_dispatch(get_format(fmt_name), values)

    @pytest.mark.slow
    @pytest.mark.parametrize("fmt_name", EIGHT_BIT)
    def test_float32_pattern_sweep_dense(self, fmt_name):
        fmt = get_format(fmt_name)
        for offset in range(0, 509, 127):
            values = float32_pattern_values(stride=509, offset=offset)
            _check_dispatch(fmt, values, f" offset={offset}")

    @pytest.mark.parametrize("fmt_name", SIXTEEN_BIT)
    def test_dense_random_sweep_16bit(self, fmt_name):
        rng = np.random.default_rng(99)
        values = rng.standard_normal(200_000) * np.exp(rng.uniform(-200, 200, 200_000))
        _check_dispatch(get_format(fmt_name), values)

    def test_e4m3_saturating_variant(self):
        fmt = OFP8E4M3(saturate=True)
        values = np.concatenate(
            [value_table_boundaries(fmt), float32_pattern_values(stride=131101)]
        )
        _check_dispatch(fmt, values)

    def test_scalar_fast_path_matches_vector_and_analytic(self, table_format):
        """Arrays of up to ``scalar_cutoff`` elements take the pure-Python
        scalar kernel; sweep every decision boundary through it element by
        element and compare with the bit-kernel batch and the analytic
        kernel."""
        fmt = table_format
        values = value_table_boundaries(fmt)
        assert values.size > fmt.scalar_cutoff >= 1
        batch = fmt.round_array(values)
        analytic = fmt.round_array_analytic(values)
        scalar = np.empty_like(values)
        for i, v in enumerate(values):
            scalar[i] = fmt.round_array(np.asarray([v], dtype=fmt.work_dtype))[0]
        assert_rounded_equal(scalar, batch, f"{fmt.name} scalar-vs-vector")
        assert_rounded_equal(scalar, analytic, f"{fmt.name} scalar-vs-analytic")

    def test_idempotent(self, table_format):
        rng = np.random.default_rng(5)
        values = rng.standard_normal(1000) * np.exp(rng.uniform(-30, 30, 1000))
        once = table_format.round_array(values)
        finite = np.isfinite(once)
        assert_rounded_equal(table_format.round_array(once)[finite], once[finite])


class TestEncodeDecode:
    def test_roundtrip_all_codes(self, table_format):
        """encode(decode(code)) == code over every code of the format.

        Non-canonical NaN codes (IEEE formats have many NaN patterns) encode
        back to the canonical NaN code, and formats without a signed-zero
        code (E4M3) canonicalise the negative-zero code to all-zeros — both
        exactly as the analytic encoder does.
        """
        fmt = table_format
        codes = np.arange(1 << fmt.bits, dtype=np.uint64)
        decoded = fmt.decode(codes)
        encoded = fmt.encode(decoded)
        nan_code, neg_zero_code = fmt.encode_analytic(np.array([np.nan, -0.0]))
        expected = np.where(np.isnan(decoded), nan_code, codes)
        expected = np.where((decoded == 0.0) & np.signbit(decoded), neg_zero_code, expected)
        assert np.array_equal(encoded, expected), fmt.name

    def test_decode_matches_scalar_decode(self, table_format):
        rng = np.random.default_rng(3)
        codes = rng.integers(0, 1 << table_format.bits, 512, dtype=np.uint64)
        vectorised = table_format.decode(codes)
        scalar = np.array(
            [table_format.decode_code(int(c)) for c in codes],
            dtype=table_format.work_dtype,
        )
        assert_rounded_equal(vectorised, scalar, table_format.name)

    def test_encode_matches_analytic_encode(self, table_format):
        rng = np.random.default_rng(7)
        values = np.concatenate(
            [
                rng.standard_normal(512) * np.exp(rng.uniform(-40, 40, 512)),
                np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1e300, -1e300]),
            ]
        )
        assert np.array_equal(
            table_format.encode(values), table_format.encode_analytic(values)
        ), table_format.name

    def test_decode_preserves_shape_and_dtype(self, table_format):
        codes = np.zeros((3, 4), dtype=np.uint64)
        out = table_format.decode(codes)
        assert out.shape == (3, 4)
        assert out.dtype == table_format.work_dtype


class TestTableCache:
    def test_formats_share_one_table(self):
        """Formats are process-wide singletons: every context of a format
        shares one bit kernel (and with it the kernel's lookup tables)."""
        fmt = get_format("takum16")
        assert fmt.bitkernel() is fmt.bitkernel()
        ctx_a = get_context("takum16")
        ctx_b = get_context("takum16")
        assert ctx_a.format is ctx_b.format is fmt

    def test_preload_tables_skips_native_names(self):
        loaded = preload_tables(["takum16", "float64", "reference", "E4M3"])
        assert "takum16" in loaded
        assert "E4M3" in loaded
        assert "float64" not in loaded
        assert "reference" not in loaded


class TestOptOut:
    def test_context_opt_out_matches_analytic(self):
        rng = np.random.default_rng(11)
        values = rng.standard_normal(256)
        analytic_ctx = get_context("posit16", use_tables=False)
        default_ctx = get_context("posit16")
        assert isinstance(analytic_ctx, EmulatedContext)
        assert analytic_ctx.use_tables is False
        assert_rounded_equal(analytic_ctx.round(values), default_ctx.round(values))

    def test_context_force_tables_rejects_wide_formats(self):
        """``use_tables=True`` used to force the removed lookup-table engine;
        it is rejected for every format now, wide and narrow alike."""
        for name in ("takum64", "takum16"):
            with pytest.raises(ValueError, match="use_tables=True"):
                get_context(name, use_tables=True)
