"""Differential kernel-test harness shared by the rounding-kernel suites.

Every rounding backend in :mod:`repro.arithmetic` — the integer bit kernels
(one-word float64 and two-word extended) and the scalar kernels — must be
bit-identical to the analytic ground truth (``round_array_analytic``).  This
module centralises the machinery those proofs share so each suite states
*what* it sweeps, not how:

* **sweep generators**, all seeded and format-aware: log-uniform random
  magnitudes across (and beyond) a format's dynamic range in its own work
  precision, the shared NaR/NaN/inf/signed-zero edge battery, range/epsilon
  boundary values, exact adjacent-code midpoints (the rounding ties),
  either from explicit code ranges or sampled around binade boundaries,
  every decision boundary of a <= 16-bit format's enumerated value table,
  and strided float32 bit patterns;
* **comparators** that work for any work dtype: longdouble results cannot be
  compared as raw words (the x87 16-byte slots carry 6 bytes of undefined
  padding), so identity is asserted as value + NaN-position + zero-sign
  equality, which is equivalent to word identity for canonical floats;
  ``words=True`` tightens this to raw-word identity for float64 (NaN sign
  and payload included) and to sign-bit identity of every element, NaNs
  included, for longdouble;
* **differential drivers** running any kernel-like callable against the
  analytic kernel over a batch of named sweeps.

The harness is import-light (no fixtures): suites compose these helpers with
their own parametrisation.
"""

from __future__ import annotations

import functools
import math

import numpy as np

__all__ = [
    "assert_rounded_equal",
    "assert_scalar_matches_vector",
    "edge_battery",
    "specials_battery",
    "value_table",
    "value_table_boundaries",
    "float32_pattern_values",
    "random_sweep",
    "boundary_sweep",
    "midpoint_sweep",
    "code_midpoints",
    "binade_boundary_codes",
    "differential_round_check",
    "run_differential_sweeps",
]


# --------------------------------------------------------------------- #
# comparators
# --------------------------------------------------------------------- #
def assert_rounded_equal(got, expected, context="", *, words=False):
    """Require value identity: same NaN positions, equal values elsewhere,
    and matching zero signs.

    For canonical float64 this is exactly word identity; for longdouble it
    is the strongest portable comparison (raw words differ in undefined
    padding bytes).  ``words=True`` additionally requires the NaN signs to
    match — as raw float64 words (payload included), or as the sign bit of
    every longdouble element.
    """
    got = np.asarray(got)
    expected = np.asarray(expected)
    assert got.shape == expected.shape, f"{context}: shape mismatch"
    if words:
        assert got.dtype == expected.dtype, f"{context}: dtype mismatch"
        if got.dtype == np.float64:
            gw = np.ascontiguousarray(got).view(np.uint64)
            ew = np.ascontiguousarray(expected).view(np.uint64)
            bad = np.flatnonzero(gw != ew)
            assert bad.size == 0, (
                f"{context}: raw words differ at {bad[:8].tolist()} "
                f"(got {[hex(int(w)) for w in gw.ravel()[bad[:4]]]}, "
                f"expected {[hex(int(w)) for w in ew.ravel()[bad[:4]]]})"
            )
            return
        assert np.array_equal(np.signbit(got), np.signbit(expected)), (
            f"{context}: sign bits differ (NaN signs included)"
        )
    nan_g, nan_e = np.isnan(got), np.isnan(expected)
    assert np.array_equal(nan_g, nan_e), f"{context}: NaN positions differ"
    eq = got[~nan_g] == expected[~nan_e]
    assert bool(np.all(eq)), (
        f"{context}: rounded values differ at "
        f"{np.flatnonzero(~eq)[:8].tolist()} "
        f"(got {got[~nan_g][~eq][:4]!r}, expected {expected[~nan_e][~eq][:4]!r})"
    )
    sg = np.signbit(got[~nan_g])
    se = np.signbit(expected[~nan_e])
    assert np.array_equal(sg, se), f"{context}: zero signs differ"


def assert_scalar_matches_vector(fmt, values, context=""):
    """Round ``values`` through the scalar and vector analytic kernels and
    require bit identity element by element."""
    values = np.asarray(values, dtype=fmt.work_dtype)
    expected = fmt.round_array_analytic(values)
    for i, v in enumerate(values):
        got = fmt.round_scalar_analytic(v)
        exp = expected[i]
        if exp != exp:  # NaN expected
            assert got != got, f"{fmt.name}{context}: {v!r} -> {got!r}, expected NaN"
            continue
        assert got == exp, f"{fmt.name}{context}: {v!r} -> {got!r}, expected {exp!r}"
        assert bool(np.signbit(np.asarray(got))) == bool(np.signbit(exp)), (
            f"{fmt.name}{context}: {v!r} -> {got!r} has wrong zero sign"
        )


# --------------------------------------------------------------------- #
# sweep generators
# --------------------------------------------------------------------- #
def edge_battery(dtype=np.float64) -> np.ndarray:
    """NaR/NaN/inf/signed-zero/extreme battery shared by every family."""
    return np.asarray(
        [
            0.0,
            -0.0,
            math.inf,
            -math.inf,
            math.nan,
            5e-324,
            -5e-324,
            1e-308,
            -1e-308,
            1e308,
            -1e308,
            1.0,
            -1.0,
        ],
        dtype=dtype,
    )


def specials_battery(fmt) -> np.ndarray:
    """Both signs of NaN, infinity, zero and of magnitudes that overflow or
    underflow ``fmt`` (including ``inf - inf``, the default NaN of x86
    arithmetic, whose sign bit is set), in the format's work precision."""
    wd = fmt.work_dtype
    maxv = float(fmt.max_value)
    minp = float(fmt.min_positive)
    with np.errstate(invalid="ignore"):
        default_nan = np.float64(np.inf) - np.float64(np.inf)
    magnitudes = [
        math.inf,
        0.0,
        maxv * 1.25,
        maxv * 4.0,
        1e300,
        minp / 4.0,
        minp / 3.0,
        5e-324,
        500.0,  # beyond E4M3's overflow threshold
    ]
    values = [math.nan, -math.nan, float(default_nan), -float(default_nan)]
    for m in magnitudes:
        values += [m, -m]
    return np.asarray(values, dtype=wd)


@functools.lru_cache(maxsize=None)
def value_table(fmt) -> tuple[np.ndarray, np.ndarray]:
    """Every finite non-negative magnitude of a <= 16-bit float64-work
    format, ascending, with its code — decoded code by code through the
    scalar ``decode_code``, the single source of truth."""
    half = 1 << (fmt.bits - 1)
    codes = np.arange(half, dtype=np.int64)
    mags = np.asarray([float(fmt.decode_code(int(c))) for c in codes])
    finite = np.isfinite(mags)
    mags, codes = mags[finite], codes[finite]
    order = np.argsort(mags, kind="stable")
    mags, codes = mags[order], codes[order]
    mags.flags.writeable = codes.flags.writeable = False  # shared via the cache
    return mags, codes


def value_table_boundaries(fmt) -> np.ndarray:
    """Every rounding decision boundary of a <= 16-bit format: each
    representable magnitude, each adjacent-code midpoint (the exact ties;
    exact in float64 because adjacent codes share their significand bits),
    the overflow threshold half a top-binade ulp above the largest
    magnitude, their float64 neighbours, far-out magnitudes and the edge
    battery, with both signs."""
    mags, _codes = value_table(fmt)
    mids = (mags[:-1] + mags[1:]) * 0.5
    overflow = mags[-1] + (mags[-1] - mags[-2]) * 0.5
    anchors = np.concatenate([mags, mids, [overflow]])
    around = np.concatenate(
        [
            anchors,
            np.nextafter(anchors, np.inf),
            np.nextafter(anchors, -np.inf),
            [mags[-1] * 2.0, mags[-1] * 1e10, 1e300, 1e-300],
        ]
    )
    return np.concatenate([around, -around, edge_battery()])


def float32_pattern_values(stride, offset=0) -> np.ndarray:
    """Float64 values of every ``stride``-th float32 bit pattern (both signs,
    all exponents, NaN/inf patterns included)."""
    patterns = np.arange(offset, 1 << 32, stride, dtype=np.int64).astype(np.uint32)
    with np.errstate(invalid="ignore"):  # NaN patterns are swept on purpose
        return patterns.view(np.float32).astype(np.float64)


def _exponent_span(fmt) -> float:
    """Binade span covering the format's range with ~20% overshoot."""
    top = math.log2(float(fmt.max_value)) if np.isfinite(fmt.max_value) else 1024.0
    return max(40.0, 1.2 * abs(top) + 16.0)


def random_sweep(fmt, n=20_000, seed=42, span=None) -> np.ndarray:
    """Sign-symmetric log-uniform magnitudes across (and beyond) ``fmt``'s
    dynamic range, generated in the format's own work precision so that
    longdouble-only exponents are reached, with zeros and the edge battery
    mixed in."""
    rng = np.random.default_rng(seed)
    wd = fmt.work_dtype
    span = _exponent_span(fmt) if span is None else span
    exponents = rng.uniform(-span, span, n).astype(wd)
    with np.errstate(over="ignore"):  # overshoot past the work range is wanted
        values = (wd(2.0) ** exponents) * rng.standard_normal(n)
    values[rng.integers(0, n, n // 64)] = 0.0
    return np.concatenate([values, edge_battery(wd)]).astype(wd)


def solver_regime_sweep(fmt, n=20_000, seed=6) -> np.ndarray:
    """Magnitudes around 1.0, the regime the solvers live in."""
    rng = np.random.default_rng(seed)
    wd = fmt.work_dtype
    return (rng.standard_normal(n) * np.exp(rng.uniform(-12, 12, n))).astype(wd)


def boundary_sweep(fmt) -> np.ndarray:
    """Specials, range edges and their work-precision neighbours."""
    wd = fmt.work_dtype
    maxv = wd(fmt.max_value)
    minp = wd(fmt.min_positive)
    pieces = [
        0.0,
        -0.0,
        math.inf,
        -math.inf,
        math.nan,
        1.0,
        -1.0,
        1e300,
        -1e300,
        1e-300,
        5e-324,
        -5e-324,
        float(maxv),
        float(minp),
        float(maxv) * 2.0,
        float(minp) * 0.5,
    ]
    values = [wd(p) for p in pieces]
    one = wd(1.0)
    eps = wd(fmt.machine_epsilon)
    # spacing around 1.0, including the half-ulp tie in the work precision
    values += [one + eps, one - eps, one + eps / wd(2.0), one - eps / wd(4.0)]
    return np.asarray(values, dtype=wd)


def code_midpoints(fmt, codes) -> np.ndarray:
    """Exact midpoints of each adjacent code pair ``(c, c + 1)``.

    Midpoints whose decoded endpoints are non-finite, zero-crossing, or not
    exactly representable in the work precision are skipped, so every value
    returned is a *true* rounding tie exercising ties-to-even on the code
    grid.  Both signs are returned.
    """
    wd = fmt.work_dtype
    half = wd(0.5)
    mids = []
    for code in codes:
        v1 = fmt.decode_code(int(code))
        v2 = fmt.decode_code(int(code) + 1)
        if not (np.isfinite(v1) and np.isfinite(v2)):
            continue
        if (v1 < 0) != (v2 < 0) or v1 == v2:
            continue
        a, b = wd(v1), wd(v2)
        mid = (a + b) * half
        if mid == a or mid == b:  # the extra bit does not fit work precision
            continue
        if mid - a != b - mid:  # (a + b) rounded: not an equidistant tie
            continue
        mids += [mid, -mid]
    return np.asarray(mids, dtype=wd)


def midpoint_sweep(fmt, span=256) -> np.ndarray:
    """Adjacent-code midpoints from the small-, mid- and large-magnitude
    ends of the positive code range (the classic tie workload)."""
    half_codes = 1 << (fmt.bits - 1)
    ranges = [range(1, min(span, half_codes - 1))]
    if fmt.bits > 10:
        mid_start = 1 << (fmt.bits - 3)
        ranges.append(range(mid_start, min(mid_start + span, half_codes - 1)))
        ranges.append(range(max(half_codes - span, 1), half_codes - 1))
    codes = [c for code_range in ranges for c in code_range]
    return code_midpoints(fmt, codes)


def binade_boundary_codes(fmt, exponents, window=48) -> np.ndarray:
    """Codes in a ``window`` around each binade boundary ``2**e``.

    Encoding ``2**e`` places the window exactly where the format's regime /
    characteristic / exponent fields change, the regions where tapered
    rounding grids switch step size — the hard cases for any kernel.
    Out-of-range exponents saturate harmlessly to the end of the code range.
    """
    wd = fmt.work_dtype
    anchors = fmt.encode_analytic(
        fmt.round_array_analytic(wd(2.0) ** np.asarray(exponents, dtype=wd))
    ).astype(np.int64)
    half_codes = 1 << (fmt.bits - 1)
    codes = (anchors[:, None] + np.arange(-window, window + 1)[None, :]).ravel()
    codes = codes[(codes >= 1) & (codes < half_codes - 1)]
    return np.unique(codes)


# --------------------------------------------------------------------- #
# differential drivers
# --------------------------------------------------------------------- #
def differential_round_check(fmt, round_fn, values, context=""):
    """Run ``round_fn`` against ``fmt.round_array_analytic`` over ``values``
    and require value identity.  ``values`` is never mutated."""
    values = np.asarray(values, dtype=fmt.work_dtype)
    got = round_fn(values.copy())
    expected = fmt.round_array_analytic(values.copy())
    assert_rounded_equal(got, expected, f"{fmt.name}{context}")


def run_differential_sweeps(fmt, round_fn, *, n=20_000, seed=42, span=256):
    """The standard battery: random + boundary + adjacent-code-midpoint
    sweeps of ``round_fn`` against the analytic kernel."""
    differential_round_check(fmt, round_fn, random_sweep(fmt, n, seed), " random")
    differential_round_check(fmt, round_fn, boundary_sweep(fmt), " boundary")
    differential_round_check(fmt, round_fn, midpoint_sweep(fmt, span), " ties")
