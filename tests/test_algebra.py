"""Basis-level algebra: sign table, products, conjugation, identity suites."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from octodyson import InvalidArgument, algebra
from octodyson.algebra import (
    CANONICAL_LABELS,
    SIGN_TABLE,
    basis_element,
    conj,
    cyclic_sign_sum,
    imaginary_sum,
    inner,
    label_name,
    mul,
    norm,
    sign,
    subset_label,
    tampered_table,
)

from oracles import (
    einsum_multiplier,
    nested_law_sides,
    reference_cyclic_sign_sum,
    reference_imaginary_sum_square,
    reference_moufang,
    reference_nonassociativity_witness,
    reference_sign_identities,
    reference_table_structure,
    term_multiplier,
)

L1 = subset_label([1])
L2 = subset_label([2])
L3 = subset_label([3])
L12 = subset_label([1, 2])
L13 = subset_label([1, 3])
L23 = subset_label([2, 3])
L123 = subset_label([1, 2, 3])

coords = arrays(np.float64, 8, elements=st.floats(-10, 10, allow_nan=False))
unit_coords = coords.filter(lambda x: np.linalg.norm(x) > 1e-3)


def test_label_encoding():
    assert subset_label([]) == 0
    assert L1 == 0b001 and L2 == 0b010 and L3 == 0b100
    assert L12 == 0b011 and L13 == 0b101 and L23 == 0b110 and L123 == 0b111
    assert CANONICAL_LABELS == (0, L1, L2, L3, L12, L13, L23, L123)
    assert label_name(L13) == "{1,3}"
    # symmetric difference is xor
    assert L12 ^ L23 == L13
    with pytest.raises(InvalidArgument):
        subset_label([4])


def test_sign_table_cells():
    assert sign(L1, L2) == 1
    assert sign(L2, L1) == -1
    assert sign(0, L123) == 1
    assert sign(L13, L13) == -1
    assert sign(0, 0) == 1


def test_table_structure_suite():
    report = algebra.check_table_structure()
    assert report.passed and report.cases == 130


def test_sign_identities_exhaustive():
    report = algebra.check_sign_identities()
    assert report.passed
    # 64 + 64 pairs, 448 qualifying triples, 512 qualifying quadruples, theta
    assert report.cases == 64 + 64 + 448 + 512 + 1


def test_sign_identity_instances():
    # composition instance: sign({1,2},{2}) == sign({1},{2}) sign({2},{2})
    assert sign(L12, L2) == sign(L1, L2) * sign(L2, L2) == -1
    # degenerate four-label instance is trivially 1 == 1
    assert sign(0, 0) ** 4 == sign(0, 0)


def test_cyclic_sign_sum_value():
    total, count = cyclic_sign_sum()
    assert total == 392  # 2^3 * 7^2
    assert count == 2408  # proper colorings of a 4-cycle with 8 labels


def test_basis_products():
    np.testing.assert_array_equal(mul(basis_element(L1), basis_element(L2)),
                                  basis_element(L12))
    np.testing.assert_array_equal(mul(basis_element(L2), basis_element(L1)),
                                  -basis_element(L12))
    # identity element
    x = np.arange(8.0)
    np.testing.assert_array_equal(mul(basis_element(0), x), x)
    np.testing.assert_array_equal(mul(x, basis_element(0)), x)


def test_mul_batched_matches_scalar():
    rng = np.random.default_rng(0)
    xs = rng.standard_normal((20, 8))
    ys = rng.standard_normal((20, 8))
    batched = mul(xs, ys)
    for i in range(20):
        np.testing.assert_allclose(batched[i], mul(xs[i], ys[i]), atol=1e-14)


@pytest.mark.parametrize("tamper", [False, True], ids=["genuine", "tampered"])
@pytest.mark.parametrize("shape_x,shape_y", [((8,), (500, 8)), ((500, 8), (500, 8))],
                         ids=["8xN8", "N8xN8"])
def test_product_matches_dense_contraction(tamper, shape_x, shape_y):
    """The signed gather gives the dense contraction's bits, signed zeros
    included, in a C-ordered array."""
    table = tampered_table() if tamper else SIGN_TABLE
    rng = np.random.default_rng(31)
    x = rng.standard_normal(shape_x)
    y = rng.standard_normal(shape_y)
    # zero coordinates of both signs make some output entries signed zeros
    x[..., 2] = -0.0
    y[..., 5] = 0.0
    y[:40] = -0.0
    got = (algebra._multiplier(table) if tamper else mul)(x, y)
    want = einsum_multiplier(table)(x, y)
    assert got.flags.c_contiguous
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))
    assert (want == 0.0).any()


def _kernel_cases():
    """Named (x, y) inputs for the product's edge cases."""
    rng = np.random.default_rng(47)
    eye = np.eye(8, dtype=np.int64)
    tiny = np.finfo(np.float64).smallest_subnormal
    # signed zeros, subnormals and two normals: products of two subnormals
    # underflow to signed zeros, a subnormal times a normal stays subnormal
    finite = np.array([0.0, -0.0, tiny, -tiny, 7 * tiny, -0.5 * np.finfo(np.float64).tiny,
                       1.5, -2.0])
    special = np.append(finite, [np.inf, -np.inf, np.nan])
    return {
        "8x8": (rng.standard_normal(8), rng.standard_normal(8)),
        # the right translates of check_orthogonal_translates
        "translates": (rng.standard_normal((1000, 1, 8)), np.eye(8)),
        "one-hot-int64": (eye[:, None, :], eye[None, :, :]),
        "zeros-subnormals": (rng.choice(finite, (2000, 8)), rng.choice(finite, (2000, 8))),
        "inf-nan": (rng.choice(special, (2000, 8)), rng.choice(special, (2000, 8))),
    }


KERNEL_CASES = _kernel_cases()


@pytest.mark.parametrize("tamper", [False, True], ids=["genuine", "tampered"])
@pytest.mark.parametrize("case", KERNEL_CASES)
def test_product_edge_cases_match_references(tamper, case):
    """The coordinate-first product equals the dense contraction in value
    and sign bit, NaN compared as NaN, in a C-ordered array.  With infinite
    coordinates the dense contraction's zero structure entries give NaN, so
    that case is checked against the term-by-term sum."""
    table = tampered_table() if tamper else SIGN_TABLE
    x, y = KERNEL_CASES[case]
    oracle = term_multiplier if case == "inf-nan" else einsum_multiplier
    with np.errstate(all="ignore"):
        got = algebra._multiplier(table)(x, y)
        want = oracle(table)(x, y)
    assert got.flags.c_contiguous
    assert np.array_equal(got, want, equal_nan=True)
    number = ~np.isnan(want)
    assert np.array_equal(np.signbit(got)[number], np.signbit(want)[number])


@pytest.mark.parametrize("lead,rows", [
    ((), 1), ((0,), 3), ((2, 0, 3), 1), ((5,), 1), ((5,), 2), ((20_000,), 1489),
    ((1000, 8), 7), ((1000, 8), 1489), ((3, 4, 5), 7), ((3, 4, 5), 20), ((3, 4, 5), 60),
])
def test_row_tiles_cover_every_row_once_in_order(lead, rows):
    index = np.arange(math.prod(lead)).reshape(lead)
    tiles = [np.ravel(index[tile]) for tile in algebra._row_tiles(lead, rows)]
    assert all(0 < tile.size <= rows or tile.size == index.size == 0 for tile in tiles)
    assert np.array_equal(np.concatenate([np.arange(0), *tiles]), np.arange(index.size))


@pytest.mark.parametrize("rows", [1, 7, None], ids=lambda r: f"rows{r or '-default'}")
@pytest.mark.parametrize("case", [*KERNEL_CASES, "normals-20000"])
def test_product_is_tile_invariant(case, rows, monkeypatch):
    """With tiles of one row, seven rows and the default, the product equals
    the references in value, sign bit and NaN position, in the result dtype
    of its inputs and the table, in a C-ordered array."""
    if case == "normals-20000":
        x, y = np.random.default_rng(53).standard_normal((2, 20_000, 8))
    else:
        x, y = KERNEL_CASES[case]
    if rows is not None:
        # 88 coordinates of 8 bytes per float64 or int64 tile row
        monkeypatch.setattr(algebra, "FORM_BATCH_BYTES", rows * 88 * 8)
        assert algebra._tile_rows(np.float64) == algebra._tile_rows(np.int64) == rows
    oracle = term_multiplier if case == "inf-nan" else einsum_multiplier
    with np.errstate(all="ignore"):
        got = mul(x, y)
        want = oracle(SIGN_TABLE)(x, y)
    assert got.dtype == np.result_type(x, y, SIGN_TABLE)
    assert got.flags.c_contiguous
    assert np.array_equal(np.isnan(got), np.isnan(want))
    assert np.array_equal(got, want, equal_nan=True)
    number = ~np.isnan(want)
    assert np.array_equal(np.signbit(got)[number], np.signbit(want)[number])


@pytest.mark.parametrize("x,y", [
    (np.ones(7), np.ones(7)),
    (np.ones((3, 8)), np.ones((3, 7))),
    (np.float64(2.0), np.ones(8)),
    (np.ones((3, 8)), np.ones((4, 8))),
    (np.ones((2, 1, 8)), np.ones((3, 2, 8))),
], ids=["7x7", "8x7", "scalar", "3x4-rows", "stack-mismatch"])
def test_mul_rejects_bad_shapes(x, y):
    """A last axis other than 8, or leading axes that do not broadcast, is
    the caller's error, raised as InvalidArgument."""
    with pytest.raises(InvalidArgument):
        mul(x, y)
    with pytest.raises(InvalidArgument):
        mul(y, x)


@pytest.mark.parametrize("x", [np.ones(7), np.ones((8, 3)), 2.0], ids=["7", "8x3", "scalar"])
def test_conj_rejects_bad_shapes(x):
    with pytest.raises(InvalidArgument):
        conj(x)


@pytest.mark.parametrize("x", [np.ones(7), np.ones((8, 3)), 2.0], ids=["7", "8x3", "scalar"])
def test_norm_rejects_bad_shapes(x):
    """A vector of seven coordinates has no octonion norm: sqrt(7) would be
    a plausible wrong number."""
    with pytest.raises(InvalidArgument):
        norm(x)


@pytest.mark.parametrize("x,y", [
    (np.ones(7), np.ones(7)),
    (np.ones((3, 8)), np.ones((3, 7))),
    (np.float64(2.0), np.ones(8)),
    (np.ones((2, 8)), np.ones((3, 8))),
    (np.ones((2, 1, 8)), np.ones((3, 2, 8))),
], ids=["7x7", "8x7", "scalar", "2x3-rows", "stack-mismatch"])
def test_inner_rejects_bad_shapes(x, y):
    """As for mul: a last axis other than 8, or leading axes that do not
    broadcast, raise InvalidArgument."""
    with pytest.raises(InvalidArgument):
        inner(x, y)
    with pytest.raises(InvalidArgument):
        inner(y, x)


def test_mul_exact_on_integer_basis():
    """Integer one-hot inputs give the exact int64 products sign(a, b) w_{a^b}."""
    eye = np.eye(8, dtype=np.int64)
    got = mul(eye[:, None, :], eye[None, :, :])  # got[a, b] = w_a w_b
    assert got.dtype == np.int64
    a, b = np.indices((8, 8))
    want = np.zeros((8, 8, 8), dtype=np.int64)
    want[a, b, a ^ b] = SIGN_TABLE
    assert np.array_equal(got, want)


@settings(max_examples=200)
@given(unit_coords, unit_coords)
def test_norm_multiplicative(x, y):
    assert abs(norm(mul(x, y)) - norm(x) * norm(y)) <= 1e-12 * norm(x) * norm(y)


@settings(max_examples=200)
@given(coords)
def test_conjugation_recovers_norm(x):
    prod = mul(x, conj(x))
    expected = np.zeros(8)
    expected[0] = norm(x) ** 2
    np.testing.assert_allclose(prod, expected, atol=1e-11 * (1 + norm(x) ** 2))


def test_conj_basis():
    np.testing.assert_array_equal(conj(basis_element(0)), basis_element(0))
    np.testing.assert_array_equal(conj(basis_element(L23)), -basis_element(L23))


@settings(max_examples=100)
@given(coords, coords)
def test_product_conjugation_reverses(x, y):
    lhs = conj(mul(x, y))
    rhs = mul(conj(y), conj(x))
    np.testing.assert_allclose(lhs, rhs, atol=1e-11 * (1 + norm(x) * norm(y)))


@settings(max_examples=100)
@given(unit_coords)
def test_right_translates_orthogonal(x):
    translates = [mul(x, basis_element(a)) for a in range(8)]
    for a in range(8):
        for b in range(a + 1, 8):
            assert abs(inner(translates[a], translates[b])) <= 1e-12 * norm(x) ** 2


def test_moufang_suite():
    report = algebra.check_moufang(trials=5000, seed=11)
    assert report.passed
    assert report.cases == 512 * 4 + 64 * 2 + 5000 * 6
    assert report.max_residual < 1e-12


def test_law_sides_share_sub_products():
    """The law sides take 24 products, not the 29 of the sides written out,
    with the same bits on the integer basis and on random elements."""
    m = algebra._multiplier(SIGN_TABLE)
    calls = []

    def counted(p, q):
        calls.append(None)
        return m(p, q)

    _, basis = algebra._basis_triples()
    for x, y, z in (basis, np.random.default_rng(59).standard_normal((3, 500, 8))):
        calls.clear()
        got = algebra._law_sides(counted, x, y, z)
        assert len(calls) == 24
        for sides, want_sides in zip(got, nested_law_sides(m, x, y, z), strict=True):
            for side, want in zip(sides, want_sides):
                assert side.dtype == want.dtype
                assert np.array_equal(side, want)
                assert np.array_equal(np.signbit(side), np.signbit(want))


@pytest.mark.parametrize("suite,size,draws", [
    (algebra.check_norm_multiplicativity, {"pairs": 100_000}, 2),
    (algebra.check_moufang, {"trials": 10_000}, 3),
], ids=["norm-multiplicativity", "moufang"])
def test_random_suites_hold_their_draws_plus_two_batches(suite, size, draws):
    """At its peak a random-element suite holds its draws of 8 float64
    coordinates per element, plus less than two batches of
    FORM_BATCH_BYTES: the product works in tiles, the suite in batches.  A
    first call of one element takes what the first call allocates once."""
    ((name, elements),) = size.items()
    suite(**{name: 1})
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        suite(**size)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - start < draws * elements * 8 * 8 + 2 * algebra.FORM_BATCH_BYTES


def test_moufang_with_identity_reduces_trivially():
    rng = np.random.default_rng(1)
    x, y = rng.standard_normal((2, 8))
    z = basis_element(0)
    np.testing.assert_allclose(mul(z, mul(x, mul(z, y))),
                               mul(mul(mul(z, x), z), y), atol=1e-13)


def test_imaginary_sum_square_is_minus_seven():
    report = algebra.check_imaginary_sum_square()
    assert report.passed
    e = imaginary_sum()
    expected = np.zeros(8)
    expected[0] = -7.0
    np.testing.assert_array_equal(mul(e, e), expected)


def test_nonassociativity_witness():
    witness = algebra.nonassociativity_witness()
    assert witness is not None
    a, b, c = (basis_element(label) for label in witness)
    assert not np.array_equal(mul(mul(a, b), c), mul(a, mul(b, c)))


def test_orthogonal_translates_suite():
    report = algebra.check_orthogonal_translates(trials=300, seed=5)
    assert report.passed


def test_norm_multiplicativity_suite():
    report = algebra.check_norm_multiplicativity(pairs=20000, seed=6)
    assert report.passed and report.max_residual < 1e-12


def test_tampered_table_detected():
    table = algebra.tampered_table()
    # the flipped cell breaks its literal match and antisymmetry with its mirror
    assert algebra.check_table_structure(table).failures == 3
    assert not algebra.check_sign_identities(table=table).passed
    assert not algebra.check_moufang(trials=200, seed=0, table=table).passed


def test_antisymmetry_structure():
    for a, b in itertools.product(range(1, 8), repeat=2):
        if a != b:
            assert sign(a, b) == -sign(b, a)
    for a in range(1, 8):
        assert sign(a, a) == -1


TABLES = [None] + [(a, b) for a in range(8) for b in range(8)]


def _table(cell):
    return SIGN_TABLE if cell is None else tampered_table(*cell)


def _report(report):
    return {k: v for k, v in report.to_dict().items() if k != "elapsed_ms"}


@pytest.mark.parametrize("cell", TABLES, ids=lambda c: "genuine" if c is None else f"{c[0]}-{c[1]}")
def test_exact_suites_match_loop_references(cell):
    """The stacked suites report what the per-tuple loops in sign-label
    arithmetic report, on the genuine table and on every one-cell tamper."""
    table = _table(cell)
    assert (_report(algebra.check_table_structure(table))
            == _report(reference_table_structure(table)))
    assert (_report(algebra.check_moufang(trials=40, seed=3, table=table))
            == _report(reference_moufang(40, 3, table)))
    assert _report(algebra.check_sign_identities(table)) == _report(reference_sign_identities(table))
    assert (_report(algebra.check_imaginary_sum_square(table))
            == _report(reference_imaginary_sum_square(table)))
    assert algebra.nonassociativity_witness(table) == reference_nonassociativity_witness(table)
    assert cyclic_sign_sum(table) == reference_cyclic_sign_sum(table)
