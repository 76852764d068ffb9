"""The octonion algebra on a subset-labeled basis.

Basis elements are indexed by subsets ``A`` of ``{1, 2, 3}``, encoded as 3-bit
masks (bit ``i-1`` set iff ``i in A``).  The empty set (label 0) is the
identity element.  Products of basis elements follow

    w_A * w_B = sign(A, B) * w_{A xor B}

where ``sign`` is the hard-coded 8x8 table below and the xor of bitmasks is
the symmetric difference of the subsets.  A general element is a vector of 8
real coordinates on this basis, carrying the Euclidean norm.

There is one product, (xy)_k = sum_a sign(a, a^k) x_a y_{a^k}, summed over
a = 0..7 from zero in the dtype of its inputs.  It runs coordinate first and
in tiles: the broadcast rows are taken a block of consecutive rows at a time,
as many as one batch of :data:`FORM_BATCH_BYTES` holds of a tile's working
arrays, and only that block of each factor is copied to shape (8, ...), so
memory beyond the result stays within one batch whatever the input size.
Per tile the 64 signed terms come from one gather and one multiply, and the
eight terms of each output coordinate are added in order.  On integer
one-hot basis stacks it is exact, so the basis-level suites check it in +-1
integer arithmetic; on real-coefficient elements it runs in floating point
and gives the dense contraction's bits.  The random-element suites draw
their elements whole and then evaluate and record them a batch of rows at a
time.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidArgument
from .reporting import IdentityReport

#: Canonical enumeration order of the 8 subset labels:
#: {}, {1}, {2}, {3}, {1,2}, {1,3}, {2,3}, {1,2,3}  (as bitmasks).
CANONICAL_LABELS = (0b000, 0b001, 0b010, 0b100, 0b011, 0b101, 0b110, 0b111)
#: Tolerance of the floating-point suites.
FLOAT_TOL = 1e-12
#: Bytes one stacked batch holds: 8n x 8n forms, as large products, or the
#: working arrays of octonion product tiles.  It is the package's one limit.
FORM_BATCH_BYTES = 2 ** 20

# Sign table with rows/columns in canonical label order.
_TABLE_ROWS = (
    (1, 1, 1, 1, 1, 1, 1, 1),
    (1, -1, 1, 1, -1, -1, 1, -1),
    (1, -1, -1, 1, 1, -1, -1, 1),
    (1, -1, -1, -1, 1, 1, 1, -1),
    (1, 1, -1, -1, -1, -1, 1, 1),
    (1, 1, 1, -1, 1, -1, -1, -1),
    (1, -1, 1, -1, -1, 1, -1, 1),
    (1, 1, -1, 1, -1, 1, -1, -1),
)


def _table_by_bitmask() -> np.ndarray:
    table = np.zeros((8, 8), dtype=np.int64)
    table[np.ix_(CANONICAL_LABELS, CANONICAL_LABELS)] = _TABLE_ROWS
    return table


#: 8x8 sign table indexed by bitmask labels; entries are -1 or +1.
SIGN_TABLE = _table_by_bitmask()
SIGN_TABLE.setflags(write=False)

#: sign(A, A) for each label; +1 only for the identity label.
CONJUGATION_SIGNS = np.diagonal(SIGN_TABLE).copy()
CONJUGATION_SIGNS.setflags(write=False)


def entries_per_batch(entry_bytes: int) -> int:
    """Entries of ``entry_bytes`` bytes one batch of :data:`FORM_BATCH_BYTES`
    holds, at least one."""
    return max(1, FORM_BATCH_BYTES // entry_bytes)


def _tile_rows(dtype) -> int:
    """Broadcast rows one product tile in ``dtype`` takes: a tile row holds x
    (8 coordinates), y and -y (16) and the 64 signed terms."""
    return entries_per_batch(88 * np.dtype(dtype).itemsize)


def _row_tiles(lead: tuple[int, ...], rows: int):
    """Index tuples of the tiles of an array with leading axes ``lead``:
    blocks of consecutive rows in C order, at most ``rows`` rows each (one
    row at least), that cover every row once.

    Trailing axes are taken whole while their rows fit in a tile, the axis
    before them is cut into slices of as many indices as fit, and each axis
    before that goes one index at a time, as a slice of one index so that a
    tile keeps every axis.  Every tile is a view.
    """
    inner, axis = 1, len(lead)
    while axis and inner * lead[axis - 1] <= rows:
        axis -= 1
        inner *= lead[axis]
    if not axis:
        yield ()
        return
    step = max(1, rows // inner)
    for outer in np.ndindex(*lead[:axis - 1]):
        for start in range(0, lead[axis - 1], step):
            yield (*(slice(i, i + 1) for i in outer), slice(start, start + step))


def _multiplier(table: np.ndarray):
    """The product of ``table``, a +-1 sign table, in coordinate-first tiles.

    The output rows (the broadcast leading axes) are taken in tiles of
    :func:`_row_tiles`, :func:`_tile_rows` rows each.  Per tile, only that
    block of each factor, broadcast rows included, is copied to shape
    (8, ...): x, and y stacked over -y.  One gather of that stack and one
    multiply by x give the 64 terms x_a (sign(a, a^k) y_{a^k}), and each
    output row ``out[k]`` starts at zero and adds them for a = 0..7 in
    order.  Negation is exact and ``o - t`` is ``o + (-t)``, so every
    partial sum has the bits of sum_a (sign x_a) y_{a^k} taken term by term:
    exact on integers, the dense contraction's bits on floats, signed zeros
    included.  Each tile is written into one C-ordered result of shape
    broadcast(x, y) and dtype result_type(x, y, table); no full-size copy of
    a factor, broadcast or not, is made.

    Raises
    ------
    InvalidArgument
        If the leading axes of ``x`` and ``y`` do not broadcast.
    """
    # picks[a, k] indexes the stack (y, -y) at sign(a, a^k) y_{a^k}
    picks = np.array([[a ^ k if table[a, a ^ k] > 0 else 8 + (a ^ k) for k in range(8)]
                      for a in range(8)])

    def product(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        shape = _broadcast_shape(x, y)
        dtype = np.result_type(x, y, table)
        xb, yb = (v if v.shape == shape else np.broadcast_to(v, shape) for v in (x, y))
        result = np.empty(shape, dtype)
        rows = _tile_rows(dtype)
        # flat buffers of the largest tile, reused by every tile
        room = min(rows, result.size // 8)
        xbuf, ybuf, tbuf = (np.empty(coords * room, dtype) for coords in (8, 16, 64))
        # the coordinate axis to the front and back
        front = (len(shape) - 1, *range(len(shape) - 1))
        back = (*range(1, len(shape)), 0)
        for tile in _row_tiles(shape[:-1], rows):
            out = result[tile]
            block = out.shape[:-1]
            size = out.size // 8
            xs = xbuf[:8 * size].reshape(8, 1, *block)
            ys = ybuf[:16 * size].reshape(16, *block)
            terms = tbuf[:64 * size].reshape(8, 8, *block)
            xs[:, 0] = xb[tile].transpose(front)
            ys[:8] = yb[tile].transpose(front)
            np.negative(ys[:8], out=ys[8:])
            np.take(ys, picks, axis=0, out=terms, mode="clip")
            np.multiply(xs, terms, out=terms)
            total = terms[0]
            total += 0  # the sum starts from zero: a -0.0 first term gives +0.0
            for term in terms[1:]:
                total += term
            out[...] = total.transpose(back)
        return result

    return product


def _basis_triples() -> tuple[np.ndarray, np.ndarray]:
    """The 512 label triples (a, b, c) in row-major order, shape (3, 512), and
    their integer one-hot basis elements, shape (3, 512, 8)."""
    labels = np.indices((8, 8, 8)).reshape(3, -1)
    return labels, np.eye(8, dtype=np.int64)[labels]


def subset_label(elements) -> int:
    """Bitmask label of a subset of {1, 2, 3}.

    Raises
    ------
    InvalidArgument
        If an element is not 1, 2 or 3.
    """
    label = 0
    for e in elements:
        if e not in (1, 2, 3):
            raise InvalidArgument(f"subset elements must be in {{1, 2, 3}}, got {e!r}")
        label |= 1 << (e - 1)
    return label


def label_elements(label: int) -> tuple[int, ...]:
    """Subset of {1, 2, 3} encoded by a bitmask label."""
    return tuple(i + 1 for i in range(3) if label >> i & 1)


def label_name(label: int) -> str:
    elems = label_elements(label)
    return "{" + ",".join(str(e) for e in elems) + "}"


def sign(a: int, b: int) -> int:
    """Table sign of the basis product ``w_a w_b``."""
    return int(SIGN_TABLE[a, b])


def basis_element(label: int) -> np.ndarray:
    """Coordinate vector of a basis element."""
    x = np.zeros(8)
    x[label] = 1.0
    return x


def imaginary_sum() -> np.ndarray:
    """Sum of the seven non-identity basis elements; its square is -7."""
    x = np.ones(8)
    x[0] = 0.0
    return x


def mul(x, y) -> np.ndarray:
    """Algebra product of coordinate vectors.

    Parameters
    ----------
    x, y : array_like, shape (..., 8)
        Coordinates on the subset-labeled basis.  Leading axes broadcast, so
        batches of products evaluate in one call.

    Returns
    -------
    ndarray, shape (..., 8)
        In the dtype of the inputs: integer coordinates multiply exactly.

    Raises
    ------
    InvalidArgument
        If the last axis of ``x`` or ``y`` is not 8, or their leading axes do
        not broadcast.
    """
    return _multiplier(SIGN_TABLE)(_coordinates(x), _coordinates(y))


def conj(x) -> np.ndarray:
    """Conjugate: negates every coordinate except the identity one.

    Raises
    ------
    InvalidArgument
        If the last axis of ``x`` is not 8.
    """
    return np.asarray(_coordinates(x), dtype=np.float64) * CONJUGATION_SIGNS


def _coordinates(x) -> np.ndarray:
    """``x`` as an array of coordinate vectors, shape (..., 8)."""
    x = np.asarray(x)
    if x.shape[-1:] != (8,):
        raise InvalidArgument(f"coordinates need a last axis of 8, got shape {x.shape}")
    return x


def _broadcast_shape(x: np.ndarray, y: np.ndarray) -> tuple[int, ...]:
    """The shape ``x`` and ``y`` broadcast to; InvalidArgument if none."""
    try:
        return np.broadcast_shapes(x.shape, y.shape)
    except ValueError:
        raise InvalidArgument(f"leading axes of shapes {x.shape} and {y.shape} "
                              "do not broadcast") from None


def norm(x) -> np.ndarray:
    """Euclidean norm of the coordinate vector(s).

    Raises
    ------
    InvalidArgument
        If the last axis of ``x`` is not 8.
    """
    return np.linalg.norm(np.asarray(_coordinates(x), dtype=np.float64), axis=-1)


def inner(x, y) -> np.ndarray:
    """Euclidean inner product of coordinate vectors; leading axes broadcast.

    Raises
    ------
    InvalidArgument
        If the last axis of ``x`` or ``y`` is not 8, or their leading axes do
        not broadcast.
    """
    x = np.asarray(_coordinates(x), dtype=np.float64)
    y = np.asarray(_coordinates(y), dtype=np.float64)
    _broadcast_shape(x, y)
    return np.sum(x * y, axis=-1)


def tampered_table(a: int = 0b001, b: int = 0b010) -> np.ndarray:
    """Copy of the sign table with one cell flipped.

    Negative-control hook: suites run against this table must report
    failures; a clean pass would mean the checks are vacuous.
    """
    table = SIGN_TABLE.copy()
    table[a, b] = -table[a, b]
    return table


def nonassociativity_witness(table: np.ndarray | None = None) -> tuple[int, int, int] | None:
    """First basis triple in row-major order with (w_a w_b) w_c != w_a (w_b w_c),
    or None."""
    m = _multiplier(SIGN_TABLE if table is None else table)
    labels, (x, y, z) = _basis_triples()
    bad = np.flatnonzero(np.any(m(m(x, y), z) != m(x, m(y, z)), axis=-1))
    return tuple(int(v) for v in labels[:, bad[0]]) if bad.size else None


def cycle_signs(table: np.ndarray | None = None) -> np.ndarray:
    """The 4-cycle sign product over all label quadruples, as integers:

        theta[a, b, c, d] = sign(b^c, c) sign(c^d, d) sign(d^a, a) sign(a^b, b).
    """
    t = SIGN_TABLE if table is None else table
    a, b, c, d = np.indices((8, 8, 8, 8))
    return t[b ^ c, c] * t[c ^ d, d] * t[d ^ a, a] * t[a ^ b, b]


def cyclic_sign_sum(table: np.ndarray | None = None) -> tuple[int, int]:
    """Sum of the 4-cycle sign product over distinct-neighbor label tuples.

    Sums :func:`cycle_signs` over all (a, b, c, d) with a != b, c != d,
    b != c, a != d.  Returns (sum, tuple_count); the sum equals
    392 = 2^3 * 7^2 for the genuine table.
    """
    a, b, c, d = np.indices((8, 8, 8, 8))
    proper = (a != b) & (c != d) & (b != c) & (a != d)
    return int(cycle_signs(table)[proper].sum()), int(np.count_nonzero(proper))


def check_table_structure(table: np.ndarray | None = None) -> IdentityReport:
    """Structural rules of the sign table, plus a cell-by-cell literal match.

    Rules: identity row and column are +1; the diagonal is -1 off the
    identity; off-diagonal, off-identity cells are antisymmetric.
    """
    t = SIGN_TABLE if table is None else table
    imag = t[1:, 1:]
    with IdentityReport("table-structure").timed() as report:
        report.check(t[0] == 1)
        report.check(np.append(t[:, 0], t[0, 0]) == 1)
        report.check(np.diagonal(imag) == -1)
        report.check((imag == -imag.T)[~np.eye(7, dtype=bool)])
        # literal match against the canonical-order rows
        report.check(t[np.ix_(CANONICAL_LABELS, CANONICAL_LABELS)] == _TABLE_ROWS)
    return report


def check_sign_identities(table: np.ndarray | None = None) -> IdentityReport:
    """Exhaustive composition identities of the sign table.

    Over all label tuples (exact integer arithmetic):

    1. sign(a^b, b) == sign(a, b) sign(b, b), all 64 pairs;
    2. sign(a^b, a) sign(a^b, b) == sign(a^b, a^b), all 64 pairs;
    3. sign(a^c, a) sign(b^c, b) == -sign(a^c, b) sign(b^c, a) for the 448
       triples with a != b;
    4. :func:`cycle_signs` equals sign(b^d, b^d) on the 512 quadruples with
       a^b^c^d == 0;
    5. the 4-cycle sign sum over 2408 qualifying tuples equals 392.
    """
    t = SIGN_TABLE if table is None else table
    with IdentityReport("sign-identities").timed() as report:
        a, b = np.indices((8, 8))
        report.check(t[a ^ b, b] == t[a, b] * t[b, b])
        report.check(t[a ^ b, a] * t[a ^ b, b] == t[a ^ b, a ^ b])
        a, b, c = np.indices((8, 8, 8))
        report.check((t[a ^ c, a] * t[b ^ c, b] == -t[a ^ c, b] * t[b ^ c, a])[a != b])
        a, b, c, d = np.indices((8, 8, 8, 8))
        report.check((cycle_signs(t) == t[b ^ d, b ^ d])[a ^ b ^ c ^ d == 0])
        total, _ = cyclic_sign_sum(t)
        report.check(total == 392)  # 2^3 * 7^2
    return report


def _law_sides(m, x, y, z) -> list[tuple[np.ndarray, np.ndarray]]:
    """Both sides of the four Moufang laws in (x, y, z), then of the two
    alternative laws in (x, y), under the product ``m``.  Each sub-product
    that sides share is formed once: 24 products in all."""
    zx, zy, xz, xy, yz, xx, yx = (m(z, x), m(z, y), m(x, z), m(x, y), m(y, z), m(x, x),
                                  m(y, x))
    zx_yz = m(zx, yz)
    return [
        (m(z, m(x, zy)), m(m(zx, z), y)),
        (m(m(xz, y), z), m(x, m(zy, z))),
        (zx_yz, m(m(z, xy), z)),
        (zx_yz, m(z, m(xy, z))),
        (m(xx, y), m(x, xy)),
        (m(yx, x), m(y, xx)),
    ]


def check_moufang(trials: int = 10_000, seed: int = 0,
                  table: np.ndarray | None = None) -> IdentityReport:
    """Moufang and alternativity identities, through the one product.

    Exact on the integer basis elements: the four Moufang laws on every
    basis triple (512 triples x 4) and the two alternative laws on every
    basis pair (64 pairs x 2).  Then all six on ``trials`` standard-normal
    random elements in floating point with absolute tolerance
    :data:`FLOAT_TOL`, drawn whole and evaluated in batches of as many
    trials as one batch of :data:`FORM_BATCH_BYTES` holds of the 24 law
    products.
    """
    m = _multiplier(SIGN_TABLE if table is None else table)
    with IdentityReport("moufang-alternativity", seed=seed).timed() as report:
        _, basis = _basis_triples()
        for law, (lhs, rhs) in enumerate(_law_sides(m, *basis)):
            holds = np.all(lhs == rhs, axis=-1)
            # the alternative laws ignore z: the triples (a, b, 0) are the 64 pairs
            report.check(holds if law < 4 else holds[::8])

        rng = np.random.default_rng(seed)
        x = rng.standard_normal((trials, 8))
        y = rng.standard_normal((trials, 8))
        z = rng.standard_normal((trials, 8))
        step = entries_per_batch(24 * x[0].nbytes)
        for lo in range(0, trials, step):
            rows = slice(lo, lo + step)
            for lhs, rhs in _law_sides(m, x[rows], y[rows], z[rows]):
                report.record(np.max(np.abs(lhs - rhs), axis=-1), FLOAT_TOL)
    return report


def check_norm_multiplicativity(pairs: int = 100_000, seed: int = 1,
                                table: np.ndarray | None = None) -> IdentityReport:
    """|xy| == |x||y| on random pairs, relative tolerance :data:`FLOAT_TOL`.

    The pairs are drawn whole, then evaluated and recorded one product tile
    (:func:`_tile_rows` pairs) at a time."""
    with IdentityReport("norm-multiplicativity", seed=seed).timed() as report:
        fmul = _multiplier(SIGN_TABLE if table is None else table)
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((pairs, 8))
        y = rng.standard_normal((pairs, 8))
        step = _tile_rows(x.dtype)
        for lo in range(0, pairs, step):
            xb, yb = x[lo:lo + step], y[lo:lo + step]
            prod = np.linalg.norm(xb, axis=1) * np.linalg.norm(yb, axis=1)
            report.record(np.abs(np.linalg.norm(fmul(xb, yb), axis=1) - prod) / prod,
                          FLOAT_TOL)
    return report


def check_orthogonal_translates(trials: int = 1_000, seed: int = 2,
                                table: np.ndarray | None = None) -> IdentityReport:
    """<x w_a, x w_b> == 0 for a != b, on random unit elements x."""
    with IdentityReport("orthogonal-translates", seed=seed).timed() as report:
        fmul = _multiplier(SIGN_TABLE if table is None else table)
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((trials, 8))
        x /= np.linalg.norm(x, axis=1, keepdims=True)
        # xt[n, c] = x_n * w_c over all 8 right-translates at once
        xt = fmul(x[:, None, :], np.eye(8))  # (trials, 8, 8)
        gram = np.einsum("nck,ndk->ncd", xt, xt)
        iu = np.triu_indices(8, 1)
        report.record(np.abs(gram[:, iu[0], iu[1]]), FLOAT_TOL)
    return report


def check_imaginary_sum_square(table: np.ndarray | None = None) -> IdentityReport:
    """Exact check that the sum of the seven imaginary units squares to -7."""
    m = _multiplier(SIGN_TABLE if table is None else table)
    with IdentityReport("imaginary-sum-square").timed() as report:
        e = np.ones(8, dtype=np.int64)  # integer coordinates: exact arithmetic
        e[0] = 0
        expected = np.zeros(8, dtype=np.int64)
        expected[0] = -7
        report.check(np.array_equal(m(e, e), expected))
    return report
