from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stexo.gf2 as gf2
from stexo.errors import ModelMismatchError
from stexo.gf2 import (
    F2Matrix,
    Subspace,
    pack_rows,
    rank,
    rank_and_echelon,
    unpack_rows,
    xor_combine,
)

import reference
from reference import (
    _leftmost_column,
    column_bits,
    kernel_basis,
    mul_vec,
    solve_affine,
    transform_built,
    transform_rows_canonical,
)

RNG = np.random.default_rng(20240817)


def random_dense(rows, cols, rng=RNG):
    return rng.integers(0, 2, size=(rows, cols), dtype=np.uint8)


def test_pack_unpack_roundtrip():
    for rows, cols in [(0, 0), (1, 1), (3, 64), (5, 65), (7, 200), (2, 63)]:
        dense = random_dense(rows, cols)
        assert np.array_equal(unpack_rows(pack_rows(dense), cols), dense)


def test_identity_is_dense_eye():
    for n in (0, 1, 63, 64, 70):
        m = F2Matrix.identity(n)
        assert (m.rows, m.cols) == (n, n)
        assert np.array_equal(m.to_dense(), np.eye(n, dtype=np.uint8))


def test_matmul_against_numpy():
    for _ in range(20):
        a = random_dense(13, 37)
        b = random_dense(37, 71)
        got = F2Matrix.from_dense(a).matmul(F2Matrix.from_dense(b)).to_dense()
        want = (a.astype(np.int64) @ b.astype(np.int64)) % 2
        assert np.array_equal(got, want.astype(np.uint8))


def test_matmul_shape_mismatch():
    with pytest.raises(ModelMismatchError):
        F2Matrix(2, 3).matmul(F2Matrix(4, 2))


def test_mul_vec_against_numpy():
    for _ in range(20):
        a = random_dense(11, 130)
        v = random_dense(1, 130)[0]
        got = mul_vec(F2Matrix.from_dense(a), v)
        want = (a.astype(np.int64) @ v.astype(np.int64)) % 2
        assert np.array_equal(got, want.astype(np.uint8))


def _reduced_rows(span, m):
    """T * m with the rows of span.pivot_rows first, in step order, and the
    rest after them, in increasing order: the echelon form of m when T is
    the transform of span's reduction."""
    words = span.transform.matmul(m).words
    dependent = np.setdiff1d(np.arange(m.rows), span.pivot_rows)
    order = np.concatenate([np.array(span.pivot_rows, dtype=np.intp), dependent])
    return F2Matrix(m.rows, m.cols, words[order])


def _is_echelon(span, words) -> bool:
    """Whether span's basis is the first span.dim rows of an echelon word
    array, the pivot rows in step order, and its other rows are zero."""
    return np.array_equal(span.matrix.words, words[: span.dim]) and not words[span.dim :].any()


def test_rref_transform_is_consistent():
    for _ in range(20):
        a = random_dense(17, 23)
        m = F2Matrix.from_dense(a)
        res = rank_and_echelon(m)
        # transform * original holds each echelon row at its pivot row and
        # zero at the others
        assert _is_echelon(res, _reduced_rows(Subspace.from_vectors(m.cols, m), m).words)
        # pivot columns are standard basis vectors in the echelon form
        dense = res.matrix.to_dense()
        for i, p in enumerate(res.pivots):
            col = dense[:, p]
            assert col[i] == 1 and col.sum() == 1
        assert dense.shape == (len(res.pivots), m.cols)


def _column_by_column_echelon(m):
    """The echelon loop that visits every column in turn, kept as a
    reference.  No row moves: the pivot of column c is the lowest-numbered
    row that is not yet a pivot row and has bit c, and T keeps one row per
    row of m.  Returns (echelon words: the pivot rows in step order, then
    the others; transform words; pivots)."""
    R = m.words.copy()
    T = F2Matrix.identity(m.rows).words
    free = np.ones(m.rows, dtype=bool)
    pivots, order = [], []
    for c in range(m.cols):
        col = unpack_rows(R, m.cols)[:, c].astype(bool)
        nz = np.nonzero(col & free)[0]
        if nz.size == 0:
            continue
        p = int(nz[0])
        col[p] = False
        R[col] ^= R[p]
        T[col] ^= T[p]
        free[p] = False
        pivots.append(c)
        order.append(p)
    return np.concatenate([R[order], R[free]]), T, tuple(pivots)


@given(
    st.integers(0, 8),
    st.integers(0, 400),
    st.floats(0.0, 0.5),
    st.floats(0.0, 1.0),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=120, deadline=None)
def test_echelon_matches_column_by_column_loop(rows, cols, density, empty, seed):
    # wide few-row matrices with zero rows and long runs of empty columns
    rng = np.random.default_rng(seed)
    a = (rng.random((rows, cols)) < density).astype(np.uint8)
    a[:, rng.random(cols) < empty] = 0
    a[rng.random(rows) < 0.2] = 0
    if cols > 10:
        start = int(rng.integers(0, cols - 10))
        a[:, start : start + int(rng.integers(10, cols - start + 1))] = 0
    m = F2Matrix.from_dense(a)
    echelon, transform, pivots = _column_by_column_echelon(m)
    res = rank_and_echelon(m)
    assert res.pivots == pivots
    assert _is_echelon(res, echelon)
    assert np.array_equal(Subspace.from_vectors(m.cols, m).transform.words, transform)
    assert rank_and_echelon(m) == res


@pytest.mark.parametrize(
    "rows, cols, rank_", [(70, 200, 30), (200, 70, 40), (130, 130, 130), (40, 90, 0)]
)
def test_echelon_log_owns_only_its_rank_rows(rows, cols, rank_):
    # the log holds rank rows in a buffer of its own, so a cached Subspace
    # keeps no slots for pivot steps that never happened
    rng = np.random.default_rng(rows + cols)
    left = np.triu(rng.integers(0, 2, (rows, rows)), 1) + np.eye(rows, dtype=np.int64)
    right = np.triu(rng.integers(0, 2, (cols, cols)), 1) + np.eye(cols, dtype=np.int64)
    a = (left[:, :rank_] @ right[:rank_]) % 2
    res = rank_and_echelon(F2Matrix.from_dense(a.astype(np.uint8)))
    n, log = res._log
    assert (n, res.dim) == (rows, rank_)
    assert log.shape == (rank_, (rows + 63) // 64)
    assert log.nbytes == rank_ * ((rows + 63) // 64) * 8
    assert log.base is None and log.flags.owndata


def _column_skipping_echelon(m, want_transform):
    """The per-column echelon loop that rank_and_echelon replaced, kept as a
    reference: it reads the whole bit column of c at every step, jumps over
    an empty run with _leftmost_column from column c, and XORs whole rows.
    No row moves, and the pivot of column c is the lowest-numbered row that
    is not yet a pivot row and has bit c.  Returns (echelon words: the pivot
    rows in step order, then the others; transform words or None; pivots)."""
    R = m.words.copy()
    T = F2Matrix.identity(m.rows).words if want_transform else None
    free = np.ones(m.rows, dtype=bool)
    pivots, order = [], []
    c = 0
    while c < m.cols and len(order) < m.rows:
        col = column_bits(R, c).astype(bool)
        nz = np.nonzero(col & free)[0]
        if nz.size == 0:
            c = _leftmost_column(R, c, free)
            continue
        p = int(nz[0])
        col[p] = False
        if col.any():
            R[col] ^= R[p]
            if T is not None:
                T[col] ^= T[p]
        free[p] = False
        pivots.append(c)
        order.append(p)
        c += 1
    return np.concatenate([R[order], R[free]]), T, tuple(pivots)


_AWKWARD = (
    st.integers(0, 90),
    st.integers(0, 330),
    st.floats(0.0, 0.6),
    st.lists(st.tuples(st.integers(0, 330), st.integers(1, 200)), max_size=4),
    st.integers(0, 2**32 - 1),
)


def _awkward(rows, cols, density, runs, seed) -> F2Matrix:
    """A random matrix whose empty runs at random offsets cross word
    boundaries; widths are rarely a multiple of 64; some rows and columns
    are zero, and some rows repeat earlier ones."""
    rng = np.random.default_rng(seed)
    a = (rng.random((rows, cols)) < density).astype(np.uint8)
    for start, length in runs:
        a[:, start : start + length] = 0
    a[rng.random(rows) < 0.15] = 0
    a[:, rng.random(cols) < 0.15] = 0
    if rows > 1 and rng.random() < 0.3:
        a[rows // 2 :] = a[: rows - rows // 2]  # dependent rows
    return F2Matrix.from_dense(a)


@given(*_AWKWARD)
@settings(max_examples=150, deadline=None)
def test_echelon_matches_column_skipping_loop(rows, cols, density, runs, seed):
    m = _awkward(rows, cols, density, runs, seed)
    for want_transform in (True, False):
        echelon, transform, pivots = _column_skipping_echelon(m, want_transform)
        res = rank_and_echelon(m)
        span = Subspace.from_vectors(m.cols, m)
        assert res.pivots == pivots
        assert res.dim == len(pivots)
        assert _is_echelon(res, echelon)
        if want_transform:
            assert np.array_equal(span.transform.words, transform)
        else:
            assert not transform_built(span)


def _word_walk_cases():
    """Matrices whose empty runs the echelon crosses one word at a time."""
    rng = np.random.default_rng(33)
    for cols in (63, 64, 65, 128, 129, 193):
        yield f"width-{cols}", rng.integers(0, 2, (40, cols))
        sparse = (rng.random((40, cols)) < 0.05).astype(np.int64)
        sparse[:, cols // 3 : cols // 3 + 40] = 0
        yield f"sparse-width-{cols}", sparse
    # empty runs over whole words 2-3, over 5-8 and from mid-word 9 to mid-word 13
    a = rng.integers(0, 2, (50, 900))
    a[:, 100:256] = 0
    a[:, 320:576] = 0
    a[:, 600:850] = 0
    yield "runs-of-whole-words", a
    # so many rows that the next nonzero word is searched in windows of
    # 1, 2, 4, ... words: empty runs of 1, 3, 6, 13 and 39 words
    a = np.zeros((1100, 64 * 70), dtype=np.int64)
    for word in (0, 2, 6, 7, 14, 28, 29, 69):
        a[rng.integers(0, 1100, 30), 64 * word + rng.integers(0, 64, 30)] = 1
    yield "tall-runs-of-whole-words", a
    # one pivot row per word: its bit opens the word, the rest of the word
    # and the words after it are empty in every free row
    a = np.zeros((6, 700), dtype=np.int64)
    a[np.arange(6), [0, 64, 300, 301, 640, 699]] = 1
    a[5, 3] = 1
    yield "one-pivot-per-run", a
    for cols in (260, 256):
        # free rows whose only bits lie in the last word, some of them
        # dependent, beside rows with bits in the early words too
        a = np.zeros((30, cols), dtype=np.int64)
        a[:10, :20] = rng.integers(0, 2, (10, 20))
        a[10:, 192:] = rng.integers(0, 2, (20, cols - 192))
        a[:5, cols - 3 :] = 1
        yield f"last-word-only-{cols}", a
    # free rows zero after word 1: only the first rows run on to word 6
    a = np.zeros((40, 400), dtype=np.int64)
    a[:, :100] = rng.integers(0, 2, (40, 100))
    a[:8, 100:] = rng.integers(0, 2, (8, 300))
    yield "free-rows-zero-after-word-1", a
    # every row in the span of the first three, so all free rows end zero
    basis = rng.integers(0, 2, (3, 200))
    yield "free-rows-all-zero", (rng.integers(0, 2, (12, 3)) @ basis) % 2
    yield "all-zero", np.zeros((7, 300), dtype=np.int64)
    # the log is packed 64 steps at a time: ranks 64, 128 and 129
    for rank_ in (64, 128, 129):
        left, right = rng.integers(0, 2, (150, rank_)), rng.integers(0, 2, (rank_, 200))
        yield f"rank-{rank_}", (left @ right) % 2
    for shape in ((0, 0), (0, 1), (0, 130), (1, 0), (9, 0)):
        yield f"empty-{shape[0]}x{shape[1]}", np.zeros(shape, dtype=np.int64)


def test_next_column_matches_leftmost_column():
    # a few rows read the tail at once, many rows in doubling windows
    rng = np.random.default_rng(34)
    for rows, nwords in ((3, 76), (50, 20), (1100, 40)):
        words = np.zeros((rows, nwords), dtype=np.uint64)
        for word in rng.choice(nwords, nwords // 5, replace=False):
            hit = rng.random(rows) < 0.02
            words[hit, word] = np.uint64(1) << rng.integers(0, 64, hit.sum(), dtype=np.uint64)
        for w in range(nwords + 1):
            picked = rng.random(rows) < 0.7
            tail = words.copy()
            tail[:, :w] = 0
            assert gf2._next_column(tail, w, picked) == _leftmost_column(tail, 64 * w, picked)


@pytest.mark.parametrize("name, dense", list(_word_walk_cases()))
def test_word_walk_matches_column_skipping_loop(name, dense):
    m = F2Matrix.from_dense(dense.astype(np.uint8))
    echelon, transform, pivots = _column_skipping_echelon(m, True)
    res = rank_and_echelon(m)
    assert res.pivots == pivots and res.dim == len(pivots)
    assert _is_echelon(res, echelon)
    span = Subspace.from_vectors(m.cols, m)
    assert np.array_equal(span.transform.words, transform)


@given(*_AWKWARD)
@settings(max_examples=120, deadline=None)
def test_transform_rebuilt_from_the_log_matches_both_loops(rows, cols, density, runs, seed):
    # the log has one row per pivot, no more words than T; the transform is
    # built on its first read, bit for bit the T both reference loops carry
    # (also when the log is unpacked three rows at a time), and the log is
    # then dropped
    m = _awkward(rows, cols, density, runs, seed)
    res = rank_and_echelon(m)
    span = Subspace.from_vectors(m.cols, m)
    n, log = span._log
    assert n == m.rows and log.shape[0] == res.dim and log.size <= m.rows * log.shape[1]
    with mock.patch.object(gf2, "_UNPACK_BITS", 3 * max(n, 1)):
        blocked = gf2._replay(n, log, span.pivot_rows)
    assert not transform_built(span)
    transform = span.transform
    assert transform == blocked
    assert transform_built(span) and span._log is None and span.transform is transform
    assert (transform.rows, transform.cols) == (m.rows, m.rows)
    assert np.array_equal(transform.words, _column_by_column_echelon(m)[1])
    assert np.array_equal(transform.words, _column_skipping_echelon(m, True)[1])
    assert _is_echelon(res, _reduced_rows(span, m).words)


@given(*_AWKWARD)
@settings(max_examples=120, deadline=None)
def test_transform_rows_are_the_relations_and_the_combiner(rows, cols, density, runs, seed):
    # with repeated and zero rows: the pivot vectors are those outside the
    # span of the earlier ones, and T's rows need no second elimination
    m = _awkward(rows, cols, density, runs, seed)
    span = Subspace.from_vectors(m.cols, m)
    dense = m.to_dense()
    ranks = [rank(F2Matrix.from_dense(dense[:j])) for j in range(m.rows + 1)]
    assert sorted(span.pivot_rows) == [j for j in range(m.rows) if ranks[j + 1] > ranks[j]]
    assert transform_rows_canonical(span)


@given(*_AWKWARD)
@settings(max_examples=60, deadline=None)
def test_rank_and_echelon_is_the_span(rows, cols, density, runs, seed):
    # one result per elimination: the span of the rows, with the pivots,
    # pivot rows and log that Subspace.from_vectors holds; rank reads its dim
    m = _awkward(rows, cols, density, runs, seed)
    res, span = rank_and_echelon(m), Subspace.from_vectors(m.cols, m)
    assert res == span and res.pivots == span.pivots and res.pivot_rows == span.pivot_rows
    assert res.transform == span.transform
    assert rank(m) == res.dim


def test_relations_run_no_echelon():
    a = random_dense(40, 30)
    a[20:] = a[:20]
    span = Subspace.from_vectors(30, a)
    calls = []
    echelon = gf2.rank_and_echelon
    with mock.patch.object(gf2, "rank_and_echelon", lambda m: calls.append(m) or echelon(m)):
        relations = span.relations
        span.combination(a[:3])
    assert calls == [] and relations.rows == 40 - span.dim >= 20


def test_rank_against_exhaustive_small():
    # over GF(2) the rank equals log2 of the row span size
    for _ in range(30):
        a = random_dense(4, 5)
        span = {tuple(np.zeros(5, dtype=np.uint8))}
        for row in a:
            span |= {tuple((np.array(s, dtype=np.uint8) ^ row)) for s in span}
        r = rank(F2Matrix.from_dense(a))
        assert 2**r == len(span)


def test_kernel_is_kernel():
    for _ in range(20):
        a = random_dense(9, 31)
        m = F2Matrix.from_dense(a)
        ker = kernel_basis(m)
        assert ker.rows == 31 - rank(m)
        # the per-free-column loop over the echelon form is the reference
        res = rank_and_echelon(m)
        echelon = res.matrix.to_dense()
        free = [c for c in range(31) if c not in res.pivots]
        want = np.zeros((len(free), 31), dtype=np.uint8)
        for k, f in enumerate(free):
            want[k, f] = 1
            for i, p in enumerate(res.pivots):
                want[k, p] = echelon[i, f]
        assert np.array_equal(ker.to_dense(), want)
        for row in ker.to_dense():
            assert not mul_vec(m, row).any()
        # kernel rows are independent
        assert rank(ker) == ker.rows


def test_solve_affine_consistent_and_not():
    a = F2Matrix.from_dense(
        np.array([[1, 0, 1], [0, 1, 1], [1, 1, 0]], dtype=np.uint8)
    )
    sol = solve_affine(a, np.array([1, 0, 1], dtype=np.uint8))
    assert sol is not None
    assert np.array_equal(mul_vec(a, sol), [1, 0, 1])
    assert Subspace.from_vectors(3, kernel_basis(a)).dim == 1  # rows sum to zero
    bad = solve_affine(a, np.array([1, 0, 0], dtype=np.uint8))
    assert bad is None


@given(
    st.integers(2, 40),
    st.integers(2, 40),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_solve_affine_roundtrip(rows, cols, seed):
    rng = np.random.default_rng(seed)
    a = rng.integers(0, 2, size=(rows, cols), dtype=np.uint8)
    x = rng.integers(0, 2, size=cols, dtype=np.uint8)
    m = F2Matrix.from_dense(a)
    rhs = mul_vec(m, x)
    sol = solve_affine(m, rhs)
    assert sol is not None
    assert np.array_equal(mul_vec(m, sol), rhs)
    # reference: each pivot variable is its row's last entry in the echelon
    # form of [m | rhs], every free variable is 0
    res = rank_and_echelon(F2Matrix.from_dense(np.column_stack([a, rhs])))
    echelon = res.matrix.to_dense()
    want = np.zeros(cols, dtype=np.uint8)
    for i, p in enumerate(res.pivots):
        want[p] = echelon[i, cols]
    assert np.array_equal(sol, want)
    # x differs from the particular solution by a kernel element
    assert Subspace.from_vectors(cols, kernel_basis(m)).contains(sol ^ x)


@given(
    st.integers(0, 40),
    st.integers(0, 140),
    st.floats(0.0, 1.0),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=120, deadline=None)
def test_echelon_solve_matches_solve_affine(rows, cols, density, consistent, seed):
    # the span of m's columns answers solve_affine and kernel_basis on m: its
    # canonical combination and its relations.  Low-rank and empty shapes
    # included, so dependent columns too; a consistent rhs is m x for a random x
    rng = np.random.default_rng(seed)
    a = (rng.random((rows, cols)) < density).astype(np.uint8)
    m = F2Matrix.from_dense(a) if rows else F2Matrix(0, cols)
    if consistent:
        rhs = mul_vec(m, rng.integers(0, 2, size=cols, dtype=np.uint8))
    else:
        rhs = rng.integers(0, 2, size=rows, dtype=np.uint8)
    span = Subspace.from_vectors(rows, m.to_dense().T)
    want = solve_affine(m, rhs)
    assert span.contains(rhs) == (want is not None)
    if want is not None:
        assert np.array_equal(span.combination(rhs), want)
    assert span.relations == kernel_basis(m)
    with pytest.raises(ModelMismatchError):
        span.combination(np.zeros(rows + 1, dtype=np.uint8))


def test_subspace_membership():
    vs = [np.array(v, dtype=np.uint8) for v in ([1, 1, 0, 0], [0, 0, 1, 1])]
    s = Subspace.from_vectors(4, vs)
    assert s.dim == 2
    assert s.contains(np.array([1, 1, 1, 1], dtype=np.uint8))
    assert not s.contains(np.array([1, 0, 0, 0], dtype=np.uint8))


def test_subspace_coordinates_modulo_base():
    # spanned by base vectors then extension vectors independent mod the base:
    # the extension coefficients of a member are unique
    n = 8
    rng = np.random.default_rng(99)
    base = [rng.integers(0, 2, size=n, dtype=np.uint8) for _ in range(3)]
    exts = []
    while len(exts) < 3:
        v = rng.integers(0, 2, size=n, dtype=np.uint8)
        if not Subspace.from_vectors(n, base + exts).contains(v):
            exts.append(v)
    span = Subspace.from_vectors(n, base + exts)
    batch, want = [], []
    for _ in range(50):
        c = rng.integers(0, 2, size=3, dtype=np.uint8)
        v = np.zeros(n, dtype=np.uint8)
        for ci, e in zip(c, exts):
            if ci:
                v ^= e
        for bi, b in zip(rng.integers(0, 2, size=3), base):
            if bi:
                v ^= b
        assert np.array_equal(span.combination(v)[3:], c)
        batch.append(v)
        want.append(c)
    assert np.array_equal(span.combination(np.array(batch))[:, 3:], want)


def test_subspace_combination_rejects_outside_span():
    span = Subspace.from_vectors(
        4, [np.array([1, 0, 0, 0], dtype=np.uint8), np.array([0, 1, 0, 0], dtype=np.uint8)]
    )
    outside = np.array([0, 0, 1, 0], dtype=np.uint8)
    with pytest.raises(ModelMismatchError):
        span.combination(outside)
    with pytest.raises(ModelMismatchError):
        span.combination(np.array([[1, 1, 0, 0], outside], dtype=np.uint8))


def test_subspace_base_after_extension():
    # a base vector listed after the extension must not corrupt its coordinate
    e = np.array([1, 1, 0, 0], dtype=np.uint8)
    b = np.array([1, 0, 0, 0], dtype=np.uint8)
    span = Subspace.from_vectors(4, [e, b])
    assert np.array_equal(span.combination(e ^ b)[:1], [1])
    assert np.array_equal(span.combination(b)[:1], [0])


@given(
    st.integers(0, 6),
    st.integers(0, 5),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=80, deadline=None)
def test_subspace_batch_against_enumerated_span(n, k, seed):
    rng = np.random.default_rng(seed)
    vectors = rng.integers(0, 2, size=(k, n), dtype=np.uint8)
    span = Subspace.from_vectors(n, vectors)
    members = set()
    for combo in range(1 << k):
        picks = np.array([(combo >> i) & 1 for i in range(k)], dtype=np.int64)
        members.add(tuple((picks @ vectors) % 2))
    everything = np.array(
        [[(x >> j) & 1 for j in range(n)] for x in range(1 << n)], dtype=np.uint8
    ).reshape(1 << n, n)
    inside = span.contains(everything)
    assert inside.tolist() == [tuple(v) in members for v in everything]
    assert span.dim == rank(F2Matrix.from_dense(vectors.reshape(k, n)))
    ins = everything[inside]
    coeffs = span.combination(ins)
    assert coeffs.shape == (len(ins), k)
    assert np.array_equal((coeffs.astype(np.int64) @ vectors) % 2, ins)
    for v in everything[~inside]:
        assert not span.contains(v)
        with pytest.raises(ModelMismatchError):
            span.combination(v)
    # the relations: one per vector in the span of the ones before it, each
    # summing to zero and ending at its own vector, where no combination picks
    relations = span.relations.to_dense()
    assert relations.shape == (k - span.dim, k)
    assert not ((relations.astype(np.int64) @ vectors) % 2).any()
    prefix_ranks = [rank(F2Matrix.from_dense(vectors[:j])) for j in range(k + 1)]
    dependent = [k - 1 - int(np.argmax(row[::-1])) for row in relations]
    assert dependent == [j for j in range(k) if prefix_ranks[j + 1] == prefix_ranks[j]]
    assert not coeffs[:, dependent].any()


def test_subspace_from_packed_rows_equals_from_dense():
    for rows, cols in [(0, 0), (0, 5), (3, 0), (7, 64), (9, 130), (70, 65)]:
        dense = random_dense(rows, cols)
        packed = F2Matrix.from_dense(dense)
        a = Subspace.from_vectors(cols, packed)
        b = Subspace.from_vectors(cols, dense)
        assert a == b and a.pivots == b.pivots and a.transform == b.transform
    with pytest.raises(ModelMismatchError):
        Subspace.from_vectors(6, F2Matrix(2, 5))


@st.composite
def _spans_and_batches(draw):
    """A span of k vectors in GF(2)^n, some of them sums of earlier ones or
    zero, and a batch of up to 6 vectors with entries 0..3: sums of spanning
    vectors and random vectors, each plus twice a random vector."""
    n = draw(st.sampled_from([0, 1, 5, 63, 64, 65, 130]))
    k = draw(st.integers(0, 7))
    b = draw(st.integers(0, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    vectors = rng.integers(0, 2, size=(k, n), dtype=np.uint8)
    for j in range(1, k):
        if rng.random() < 0.3:
            vectors[j] = (rng.integers(0, 2, size=j) @ vectors[:j]) % 2
    members = (rng.integers(0, 2, size=(b, k)) @ vectors) % 2
    batch = np.where(rng.random((b, 1)) < 0.5, members, rng.integers(0, 2, size=(b, n)))
    batch = (batch + 2 * rng.integers(0, 2, size=(b, n))).astype(np.uint8)
    return n, vectors, batch


@given(_spans_and_batches())
@settings(max_examples=150, deadline=None)
def test_subspace_batch_equals_rows_and_dense_references(case):
    n, vectors, batch = case
    span = Subspace.from_vectors(n, vectors)
    inside = span.contains(batch)
    residual = span.residual(batch)
    assert inside.shape == (len(batch),) and residual.shape == batch.shape
    for v, ins, res in zip(batch, inside, residual):
        # one row alone, read mod 2 (entries 2 and 3 are 0 and 1)
        assert span.contains(v) is bool(ins)
        assert np.array_equal(span.residual(v), res)
        assert np.array_equal(span.residual(v & 1), res)
        assert np.array_equal(res, reference.span_residual(vectors, v))
        assert ins == (reference.span_combination(vectors, v) is not None)
    members = batch[inside]
    coeffs = span.combination(members)
    assert coeffs.shape == (len(members), len(vectors))
    for v, c in zip(members, coeffs):
        assert np.array_equal(span.combination(v), c)
        assert np.array_equal(c, reference.span_combination(vectors, v))
    if not inside.all():
        with pytest.raises(ModelMismatchError):
            span.combination(batch)


@given(_spans_and_batches())
@settings(max_examples=40, deadline=None)
def test_subspace_rejects_wrong_length(case):
    n, vectors, _ = case
    span = Subspace.from_vectors(n, vectors)
    for bad in (np.zeros(n + 1, np.uint8), np.zeros((2, n + 1), np.uint8)):
        for call in (span.contains, span.residual, span.combination):
            with pytest.raises(ModelMismatchError, match="vector length does not match"):
                call(bad)


@pytest.mark.parametrize("n", [0, 1, 5, 63, 64, 65, 130])
def test_zero_subspace_reads_rows_mod_2(n):
    # dim 0 answers from the rows read mod 2, with no packed reduction
    rng = np.random.default_rng(n)
    batch = rng.integers(0, 4, size=(5, n), dtype=np.uint8)
    batch[0] = 0
    batch[1] = 2 * rng.integers(0, 2, size=n)  # zero mod 2
    want = batch & 1
    for span in (Subspace.zero(n), Subspace.from_vectors(n, np.zeros((3, n), np.uint8))):
        assert span.dim == 0
        inside = span.contains(batch)
        residual = span.residual(batch)
        assert np.array_equal(inside, ~want.any(axis=1))
        assert residual.dtype == np.uint8 and np.array_equal(residual, want)
        assert np.array_equal(span.residual(batch[::2]), want[::2])
        assert span.contains(batch[:0]).shape == (0,) and span.residual(batch[:0]).shape == (0, n)
        for v, w in zip(batch, want):
            assert span.contains(v) is (not w.any())
            assert np.array_equal(span.residual(v), w)
        assert np.array_equal(span.combination(batch[:2]), np.zeros((2, span.transform.cols)))
        assert np.array_equal(span.combination(batch[1]), np.zeros(span.transform.cols))
        if n:
            with pytest.raises(ModelMismatchError, match="not in the span"):
                span.combination(batch)
            for v in batch[~inside]:
                with pytest.raises(ModelMismatchError, match="not in the span"):
                    span.combination(v)
        for bad in (np.zeros(n + 1, np.uint8), np.zeros((2, n + 1), np.uint8)):
            for call in (span.contains, span.residual, span.combination):
                with pytest.raises(ModelMismatchError, match="vector length does not match"):
                    call(bad)


@given(
    st.integers(0, 6),
    st.integers(0, 9),
    st.sampled_from([0, 1, 63, 64, 65, 200]),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=120, deadline=None)
def test_xor_combine_equals_matrix_product(b, d, n, seed):
    rng = np.random.default_rng(seed)
    coeffs = rng.integers(0, 2, size=(b, d), dtype=np.uint8)
    coeffs[rng.random(b) < 0.3] = 0  # all-zero coefficient rows
    rows = rng.integers(0, 2, size=(d, n), dtype=np.uint8)
    want = (coeffs.astype(np.int64) @ rows) % 2
    assert np.array_equal(xor_combine(coeffs, rows), want)
    assert np.array_equal(xor_combine(coeffs, pack_rows(rows)), pack_rows(want))


@pytest.mark.parametrize("rows, cols, inner", [(7, 5, 9), (20, 64, 130), (33, 1, 70), (0, 4, 3)])
def test_blocked_matmul_equals_one_shot(rows, cols, inner):
    # blocks of 2 or 3 rows, so the products cross block edges, and a ragged last block
    rng = np.random.default_rng(rows * 1000 + inner)
    a, b = random_dense(rows, inner, rng), random_dense(inner, cols, rng)
    one_shot = F2Matrix.from_dense(a).matmul(F2Matrix.from_dense(b))
    for bits in (2 * inner, 3 * inner):
        with mock.patch.object(gf2, "_UNPACK_BITS", bits):
            assert F2Matrix.from_dense(a).matmul(F2Matrix.from_dense(b)) == one_shot
    want = (a.astype(np.int64) @ b) % 2
    assert np.array_equal(one_shot.to_dense(), want.astype(np.uint8))
