from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kronflow.errors import ValidationError
import json

import numpy as np

from kronflow.exact_linalg import (
    IntVecFin,
    RowFiniteIntMatrix,
    format_rational,
    gcd_of_vector,
    hermite_transform,
    integer_kernel,
    parse_rational,
    parse_rational_pair,
    rational_gcd,
)
from oracles import (
    brute_force_kernel,
    dense_hermite_transform,
    dense_rows,
    dot_fractions,
    euclid_gcd,
    rational_rank,
    sparse_image,
    span_contains_all,
    table_of,
    verify_inverse,
)


def kernel_cols(basis, n):
    return [b.to_list(n) for b in basis]


def spans_match(rows, basis, bound):
    """Both inclusions: brute-force solutions lie in the span, and each basis
    vector is an exact kernel element."""
    n = len(rows[0])
    for b in basis:
        for row in rows:
            assert dot_fractions(b, row) == 0
    brute = brute_force_kernel(rows, bound)
    return span_contains_all(kernel_cols(basis, n), brute)


# -- rationals


def test_rational_wire_format():
    assert format_rational(F(3, 6)) == "1/2"
    assert format_rational(F(-4, 2)) == "-2"
    assert format_rational(-7) == "-7"
    assert parse_rational("7/3") == F(7, 3)
    assert parse_rational("-5") == F(-5)
    with pytest.raises(ValidationError):
        parse_rational("1/0")


_DIGITS = st.text("0123456789", min_size=1, max_size=25)
# near misses of the grammar: doubled or stray signs, inner spaces, "_", non-ASCII
# digits (Arabic-Indic, fullwidth, superscript), a zero or signed denominator
_NEAR_MISS = st.sampled_from(["", "+", "-", "+-", "--", " ", "_", "/", "//", "/0", "/-2", "/+2", ".",
                              "٣", "１", "²", "\t", "　", "x"])


@st.composite
def rational_texts(draw):
    """Strings from the rational grammar ``[+-]digits[/digits]``, decimals and
    exponents, whitespace padding, and the same with near misses spliced in."""
    sign = draw(st.sampled_from(["", "+", "-"]))
    body = draw(_DIGITS)
    tail = draw(st.sampled_from(["", "/", ".", "e", "E-"]))
    if tail:  # an exponent of at most two digits, and two more by a near miss, keeps 10**exp small
        body += tail + draw(st.text("0123456789", min_size=1, max_size=2 if tail in ("e", "E-") else 25))
    text = sign + body
    for _ in range(draw(st.integers(0, 2))):
        k = draw(st.integers(0, len(text)))
        text = text[:k] + draw(_NEAR_MISS) + text[k:]
    pad = st.sampled_from(["", " ", "\t", "\n ", " "])
    return draw(pad) + text + draw(pad)


@settings(max_examples=500, deadline=None)
@given(rational_texts())
def test_parse_rational_reads_as_fraction_of_the_text(text):
    """The value Fraction gives for the stripped text, or its error in the
    same ValidationError line; the pair reader gives the same value."""
    try:
        expected = F(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        message = f"malformed rational {text!r}: {exc}"
        for reader in (parse_rational, parse_rational_pair):
            with pytest.raises(ValidationError) as err:
                reader(text)
            assert str(err.value) == message
        return
    assert parse_rational(text) == expected and type(parse_rational(text)) is F
    p, q = parse_rational_pair(text)
    assert q > 0 and F(p, q) == expected


@given(st.fractions(max_denominator=50), st.fractions(max_denominator=50))
def test_rational_addition_cross_multiplication(a, b):
    s = a + b
    assert s.numerator * a.denominator * b.denominator == (
        a.numerator * b.denominator + b.numerator * a.denominator
    ) * s.denominator


def test_rational_gcd_examples():
    assert rational_gcd([F(1), F(1, 2), F(1, 3)]) == F(1, 6)
    assert rational_gcd([F(3, 2), F(7, 5)]) == F(1, 10)
    assert rational_gcd([]) == 0


# -- gcd_of_vector examples [TRIVIAL]


def test_gcd_examples():
    assert gcd_of_vector(IntVecFin.from_list([2, 3])) == 1
    assert gcd_of_vector(IntVecFin.from_list([4, 6, 10])) == 2
    assert gcd_of_vector(IntVecFin.from_list([0])) == 0


@given(st.lists(st.integers(-40, 40), min_size=1, max_size=6))
def test_gcd_matches_euclid(vals):
    assert gcd_of_vector(IntVecFin.from_list(vals)) == euclid_gcd(vals)


# -- integer_kernel examples


def test_kernel_632_derived():
    # oracle: enumeration of |nu|_inf <= 6, then span comparison
    rows = [[F(6), F(3), F(2)]]
    basis = integer_kernel(*table_of(rows))
    assert len(basis) == 2
    assert spans_match(rows, basis, 6)
    # the two vectors quoted with this example generate the same lattice
    quoted = np.array([[1, -2, 0], [0, 2, -3]])
    assert span_contains_all(kernel_cols(basis, 3), quoted)


def test_kernel_identity_trivial():
    assert integer_kernel(*table_of([[F(1), F(0)], [F(0), F(1)]])) == []


def test_kernel_zero_map_trivial():
    basis = integer_kernel(*table_of([[F(0), F(0)]]))
    assert basis == [IntVecFin({1: 1}), IntVecFin({2: 1})]


def test_kernel_deterministic():
    rows = [[F(2, 3), F(-1, 5), F(4)], [F(1), F(1), F(1)]]
    assert integer_kernel(*table_of(rows)) == integer_kernel(*table_of([list(r) for r in rows]))


@st.composite
def rational_matrices(draw):
    n = draw(st.integers(2, 4))
    m = draw(st.integers(1, 3))
    elems = st.fractions(
        min_value=-9, max_value=9, max_denominator=9
    )
    return [[draw(elems) for _ in range(n)] for _ in range(m)]


@settings(max_examples=40, deadline=None)
@given(rational_matrices())
def test_kernel_span_equals_brute_force(rows):
    basis = integer_kernel(*table_of(rows))
    assert spans_match(rows, basis, 10)


@settings(max_examples=40, deadline=None)
@given(rational_matrices())
def test_kernel_vectors_primitive(rows):
    for b in integer_kernel(*table_of(rows)):
        assert gcd_of_vector(b) == 1


@st.composite
def structured_rational_matrices(draw):
    """m in 1..4, n in 1..10, with zero, duplicated and dependent rows."""
    n = draw(st.integers(1, 10))
    m = draw(st.integers(1, 4))
    elems = st.fractions(min_value=-4, max_value=4, max_denominator=3)
    rows = [[draw(elems) for _ in range(n)]]
    for _ in range(1, m):
        kind = draw(st.sampled_from(["free", "zero", "duplicate", "dependent"]))
        if kind == "free":
            rows.append([draw(elems) for _ in range(n)])
        elif kind == "zero":
            rows.append([F(0)] * n)
        elif kind == "duplicate":
            rows.append(list(draw(st.sampled_from(rows))))
        else:
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            c, d = draw(elems), draw(elems)
            rows.append([c * x + d * y for x, y in zip(a, b)])
    return rows


@settings(max_examples=200, deadline=None)
@given(structured_rational_matrices())
def test_kernel_is_canonical_hermite_basis(rows):
    n = len(rows[0])
    basis = integer_kernel(*table_of(rows))
    assert len(basis) == n - rational_rank(rows)
    # the brute-force grid is kept to at most 7^5, 5^7 or 3^10 points
    bound = 3 if n <= 5 else 2 if n <= 7 else 1
    assert spans_match(rows, basis, bound)
    pivots = [min(b.support()) for b in basis]
    assert pivots == sorted(set(pivots))
    for k, b in enumerate(basis):
        assert b[pivots[k]] > 0
        for later in range(k + 1, len(basis)):
            assert 0 <= b[pivots[later]] < basis[later][pivots[later]]


def assert_matches_dense_hermite(rows):
    """The sparse transform equals the dense oracle entry for entry, and its
    tracked inverse holds."""
    h, dense = hermite_transform(*table_of(rows)), dense_hermite_transform(rows)
    doc, n = h.transform.to_json(), len(rows[0])
    assert doc["dimension"] == n
    assert dense_rows(doc, "rows", n) == dense.rows
    assert dense_rows(doc, "inverse_rows", n) == dense.inverse_rows
    assert h.image == sparse_image(dense.image)
    assert h.zero_rank == dense.zero_rank
    assert verify_inverse(h.transform)
    assert integer_kernel(*table_of(rows)) == [IntVecFin.from_list(row) for row in dense.rows[: dense.zero_rank]]


@st.composite
def sparse_rational_matrices(draw):
    """m x n rational matrices, m <= 4 and n <= 40, with zero rows, zero
    columns, repeated columns and negative entries."""
    m = draw(st.integers(1, 4))
    n = draw(st.integers(1, 40))
    entries = st.one_of(st.just(F(0)), st.fractions(min_value=-12, max_value=12, max_denominator=6))
    cols: list[list[F]] = []
    for _ in range(n):
        kind = draw(st.sampled_from(["random", "random", "zero", "repeat"]))
        if kind == "repeat" and cols:
            cols.append(list(draw(st.sampled_from(cols))))
        elif kind == "zero":
            cols.append([F(0)] * m)
        else:
            cols.append([draw(entries) for _ in range(m)])
    zero_rows = draw(st.lists(st.booleans(), min_size=m, max_size=m))
    return [[F(0) if zero else col[i] for col in cols] for i, zero in enumerate(zero_rows)]


@settings(max_examples=300, deadline=None)
@given(sparse_rational_matrices())
def test_hermite_transform_matches_dense_oracle(rows):
    assert_matches_dense_hermite(rows)


@settings(max_examples=200, deadline=None)
@given(sparse_rational_matrices(), st.data())
def test_hermite_transform_is_invariant_under_positive_row_scales(rows, data):
    """Each row of the table and its scale multiplied by one positive factor
    leave the transform, its inverse, the image and the kernel as they were,
    row for row: a BO beta row over the sigmas' D, which need not be the
    row's lcm, rests on this."""
    table, n = table_of(rows)
    factors = data.draw(st.lists(st.integers(1, 60), min_size=len(table), max_size=len(table)))
    scaled = {i: (c * scale, {j: c * v for j, v in row.items()})
              for (i, (scale, row)), c in zip(table.items(), factors)}
    h, g = hermite_transform(table, n), hermite_transform(scaled, n)
    assert g.transform.to_json() == h.transform.to_json()
    assert g.image == h.image and g.zero_rank == h.zero_rank
    assert integer_kernel(scaled, n) == integer_kernel(table, n)


# -- matrices, built by in-place row operations on identity(n)


def test_compose_identity_law():
    # identity() and identity(3) are the same infinite matrix, and a row
    # operation on the identity is the elementary matrix with its inverse
    assert RowFiniteIntMatrix.identity() == RowFiniteIntMatrix.identity(3)
    b = RowFiniteIntMatrix.identity(2)
    b.add_to_rows([2], 1, 3)
    assert b.to_json() == {
        "dimension": 2,
        "rows": {"1": {"1": 1}, "2": {"1": 3, "2": 1}},
        "inverse_rows": {"1": {"1": 1}, "2": {"1": -3, "2": 1}},
    }


def test_compose_swap_involution():
    s = RowFiniteIntMatrix.identity(2)
    s.swap(1, 2)
    assert s != RowFiniteIntMatrix.identity(2)
    s.swap(1, 2)
    assert s.to_json() == RowFiniteIntMatrix.identity(2).to_json()


def test_compose_elementary_inverse_pair():
    m = RowFiniteIntMatrix.identity(2)
    m.add_to_rows([2], 1, -1)
    m.add_to_rows([2], 1, 1)
    assert m.to_json() == RowFiniteIntMatrix.identity(2).to_json()


def test_row_operations_reject_bad_rows():
    m = RowFiniteIntMatrix.identity(3)
    for op in (lambda: m.add_to_rows([2], 2, 1), lambda: m.add_to_rows([3, 1], 1, 1), lambda: m.add_to_rows([2, 4], 1, 1),
               lambda: m.swap(0, 1), lambda: m.negate(4)):
        with pytest.raises(ValidationError):
            op()
    assert m == RowFiniteIntMatrix.identity(3)


@st.composite
def elementary_products(draw):
    n = draw(st.integers(2, 5))
    out = RowFiniteIntMatrix.identity(n)
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(["swap", "negate", "add"]))
        i = draw(st.integers(1, n))
        if kind == "swap":
            j = draw(st.integers(1, n).filter(lambda x: x != i))
            out.swap(i, j)
        elif kind == "negate":
            out.negate(i)
        else:
            j = draw(st.integers(1, n).filter(lambda x: x != i))
            targets = draw(st.lists(st.integers(1, n).filter(lambda x: x != j), max_size=3))
            out.add_to_rows([i, *targets], j, draw(st.integers(-3, 3)))
    return out


@settings(max_examples=60, deadline=None)
@given(elementary_products())
def test_tracked_inverse_verifies(mat):
    assert verify_inverse(mat)


@settings(max_examples=30, deadline=None)
@given(elementary_products(), st.lists(st.integers(-9, 9), min_size=5, max_size=5))
def test_inverse_undoes_apply(mat, vals):
    nu = IntVecFin.from_list(vals)
    doc = mat.to_json()
    n = doc["dimension"]
    a, b = dense_rows(doc, "rows", n), dense_rows(doc, "inverse_rows", n)
    # the inverse's rows are b's rows, and its inverse columns a's columns
    inverse = RowFiniteIntMatrix(
        [{j: v for j, v in enumerate(row, 1) if v} for row in b],
        [{i: a[i - 1][j] for i in range(1, n + 1) if a[i - 1][j]} for j in range(n)],
    )
    assert inverse.apply(mat.apply(nu)) == nu


@st.composite
def row_operation_sequences(draw):
    """n <= 12 and up to 40 operations (op, i, j, c, rest); add_to_rows
    acts on the target rows [i, *rest], which may hold j, and then must be
    refused, or name a row more than once."""
    n = draw(st.integers(1, 12))
    index = st.integers(1, n)
    ops = st.tuples(st.sampled_from(["swap", "negate", "add_to_rows"]), index, index, st.integers(-4, 4),
                    st.lists(index, max_size=4))
    return n, draw(st.lists(ops, max_size=40))


def _dense_row_operation(a, b, op, i, j, c):
    """The row operation on dense rows a of A and b of A^-1, mirrored on b's
    columns; an add_to_rows is one of these per target row."""
    i, j = i - 1, j - 1
    if op == "swap":
        a[i], a[j] = a[j], a[i]
        for row in b:
            row[i], row[j] = row[j], row[i]
    elif op == "negate":
        a[i] = [-v for v in a[i]]
        for row in b:
            row[i] = -row[i]
    else:
        a[i] = [u + c * v for u, v in zip(a[i], a[j])]
        for row in b:
            row[j] -= c * row[i]


@settings(max_examples=200, deadline=None)
@given(row_operation_sequences(), st.lists(st.integers(-9, 9), min_size=14, max_size=14))
def test_sparse_row_operations_match_dense_lists(seq, vals):
    n, ops = seq
    m = RowFiniteIntMatrix.identity(n)
    eye = [[int(i == j) for j in range(n)] for i in range(n)]
    a, b = [list(row) for row in eye], [list(row) for row in eye]
    for op, i, j, c, rest in ops:
        if op == "add_to_rows":
            targets = [i, *rest]
            if j in targets:
                with pytest.raises(ValidationError):
                    m.add_to_rows(targets, j, c)
                continue
            m.add_to_rows(targets, j, c)
            for t in targets:
                _dense_row_operation(a, b, op, t, j, c)
        else:
            getattr(m, op)(*((i,) if op == "negate" else (i, j)))
            _dense_row_operation(a, b, op, i, j, c)
        assert verify_inverse(m)
    doc = m.to_json()
    assert doc["dimension"] == n
    assert dense_rows(doc, "rows", n) == a
    assert dense_rows(doc, "inverse_rows", n) == b
    for i in range(1, n + 2):
        want_row = a[i - 1] if i <= n else [int(k == i) for k in range(1, n + 2)]
        want_inverse = b[i - 1] if i <= n else want_row
        assert m.row(i) == IntVecFin.from_list(want_row)
        assert m.inverse_row(i) == IntVecFin.from_list(want_inverse)
    nu = IntVecFin.from_list(vals)
    image = [sum(row[k] * vals[k] for k in range(n)) for row in a] + vals[n:]
    assert m.apply(nu) == IntVecFin.from_list(image)
    assert (m == RowFiniteIntMatrix.identity(n)) == (a == eye)


def test_matrix_json_roundtrip():
    # row_2 -= 4 row_1 after swapping rows 1 and 3
    m = RowFiniteIntMatrix.identity(3)
    m.swap(1, 3)
    m.add_to_rows([2], 1, -4)
    doc = m.to_json()
    assert json.loads(json.dumps(doc)) == doc == {
        "dimension": 3,
        "rows": {"1": {"3": 1}, "2": {"2": 1, "3": -4}, "3": {"1": 1}},
        "inverse_rows": {"1": {"3": 1}, "2": {"1": 4, "2": 1}, "3": {"1": 1}},
    }
    assert verify_inverse(m)
    assert [m.row(i).to_json() for i in (1, 2, 3)] == list(doc["rows"].values())
    assert [m.inverse_row(i).to_json() for i in (1, 2, 3)] == list(doc["inverse_rows"].values())
    assert m.row(4) == m.inverse_row(4) == IntVecFin({4: 1})


def test_vector_json_and_invariants():
    v = IntVecFin({3: 4, 1: -2})
    assert IntVecFin.from_json(v.to_json()) == v
    assert v.support() == (1, 3)
    with pytest.raises(ValidationError):
        IntVecFin({0: 1})


def test_vector_rejects_non_integer_entries():
    for bad in ({1: 2.7}, {2: True}, {1.0: 1}, {1: F(3)}, {True: 4}):
        with pytest.raises(ValidationError):
            IntVecFin(bad)
    with pytest.raises(ValidationError):
        IntVecFin.from_list([1, 2.5])
    assert IntVecFin.from_json({"1": "3", "2": 4}) == IntVecFin({1: 3, 2: 4})
    with pytest.raises(ValidationError):
        IntVecFin.from_json({"1": 2.7})


def test_kernel_more_rows_than_columns():
    rows = [[F(1), F(2)], [F(2), F(4)], [F(3), F(6)], [F(0), F(0)]]
    basis = integer_kernel(*table_of(rows))
    assert basis == [IntVecFin.from_list([2, -1])]
    assert spans_match(rows, basis, 10)


def test_kernel_arbitrary_precision_entries():
    # entries far beyond any fixed machine width
    big = 10**40
    basis = integer_kernel(*table_of([[F(big), F(3 * big)]]))
    assert basis == [IntVecFin.from_list([3, -1])]
    huge = integer_kernel(*table_of([[F(2**200 + 1), F(-(2**200))]]))
    (vec,) = huge
    assert dot_fractions(vec, [F(2**200 + 1), F(-(2**200))]) == 0
    assert gcd_of_vector(vec) == 1
