"""Field table construction, arithmetic, traces, norms, subfield maps."""

import json
import subprocess
import sys
import tracemalloc
from math import isqrt

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from towercodes import field as field_module
from towercodes.cli import main
from towercodes.field import (MAX_FIELD_ORDER, PRIMITIVE_CODES, Field,
                              TowerSpec, check_field_budget, factorize,
                              get_field, is_prime, least_primitive_code,
                              relative_trace_codes, subfield_element,
                              trace_sequence, trace_zero_indicator)


# Reproducible moduli: smallest primitive polynomial in lex coefficient
# order, constant term first, leading 1 last.
FROZEN_MODULI = {
    (2, 1): (1, 1),
    (2, 2): (1, 1, 1),
    (2, 4): (1, 1, 0, 0, 1),
    (2, 6): (1, 1, 0, 0, 0, 0, 1),
    (3, 1): (1, 1),
    (3, 2): (2, 1, 1),
    (3, 6): (2, 1, 0, 0, 0, 0, 1),
    (5, 2): (2, 1, 1),
    (7, 2): (3, 1, 1),
}

SMALL_FIELDS = [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (5, 1), (5, 2), (7, 1)]


# -- independent polynomial reference --------------------------------------


def poly_add(a, b, p):
    return tuple((x + y) % p for x, y in zip(a, b))


def poly_mul_mod(a, b, modulus, p):
    m = len(modulus) - 1
    prod = [0] * (2 * m - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                prod[i + j] = (prod[i + j] + x * y) % p
    for d in range(2 * m - 2, m - 1, -1):
        lead = prod[d]
        if lead:
            prod[d] = 0
            for j in range(m + 1):
                prod[d - m + j] = (prod[d - m + j] - lead * modulus[j]) % p
    return tuple(prod[:m])


@pytest.mark.parametrize("p,m", SMALL_FIELDS)
def test_tables_match_polynomial_arithmetic(p, m):
    F = Field(p, m)
    vectors, _ = literal_tables(p, m, F.modulus)
    vec = {None: (0,) * m, **dict(enumerate(vectors))}
    back = {v: x for x, v in vec.items()}
    for x in F.elements():
        for y in F.elements():
            s = poly_add(vec[x], vec[y], p)
            assert vec[F.add(x, y)] == s
            pr = poly_mul_mod(vec[x], vec[y], F.modulus, p)
            assert vec[F.mul(x, y)] == pr
            assert back[pr] == F.mul(x, y)


# -- literal construction oracles --------------------------------------------
#
# Polynomial square-and-multiply for the modulus search and one LFSR step
# per power of alpha for the tables, independent of the trace m-sequence
# that field.py builds the tables from.


def literal_modulus(p, m):
    """Smallest primitive monic polynomial by square-and-multiply on
    polynomials: x^M = 1 and x^(M/l) != 1 for each prime l | M."""
    M = p ** m - 1

    def x_pow_is_one(xpoly, e, modulus):
        result = (1,) + (0,) * (m - 1)
        base = xpoly
        while e:
            if e & 1:
                result = poly_mul_mod(result, base, modulus, p)
            base = poly_mul_mod(base, base, modulus, p)
            e >>= 1
        return result == (1,) + (0,) * (m - 1)

    for code in range(1, p ** m):
        if code % p == 0:
            continue
        coeffs = []
        c = code
        for _ in range(m):
            coeffs.append(c % p)
            c //= p
        modulus = coeffs + [1]
        xpoly = ((-coeffs[0]) % p,) if m == 1 else (0, 1) + (0,) * (m - 2)
        if x_pow_is_one(xpoly, M, modulus) and not any(
                x_pow_is_one(xpoly, M // l, modulus) for l, _ in factorize(M)):
            return tuple(modulus)
    raise AssertionError("no primitive polynomial")


def literal_tables(p, m, modulus):
    """(vectors, zech) by stepping x -> x * alpha once per t: vectors[t]
    holds the coefficients of alpha^t over 1, alpha, ..., alpha^(m-1), and
    1 + alpha^t = alpha^zech[t], None where it is zero."""
    M = p ** m - 1
    vectors = []
    dlog = {}
    vec = [1] + [0] * (m - 1)
    for t in range(M):
        key = tuple(vec)
        assert key not in dlog, "cycle repeats"
        vectors.append(key)
        dlog[key] = t
        lead = vec[m - 1]
        vec = [0] + vec[: m - 1]
        if lead:
            for j in range(m):
                vec[j] = (vec[j] - lead * modulus[j]) % p
    assert vec == [1] + [0] * (m - 1), "cycle does not close"
    # 1 + alpha^t adds 1 to the constant coefficient
    zech = [dlog.get(((v[0] + 1) % p,) + v[1:]) for v in vectors]
    return vectors, zech


def fields_up_to(limit, primes=(2, 3, 5, 7)):
    return [(p, m) for p in primes for m in range(1, 40) if p ** m <= limit]


@pytest.mark.parametrize("p,m", fields_up_to(1 << 14))
def test_tables_match_literal_lfsr(p, m):
    F = Field(p, m)
    assert F.modulus == literal_modulus(p, m)
    vectors, zech = literal_tables(p, m, F.modulus)
    # Tr(alpha^t) = sum_j alpha^(t p^j) lies in F_p: it is the constant
    # term of the summed coefficient vectors, whose other terms vanish
    M = F.mult_order
    V = np.array(vectors, dtype=np.int64)
    t = np.arange(M)
    conjugate_sum = sum(V[t * p ** j % M] for j in range(m)) % p
    assert not conjugate_sum[:, 1:].any()
    tr = conjugate_sum[:, 0]
    # the code of alpha^t holds Tr(alpha^(t+i)), i < m, as base-p digits
    codes = sum(tr[(t + i) % M] * p ** i for i in range(m))
    assert F.alpha_powers.tolist() == codes.tolist()
    assert np.array_equal(F._dlog[F.alpha_powers], t)
    # the tables hold -1 for the zero element
    assert F._dlog[0] == -1
    # 1 + alpha^t, summed digit-wise on the codes, is the literal LFSR's
    assert [F.add(0, t) for t in range(M)] == zech
    for table in (F.alpha_powers, F._dlog):
        assert table.dtype == np.int64 and not table.flags.writeable
    # the scalar methods read entries as plain Python ints, so no numpy
    # scalar reaches an Element
    sums = {F.add(x, y) for x in F.elements() for y in (None, 0, x)}
    residues = {F.element_from_residue(c) for c in range(p)}
    assert {type(v) for v in sums | residues} <= {int, type(None)}


def test_table_build_rejects_bad_moduli(monkeypatch):
    trace_sequence.cache_clear()  # Field reads the cached sequence
    # x^4 + x^3 + x^2 + x + 1 is irreducible over F_2, but x has order 5
    monkeypatch.setitem(PRIMITIVE_CODES, (2, 4), 0b1111)
    with pytest.raises(RuntimeError, match="cycle repeats"):
        Field(2, 4)
    # x itself: the single power hits the single nonzero vector, but
    # alpha^1 = 0 does not close the cycle
    monkeypatch.setattr(field_module, "least_primitive_code",
                        lambda p, m: 0)
    with pytest.raises(RuntimeError, match="does not close"):
        Field(2, 1)


# -- the table of moduli ---------------------------------------------------


def test_primitive_codes_cover_exactly_the_non_prime_fields():
    want = {(p, m) for p in range(2, isqrt(MAX_FIELD_ORDER) + 1)
            if is_prime(p) for m in range(2, MAX_FIELD_ORDER.bit_length())
            if p ** m <= MAX_FIELD_ORDER}
    assert len(want) == 242
    assert set(PRIMITIVE_CODES) == want


def test_every_tabulated_code_equals_the_search():
    assert {key: least_primitive_code(*key) for key in PRIMITIVE_CODES} \
        == PRIMITIVE_CODES


@pytest.mark.parametrize("p", [101, 257, 1021])
def test_search_matches_literal_modulus_past_small_primes(p):
    code = least_primitive_code(p, 2)
    assert (code % p, code // p, 1) == literal_modulus(p, 2)
    assert PRIMITIVE_CODES[p, 2] == code


def test_table_build_rejects_a_bad_table_entry(monkeypatch):
    trace_sequence.cache_clear()  # Field reads the cached sequence
    # x^4 + x^3 + x^2 + x + 1: irreducible over F_2, but x has order 5
    monkeypatch.setitem(PRIMITIVE_CODES, (2, 4), 0b1111)
    with pytest.raises(RuntimeError, match="cycle repeats"):
        Field(2, 4)


def test_field_command_prints_the_searched_modulus(capsys):
    # the tabulated field with the largest p; this output is the one the
    # search gave before the table existed
    assert main(["field", "--p", "1021", "--e", "1", "--k", "2"]) == 0
    out = capsys.readouterr().out
    assert out == json.dumps({"p": 1021, "e": 1, "k": 2, "m": 2,
                              "order": 1042441, "modulus": [10, 1, 1],
                              "subfield_degrees": [1, 2]}, indent=2) + "\n"


@pytest.mark.parametrize("p,m", fields_up_to(1 << 12))
def test_trace_tables_match_scalar_trace(p, m):
    F = Field(p, m)
    degrees = [d for d in range(1, m + 1) if m % d == 0]
    for hi in degrees:
        step = F.subfield_exp(hi)
        for lo in (d for d in degrees if hi % d == 0):
            tab = F.trace_exp_subtable(hi, lo)
            assert tab.tolist() == [-1 if t is None else t for t in
                                    (F.trace(i * step, hi, lo)
                                     for i in range(p ** hi - 1))]
            assert tab.dtype == np.int64 and not tab.flags.writeable
            assert F.trace_exp_subtable(hi, lo) is tab
    for d in degrees:
        ind = F.trace_zero_indicator(d)
        want = [1 if t < 0 else 0 for t in F.trace_exp_subtable(m, d)]
        assert ind.tolist() == want


# -- the trace m-sequence ---------------------------------------------------


# Rows of coefficient_rows multiplied per matrix product; bounds the
# temporaries to a few MB.
_CHUNK_ROWS = 1 << 15


def coefficient_rows(p, m, modulus):
    """Rows V[t], the coefficients of alpha^t over 1, alpha, ...,
    alpha^(m-1), by doubling: V[n:2n] = V[:n] C^n for the companion matrix
    C of multiplication by x, then C^(2n) = (C^n)^2.  Rows are stored in
    the smallest dtype that holds p - 1 (uint8 here), products run in the
    smallest that holds their sums, below m p^2."""
    M = p ** m - 1
    work = np.min_scalar_type(m * (p - 1) ** 2)
    C = np.zeros((m, m), dtype=work)
    C[np.arange(m - 1), np.arange(1, m)] = 1
    C[m - 1] = [(-c) % p for c in modulus[:m]]
    V = np.zeros((M, m), dtype=np.min_scalar_type(p - 1))
    V[0, 0] = 1
    n, Cn = 1, C
    while n < M:
        for lo in range(0, min(n, M - n), _CHUNK_ROWS):
            hi = min(lo + _CHUNK_ROWS, M - n, n)
            V[n + lo:n + hi] = V[lo:hi].astype(work, copy=False) @ Cn % p
        Cn = Cn @ Cn % p
        n *= 2
    return V


def coefficient_row_traces(p, m, rows):
    """Tr(alpha^t) for every t, as the coefficient rows weighted by the
    traces Tr(alpha^i), i < m (Tr is F_p-linear).  Tr(alpha^i) =
    sum_j alpha^(i p^j) is the constant term of the summed rows, whose
    other terms vanish."""
    M = p ** m - 1
    i = np.arange(m)
    conjugate_sum = sum(rows[i * p ** j % M].astype(np.int64)
                        for j in range(m)) % p
    assert not conjugate_sum[:, 1:].any()
    out = np.zeros(M, dtype=np.int64)
    for i, tr in enumerate(conjugate_sum[:, 0].tolist()):
        out += rows[:, i] * np.int64(tr)
    return out % p


@pytest.mark.parametrize("p,m", fields_up_to(1 << 16) + [(2, 20)])
def test_trace_sequence_equals_coefficient_rows(p, m):
    F = Field(p, m)
    M = F.mult_order
    rows = coefficient_rows(p, m, F.modulus)
    want = coefficient_row_traces(p, m, rows)
    seq, windows = trace_sequence(p, m)
    assert np.array_equal(seq, want)
    # the windows are the dual-basis coordinates Tr(alpha^(t+i)), i < m
    t = np.arange(M)
    codes = sum(want[(t + i) % M] * p ** i for i in range(m))
    assert np.array_equal(windows, codes)
    assert F.alpha_powers is windows
    # 1 + alpha^t past the literal LFSR's reach, at every t: over the
    # polynomial basis it adds 1 to the constant coefficient of row t
    enc = np.zeros(M, dtype=np.int64)
    for i in reversed(range(m)):
        enc *= p
        enc += rows[:, i]
    dlog = np.full(M + 1, -1, dtype=np.int64)
    dlog[enc] = t
    sums = dlog[enc + 1 - p * (rows[:, 0] == p - 1)].tolist()
    assert [F.add(0, u) for u in range(M)] == \
        [None if z < 0 else z for z in sums]
    for table in (seq, windows):
        assert table.dtype == np.int64 and not table.flags.writeable
    assert trace_sequence(p, m)[0] is seq and F.abs_trace_residues() is seq


@pytest.mark.parametrize("p,m", SMALL_FIELDS + [(2, 6), (3, 4), (13, 2)])
def test_trace_sequence_matches_scalar_trace(p, m):
    F = Field(p, m)
    seq, windows = trace_sequence(p, m)
    M = F.mult_order
    scalar = [F.residue(F.trace(t, m, 1)) for t in range(M)]
    assert seq.tolist() == scalar
    assert windows.tolist() == [
        sum(scalar[(t + i) % M] * p ** i for i in range(m)) for t in range(M)]


@pytest.mark.parametrize("p,m", fields_up_to(1 << 8) + [(13, 2)])
def test_sequence_subfield_maps_match_the_tables(p, m):
    F = Field(p, m)
    _, windows = trace_sequence(p, m)
    degrees = [d for d in range(1, m + 1) if m % d == 0]
    for hi in degrees:
        step = F.subfield_exp(hi)
        for lo in (d for d in degrees if hi % d == 0):
            # trace_exp_subtable reads these codes, so the scalar trace,
            # a sum of scalar additions, is the reference
            want = [0 if t is None else windows.item(t) for t in
                    (F.trace(i * step, hi, lo) for i in range(p ** hi - 1))]
            assert relative_trace_codes(p, m, hi, lo).tolist() == want
        assert F.trace_zero_indicator(hi) is trace_zero_indicator(p, m, hi)
        for i in range(p ** hi):
            x = F.subfield_element_from_index(i, hi)
            code = 0 if x is None else windows.item(x)
            assert subfield_element(p, m, hi, i) == (x, code)


@pytest.mark.parametrize("p,m", [(2, 16), (3, 10)])
def test_relative_trace_codes_fold_one_conjugate_at_a_time(p, m):
    # m conjugates held at once would need m or more arrays of p^m - 1
    # entries; folding each into the sum as it is formed needs a few
    trace_sequence(p, m)  # the shared sequence is not part of the peak
    tracemalloc.start()
    try:
        relative_trace_codes.__wrapped__(p, m, m, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * (p ** m - 1) * 8


# the odd fields of largest degree per prime, and the largest prime
# field's square: the widest digit sums
@pytest.mark.parametrize("p,m", [(3, 12), (5, 8), (7, 7), (13, 5), (1021, 2)])
def test_absolute_trace_codes_scale_the_code_of_one(p, m):
    # Tr(alpha^c) lies in F_p, and the code of t in F_p is t times the code
    # of 1, digit-wise: digit i is Tr(alpha^c) Tr(alpha^i) mod p
    seq, _ = trace_sequence.__wrapped__(p, m)
    want = sum(seq * seq[i] % p * p ** i for i in range(m))
    assert np.array_equal(relative_trace_codes.__wrapped__(p, m, m, 1), want)


def test_digit_sums_fit_in_int64():
    # relative traces add up to m digits below p in fields of
    # B = bit_length(m (p - 1)) bits, m fields per int64 entry; a prime
    # field needs one field of at most 20 bits
    assert max(m * (m * (p - 1)).bit_length()
               for p, m in PRIMITIVE_CODES if p > 2) == 60


def test_trace_sequence_rejects_bad_moduli(monkeypatch):
    build = trace_sequence.__wrapped__  # the cache would hide the modulus
    # x^4 + x^3 + x^2 + x + 1: irreducible over F_2, but x has order 5
    monkeypatch.setitem(PRIMITIVE_CODES, (2, 4), 0b1111)
    with pytest.raises(RuntimeError, match="cycle repeats"):
        build(2, 4)
    # x: the one window is the one nonzero code, but x^1 = 0 != 1
    monkeypatch.setattr(field_module, "least_primitive_code",
                        lambda p, m: 0)
    with pytest.raises(RuntimeError, match="does not close"):
        build(2, 1)
    with pytest.raises(ValueError, match="exceeds budget"):
        build(2, 21)
    with pytest.raises(ValueError, match="no field"):
        build(4, 2)


def test_frozen_moduli():
    for (p, m), want in FROZEN_MODULI.items():
        assert Field(p, m).modulus == want


def test_alpha_generates_everything():
    F = Field(3, 3)
    seen = {F.pow(F.alpha, t) for t in range(F.mult_order)}
    assert seen == set(F.nonzero())
    assert F.pow(F.alpha, F.mult_order) == F.one


# -- ring axioms and inverses ----------------------------------------------


@pytest.mark.parametrize("p,m", [(2, 3), (3, 2), (5, 1)])
def test_inverse_and_power_identities(p, m):
    F = Field(p, m)
    M = F.mult_order
    for x in F.nonzero():
        assert F.mul(x, F.inv(x)) == F.one
        assert F.pow(x, M) == F.one
        assert F.pow(x, -1) == F.inv(x)
        for y in F.nonzero():
            assert F.mul(F.div(x, y), y) == x
    for x in F.elements():
        assert F.add(x, F.neg(x)) is None
        assert F.sub(x, x) is None
        assert F.pow(x, 0) == F.one
    assert F.pow(None, 3) is None


# fields drawn from the table: every modulus there is checked only by the
# table build, so the axioms are checked on top of it
TABLE_FIELDS = sorted(key for key in PRIMITIVE_CODES
                      if key[0] ** key[1] <= 1 << 12)


@settings(max_examples=300, deadline=None)
@given(key=st.sampled_from(TABLE_FIELDS), data=st.data())
def test_field_axioms_on_tabulated_fields(key, data):
    F = get_field(*key)
    element = st.none() | st.integers(0, F.mult_order - 1)
    x, y, z = (data.draw(element) for _ in range(3))
    assert F.add(F.add(x, y), z) == F.add(x, F.add(y, z))
    assert F.mul(F.mul(x, y), z) == F.mul(x, F.mul(y, z))
    assert F.mul(x, F.add(y, z)) == F.add(F.mul(x, y), F.mul(x, z))
    assert F.add(x, F.neg(x)) is None
    if x is not None:
        assert F.mul(x, F.inv(x)) == F.one
    # Frobenius x -> x^p is additive
    p = F.p
    assert F.pow(F.add(x, y), p) == F.add(F.pow(x, p), F.pow(y, p))


def test_zero_division_errors():
    F = Field(2, 2)
    with pytest.raises(ZeroDivisionError):
        F.inv(None)
    with pytest.raises(ZeroDivisionError):
        F.pow(None, -2)


# -- traces and norms -------------------------------------------------------


@pytest.mark.parametrize("p,m,d", [(2, 4, 2), (2, 6, 3), (3, 4, 2), (2, 6, 2)])
def test_trace_identities(p, m, d):
    F = Field(p, m)
    q = p ** d
    fibers = {}
    for x in F.elements():
        t = F.trace(x, m, d)
        assert F.in_subfield(t, d)
        # Frobenius stability: Tr(x^q) == Tr(x)
        assert F.trace(F.pow(x, q), m, d) == t
        fibers[t] = fibers.get(t, 0) + 1
    # trace is onto with fibers of equal size
    assert len(fibers) == q
    assert set(fibers.values()) == {p ** (m - d)}
    for x in F.elements():
        for y in F.elements():
            assert F.trace(F.add(x, y), m, d) == F.add(
                F.trace(x, m, d), F.trace(y, m, d)
            )


def test_trace_transitivity():
    F = Field(2, 6)
    for x in F.elements():
        via = F.trace(F.trace(x, 6, 2), 2, 1)
        assert via == F.trace(x, 6, 1)


def test_norm_identities():
    F = Field(3, 4)
    counts = {}
    for x in F.nonzero():
        n = F.norm(x, 4, 2)
        assert F.in_subfield(n, 2)
        counts[n] = counts.get(n, 0) + 1
        for y in F.nonzero():
            assert F.norm(F.mul(x, y), 4, 2) == F.mul(n, F.norm(y, 4, 2))
    # each nonzero target value is hit (q^2-1)/(q-1) times with q = 9
    assert set(counts.values()) == {(81 - 1) // (9 - 1)}
    assert F.norm(None, 4, 2) is None
    assert F.norm(F.one, 4, 1) == F.one


def test_degree_errors():
    F = Field(2, 6)
    with pytest.raises(ValueError):
        F.trace(F.one, 6, 4)  # 4 does not divide 6
    with pytest.raises(ValueError):
        F.trace(F.one, 4, 2)  # 4 does not divide m = 6
    with pytest.raises(ValueError):
        F.trace(1, 3, 1)  # alpha is not in F_8 inside F_64
    with pytest.raises(ValueError):
        F.in_subfield(F.one, 5)


# -- subfield machinery ------------------------------------------------------


def test_in_subfield_counts():
    F = Field(2, 6)
    for d in (1, 2, 3, 6):
        members = [x for x in F.elements() if F.in_subfield(x, d)]
        assert len(members) == 2 ** d


def test_subfield_element_from_index_bijection():
    F = Field(3, 4)
    for d in (1, 2, 4):
        got = {F.subfield_element_from_index(i, d) for i in range(3 ** d)}
        want = {x for x in F.elements() if F.in_subfield(x, d)}
        assert got == want
    assert F.subfield_element_from_index(0, 2) is None
    with pytest.raises(ValueError):
        F.subfield_element_from_index(9, 2)


def test_residue_roundtrip():
    F = Field(5, 2)
    for c in range(5):
        assert F.residue(F.element_from_residue(c)) == c
    assert F.residue(None) == 0
    with pytest.raises(ValueError):
        F.residue(F.alpha)  # generator of F_25 is not in F_5


def test_trace_exp_subtable_matches_direct():
    F = Field(2, 6)
    for d in (1, 2, 3):
        tab = F.trace_exp_subtable(6, d)
        assert len(tab) == 63
        for i, e in enumerate(tab.tolist()):
            t = F.trace(i, 6, d)
            assert e == (-1 if t is None else t)
        assert F.trace_exp_subtable(6, d) is tab and not tab.flags.writeable
    # relative version from an intermediate level
    sub = F.trace_exp_subtable(2, 1)
    step = F.subfield_exp(2)
    for i, e in enumerate(sub.tolist()):
        t = F.trace(i * step, 2, 1)
        assert e == (-1 if t is None else t)


def test_trace_zero_indicator_kernel_size():
    F = Field(3, 4)
    for d in (1, 2):
        ind = F.trace_zero_indicator(d)
        assert ind.shape == (80,)
        # nonzero kernel elements: 3^(4-d) - 1
        assert int(ind.sum()) == 3 ** (4 - d) - 1
        # built once per degree and shared read-only
        assert F.trace_zero_indicator(d) is ind and not ind.flags.writeable


def test_abs_trace_residues_matches_direct():
    F = Field(3, 3)
    tab = F.abs_trace_residues()
    for u in range(F.mult_order):
        assert int(tab[u]) == F.residue(F.trace(u, 3, 1))
    assert F.abs_trace_residues() is tab  # cached


# -- constructors and validation ---------------------------------------------


def test_constructor_validation():
    with pytest.raises(ValueError):
        Field(4, 2)
    with pytest.raises(ValueError):
        Field(2, 0)
    # the one size budget: 2^20 builds, 2^21 is refused before any work
    assert MAX_FIELD_ORDER == 2 ** 20
    assert Field(2, 20).order == MAX_FIELD_ORDER
    with pytest.raises(ValueError, match="budget"):
        Field(2, 21)
    with pytest.raises(ValueError, match="budget"):
        Field(2, 30)


def test_budget_guard_is_exact_at_its_thresholds():
    # refuses exactly the fields past the budget
    check_field_budget(2, 20)
    check_field_budget(MAX_FIELD_ORDER, 1)
    check_field_budget(1, 10 ** 9)  # no field, but not over budget
    check_field_budget(-3, 10 ** 8)  # no field; (-3)^(10^8) is never formed
    with pytest.raises(ValueError, match=r"2\^21 = 2097152 exceeds budget"):
        check_field_budget(2, 21)  # small enough to show, as Field does
    check_field_budget(3, 12)  # 531441
    with pytest.raises(ValueError, match=r"3\^13 = 1594323 exceeds budget"):
        check_field_budget(3, 13)  # neither p nor 2^13 alone is too large
    for p, m in ((MAX_FIELD_ORDER + 1, 1), (2 ** 61 - 1, 1), (3, 10 ** 8)):
        with pytest.raises(ValueError, match=rf"{p}\^{m} exceeds budget"):
            check_field_budget(p, m)


def test_get_field_is_cached():
    assert get_field(3, 2) is get_field(3, 2)
    assert get_field(3, 2) is not get_field(3, 4)


def test_primality_helpers():
    assert [n for n in range(2, 20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]
    assert not is_prime(1)
    assert factorize(360) == [(2, 3), (3, 2), (5, 1)]
    assert factorize(1) == []


def _trial_division_is_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def test_is_prime_matches_trial_division():
    assert all(is_prime(n) == _trial_division_is_prime(n)
               for n in range(10 ** 5))


@pytest.mark.parametrize("n", [
    561, 1105, 1729, 41041, 825265,  # Carmichael numbers
    # the least strong pseudoprimes to the first 1, 2, ..., 9 prime bases
    2047, 1373653, 25326001, 3215031751, 2152302898747,
    3474749660383, 341550071728321, 3825123056546413051,
])
def test_is_prime_rejects_pseudoprimes(n):
    assert not is_prime(n)


def test_is_prime_accepts_large_primes():
    for n in (2 ** 31 - 1, 2 ** 61 - 1, 2 ** 64 - 59, 10 ** 18 + 9):
        assert is_prime(n)
    assert not is_prime((2 ** 31 - 1) * (2 ** 61 - 1))


def test_tower_spec_with_a_61_bit_prime_is_quick():
    # trial division up to sqrt(2^61) would take hours
    proc = subprocess.run(
        [sys.executable, "-c", "from towercodes.field import TowerSpec; "
         "print(TowerSpec(2 ** 61 - 1, 1, 1, 1).q)"],
        capture_output=True, text=True, timeout=10)
    assert proc.returncode == 0 and proc.stdout == f"{2 ** 61 - 1}\n"


# -- tower specs -------------------------------------------------------------


def test_tower_spec_properties():
    t = TowerSpec(2, 2, 2, 4)
    assert t.q == 4
    assert t.m == 8
    assert t.norm_exp == (4 ** 4 - 1) // (4 ** 2 - 1)
    assert t.field().order == 2 ** 8
    assert t.field() is get_field(2, 8)


def test_tower_spec_validation():
    with pytest.raises(ValueError):
        TowerSpec(6, 1, 2, 4)
    with pytest.raises(ValueError):
        TowerSpec(2, 0, 2, 4)
    with pytest.raises(ValueError):
        TowerSpec(2, 1, 2, 5)  # f must divide k


def test_gcd_condition_table():
    # gcd(k/f, q-1) == 1
    assert TowerSpec(2, 1, 2, 4).gcd_condition()  # q-1 = 1
    assert TowerSpec(3, 1, 2, 6).gcd_condition()  # gcd(3, 2) = 1
    assert not TowerSpec(3, 1, 1, 2).gcd_condition()  # gcd(2, 2) = 2
    assert not TowerSpec(5, 1, 2, 4).gcd_condition()  # gcd(2, 4) = 2
    assert TowerSpec(2, 2, 2, 2).gcd_condition()  # k/f = 1 always works
