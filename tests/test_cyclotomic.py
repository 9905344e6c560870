"""Exact cyclotomic integers, characters, Gauss sums."""

import cmath

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from towercodes.cyclotomic import (
    AddChar,
    CycloInt,
    _conv_cyclic,
    _conv_schoolbook,
    MultChar,
    davenport_hasse_lift,
    euler_phi,
    factorize,
    gauss_sum,
    gauss_sum_semiprimitive,
    lifted_char_index,
    monomial_char_sum,
    unity_power_sums,
    zeta,
)
from towercodes import cli, verify
from towercodes.field import Field, TowerSpec, get_field


def sample_elements(n):
    """Small deterministic elements of Z[zeta_n]."""
    out = [CycloInt.integer(n, 0), CycloInt.integer(n, 1), CycloInt.integer(n, -3)]
    for e in range(min(n, 4)):
        out.append(zeta(n, e))
        out.append(zeta(n, e) - 2)
    out.append(sum((zeta(n, (7 * i) % n) * ((-1) ** i) for i in range(n)),
                   CycloInt.integer(n, 5)))
    return out


@pytest.mark.parametrize("n", [1, 2, 3, 4, 6, 8, 12, 30, 36])
def test_ring_identities(n):
    xs = sample_elements(n)
    for a in xs:
        assert a * 1 == a
        assert a + 0 == a
        assert a - a == CycloInt.integer(n, 0)
        assert (a.conj()).conj() == a
        assert a ** 3 == a * a * a
        assert a ** 0 == CycloInt.integer(n, 1)
        for b in xs:
            assert a * b == b * a
            assert (a + b).conj() == a.conj() + b.conj()
            assert (a * b).conj() == a.conj() * b.conj()
            for c in xs[:4]:
                assert a * (b + c) == a * b + a * c


# orders on both sides of the schoolbook/Kronecker switch at n = 128, and
# coefficient bounds from a few bits to past 2^62: Kronecker digits are
# exactly as wide as the product bound, and past 2^62 the schoolbook
# product takes over again
RING_ORDERS = (1, 2, 3, 4, 6, 12, 15, 30, 129, 255)
COEFF_BOUNDS = (3, 20, 2 ** 20, 2 ** 40, 2 ** 70)


@st.composite
def ring_elements(draw, count):
    """count elements of one drawn Z[zeta_n]."""
    n = draw(st.sampled_from(RING_ORDERS))
    size = draw(st.sampled_from(COEFF_BOUNDS))
    coeff = st.integers(-size, size)
    return [CycloInt(n, draw(st.lists(coeff, min_size=n, max_size=n)))
            for _ in range(count)]


@settings(max_examples=150, deadline=None)
@given(ring_elements(3))
def test_ring_laws_hold_for_drawn_elements(elements):
    a, b, c = elements
    n = a.n
    # products are the exact cyclic convolution, coefficient by coefficient
    assert list((a * b).coeffs) == _conv_schoolbook(n, a.coeffs, b.coeffs)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert (a + b) + c == a + (b + c)
    # conj is an involution and a ring map, exactly on the coefficients
    assert a.conj().conj().coeffs == a.coeffs
    assert (a * b).conj().coeffs == (a.conj() * b.conj()).coeffs
    assert (a + b).conj().coeffs == (a.conj() + b.conj()).coeffs


def test_root_goldens():
    assert zeta(4) ** 2 == CycloInt.integer(4, -1)
    assert (zeta(3) + zeta(3, 2) + 1).is_zero
    two = zeta(2)
    assert two.is_scalar and two.as_int() == -1
    assert zeta(6, 3) == CycloInt.integer(1, -1)  # cross-ring equality
    assert zeta(8) ** 8 == CycloInt.integer(8, 1)
    # minimal polynomial of zeta_8: x^4 + 1
    assert (zeta(8) ** 4 + 1).is_zero


def test_cross_ring_arithmetic():
    # mixed orders land in the lcm ring
    s = zeta(3) + zeta(4)
    assert s.n == 12
    assert zeta(3).lift(12) == zeta(12, 4)
    assert CycloInt.integer(6, 5) == CycloInt.integer(15, 5)
    with pytest.raises(ValueError):
        zeta(4).lift(6)


@pytest.mark.parametrize("n", [1, 2, 3, 6, 12, 15, 30])
def test_times_root_matches_full_product(n):
    # coefficient vectors, not only canonical forms, must agree
    for a in sample_elements(n):
        for o in (1, 2, 3, 4, 5, 10, 12):
            for e in (0, 1, 2, o - 1, 2 * o + 3, -1):
                got = a.times_root(o, e)
                want = a * CycloInt.root(o, e)
                assert (got.n, got.coeffs) == (want.n, want.coeffs)


def test_scalar_detection():
    g = zeta(5) + zeta(5, 2) + zeta(5, 3) + zeta(5, 4)
    assert g.is_scalar and g.as_int() == -1
    with pytest.raises(ValueError):
        zeta(5).as_int()
    assert CycloInt.integer(7, 0).is_zero
    assert not zeta(7).is_zero


def test_support_terms():
    x = zeta(12, 4) * 2 - zeta(12, 3)
    assert dict(x.support_terms()) == {4: 2, 3: -1}
    # exponents outside the tensor basis get rewritten into it
    assert zeta(12, 1) == -zeta(12, 7)
    assert CycloInt.integer(9, 0).support_terms() == []


def test_constructor_validation():
    with pytest.raises(ValueError):
        CycloInt(0, [])
    with pytest.raises(ValueError):
        CycloInt(3, [1, 2])


@pytest.mark.parametrize("coeffs", [[1.5, 0], np.array([1.5, 0.0]),
                                    ["1", 0], np.array([[1, 0], [0, 1]])])
def test_constructor_refuses_non_integers(coeffs):
    # int() would truncate 1.5 to 1 and read "1" as 1; a 2-D array's rows
    # are not coefficients
    with pytest.raises(TypeError):
        CycloInt(2, coeffs)


def test_constructor_reads_arrays_as_python_ints():
    values = [3, -1, 0, 2 ** 40, -(2 ** 62)]
    for arr in (np.array(values, dtype=np.int64),
                np.array(values[:4], dtype=np.int64)[[0, 1, 2, 3]]):
        got = CycloInt(len(arr), arr).coeffs
        assert got == tuple(values[:len(arr)])
        assert all(type(c) is int for c in got)
    got = CycloInt(3, np.array([1, 2, 3], dtype=np.uint8)).coeffs
    assert got == (1, 2, 3) and all(type(c) is int for c in got)
    got = CycloInt(2, [np.int64(4), np.int32(-2)]).coeffs
    assert got == (4, -2) and all(type(c) is int for c in got)


# -- convolution paths --------------------------------------------------------


def naive_cyclic(n, a, b):
    out = [0] * n
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[(i + j) % n] += x * y
    return out


@pytest.mark.parametrize("n,scale", [
    (150, 1),          # 12-bit digits
    (150, 1 << 12),    # 36-bit digits
    (150, 1 << 24),    # 60-bit digits
    (131, 7),          # 18-bit digits, odd n
])
def test_large_ring_products_match_naive(n, scale):
    a = [((3 * i * i + 5 * i) % 17 - 8) * scale for i in range(n)]
    b = [((7 * i + 2) % 13 - 6) * scale for i in range(n)]
    want = CycloInt(n, naive_cyclic(n, a, b))
    assert CycloInt(n, a) * CycloInt(n, b) == want


def test_huge_coefficients_fall_back_exactly():
    # beyond any packing width; exercises the arbitrary-precision path
    v = 1 << 60
    big = CycloInt.integer(150, v)
    assert (big * big).as_int() == v * v
    x = zeta(150, 3) * v + 1
    assert x * x == zeta(150, 6) * (v * v) + zeta(150, 3) * (2 * v) + 1


def _bound_case(n, lim, signs):
    """Operands whose product bound is exactly lim, attained by every
    coefficient: a = +-1 everywhere and b a nonnegative vector of sum lim,
    so each cyclic coefficient is +-lim."""
    b = [lim // n + (j < lim % n) for j in range(n)]
    a = [1] * n
    if signs in ("a", "both"):
        a = [-1] * n
    if signs == "both":
        b = [-v for v in b]
    if signs == "alternating":  # even n: (-1)^i (-1)^(k-i) = (-1)^k
        a = [(-1) ** i for i in range(n)]
        b = [(-1) ** j * v for j, v in enumerate(b)]
    return a, b


@pytest.mark.parametrize("n,signs", [
    (n, signs) for n in (129, 256) for signs in ("none", "a", "both")
] + [(256, "alternating")])
@pytest.mark.parametrize("lim", [(1 << w) + d
                                 for w in (8, 15, 16, 31, 32, 61)
                                 for d in (-1, 0)]
                         + [(1 << 62) - 1, 1 << 62])
def test_products_at_the_digit_width_boundary(n, signs, lim):
    # lim = 2^w - 1 packs at w bits and 2^w at w + 1; a digit one bit too
    # narrow would carry into its neighbour.  At 2^62 the schoolbook
    # product takes over.
    a, b = _bound_case(n, lim, signs)
    got = _conv_cyclic(n, tuple(a), tuple(b))
    want = _conv_schoolbook(n, a, b)
    assert max(map(abs, want)) == lim
    assert list(got) == want
    assert (CycloInt(n, a) * CycloInt(n, b)).coeffs == tuple(want)


@pytest.mark.parametrize("big", [1 << 63, -(1 << 63), 1 << 70])
def test_coefficients_past_int64_fall_back_exactly(big):
    # 2^63 and 2^70 do not fit int64; -2^63 does, and its magnitude must
    # still read as 2^63, past the packing limit
    n = 129
    a = [big] + [0] * (n - 2) + [3]
    b = [(-1) ** j * (j % 5) for j in range(n)]
    got = _conv_cyclic(n, tuple(a), tuple(b))
    assert list(got) == _conv_schoolbook(n, a, b)


def test_bound_sums_past_uint64_stay_exact():
    # sum |a| = 2^64 wraps to 0 in uint64; the bound would then read 2^56
    # while every coefficient is 2^57, one bit too wide for its digit
    n = 256
    a, b = [1 << 56] * n, [1, 1] + [0] * (n - 2)
    got = _conv_cyclic(n, tuple(a), tuple(b))
    assert list(got) == _conv_schoolbook(n, a, b) == [1 << 57] * n


def test_zero_operand_products():
    z = CycloInt.integer(150, 0)
    assert (z * zeta(150, 9)).is_zero
    assert (zeta(150) * 0).is_zero


# -- characters ---------------------------------------------------------------


def test_mult_char_basics():
    F = get_field(3, 2)
    psi = MultChar(F, 2)
    assert psi.group_order == 8 and psi.order == 4
    g = F.alpha
    for i in range(8):
        x = F.pow(g, i)
        assert psi.dlog(x) == i
        assert psi.value(x) == zeta(4, (2 * i) % 8 // 2)
    # multiplicativity
    for i in range(8):
        for j in range(8):
            x, y = F.pow(g, i), F.pow(g, j)
            assert psi.value(F.mul(x, y)) == psi.value(x) * psi.value(y)
    with pytest.raises(ZeroDivisionError):
        psi.dlog(None)


def test_mult_char_subfield_and_minus_one():
    F = get_field(3, 4)
    psi = MultChar(F, 1, deg=2)
    assert psi.group_order == 8
    with pytest.raises(ValueError):
        psi.dlog(F.alpha)  # alpha generates F_81, not F_9
    # -1 = g^4 in F_9, so psi_j(-1) = (-1)^j
    assert MultChar(F, 1, deg=2).value_at_minus_one() == -1
    assert MultChar(F, 4, deg=2).value_at_minus_one() == 1  # -1 is a square
    assert MultChar(F, 0, deg=2).value_at_minus_one() == 1


def test_add_char_matches_trace():
    F = get_field(2, 4)
    chi = AddChar(F, scale=F.one)
    for x in F.elements():
        assert chi.exponent(x) == F.residue(F.trace(x, 4, 1))
        for y in F.elements():
            assert chi.value(F.add(x, y)) == chi.value(x) * chi.value(y)
    assert AddChar(F, scale=None).is_trivial
    assert not chi.is_trivial
    sub = AddChar(F, deg=2, scale=F.one)
    with pytest.raises(ValueError):
        sub.exponent(F.alpha)


# -- Gauss sums ---------------------------------------------------------------


def test_gauss_sum_goldens():
    F9 = get_field(3, 2)
    g = gauss_sum(F9, 2)  # order-4 character
    assert g.is_scalar and g.as_int() == -3
    h = gauss_sum(F9, 4)  # quadratic character
    assert h.is_scalar and h.as_int() == 3


def test_trivial_character_sums_to_minus_one():
    F = get_field(2, 3)
    assert gauss_sum(F, 0).as_int() == -1


@pytest.mark.parametrize("p,m", [(2, 2), (2, 4), (3, 2), (5, 1), (7, 1), (3, 3)])
def test_gauss_modulus(p, m):
    # |G(psi, chi)|^2 = p^m for every nontrivial psi
    F = get_field(p, m)
    r = p ** m
    for j in range(1, r - 1):
        g = gauss_sum(F, j)
        assert (g * g.conj()).as_int() == r


def test_gauss_complex_crosscheck():
    F = get_field(7, 1)
    for j in range(1, 6):
        g = gauss_sum(F, j)
        val = 0j
        env = cmath.exp(2j * cmath.pi / g.n)
        for e, c in g.support_terms():
            val += c * env ** e
        # same sum in floating point, over the table's own generator
        direct = sum(
            cmath.exp(2j * cmath.pi * (F.alpha_powers[i] / 7 + j * i / 6))
            for i in range(6)
        )
        assert abs(val - direct) < 1e-9


def test_subfield_gauss_matches_own_table():
    # over F_4 the order-3 Gauss sum is rational, so the embedded-subfield
    # route and an independent F_4 table must agree exactly
    big = get_field(2, 4)
    small = get_field(2, 2)
    emb = gauss_sum(big, 1, deg=2)
    own = gauss_sum(small, 1)
    assert (emb * emb.conj()).as_int() == 4
    assert emb == own


def _loop_gauss_coeffs(field, j, deg):
    # per-element summation over the subfield generator g = alpha^step,
    # with the additive character's own relative trace
    psi = MultChar(field, j, deg)
    chi = AddChar(field, deg, scale=field.one)
    o, p = psi.order, field.p
    n = p * o
    coeffs = [0] * n
    for i in range(psi.group_order):
        x = i * psi.step
        coeffs[(chi.exponent(x) * o + psi.exponent(x) * p) % n] += 1
    return coeffs


def _gauss_cases():
    # every proper subfield up to 2^12, whole fields up to 2^8; this holds
    # the p | m/deg cases (2,8,4), (2,12,6) and (3,9,3), where no scalar
    # of F_p has relative trace 1, and F_2, whose unit group is trivial
    fields = [(p, m) for p in (2, 3, 5, 7) for m in range(1, 13)
              if p ** m <= 1 << 12]
    fields += [(3, 9)]
    for p, m in fields:
        for deg in range(1, m + 1):
            if m % deg == 0 and (deg < m or p ** m <= 1 << 8):
                yield p, m, deg


@pytest.mark.parametrize("p,m,deg", list(_gauss_cases()),
                         ids=lambda v: str(v))
def test_gauss_sum_matches_element_loop(p, m, deg):
    field = get_field(p, m)
    order = p ** deg - 1
    js = {0, 1, 2, order // 2, order - 1, 5 * order // 7} & set(range(order))
    for j in sorted(js):
        g = gauss_sum(field, j, deg)
        assert list(g.coeffs) == _loop_gauss_coeffs(field, j, deg), (j, g)


def test_semiprimitive_closed_form():
    # F_4, order-3 character: j = 1, gamma = 1
    assert gauss_sum_semiprimitive(2, 3, 1) == gauss_sum(get_field(2, 2), 1).as_int()
    # F_9 order-4 character and its powers
    assert gauss_sum_semiprimitive(3, 4, 1) == -3
    assert gauss_sum_semiprimitive(3, 4, 1, s=2) == 3
    assert gauss_sum_semiprimitive(3, 4, 1, s=3) == -3
    assert gauss_sum_semiprimitive(2, 3, 2) == -4  # F_16, gamma = 2
    with pytest.raises(ValueError):
        gauss_sum_semiprimitive(2, 7, 1)  # 7 is not semiprimitive for 2
    with pytest.raises(ValueError):
        gauss_sum_semiprimitive(2, 3, 1, s=3)
    with pytest.raises(ValueError):
        gauss_sum_semiprimitive(3, 6, 1)  # order not coprime to p


def test_semiprimitive_matches_direct():
    # order 5 over F_81: 3^2 = -1 mod 5, so j = 2, gamma = 1, r = 3^4
    F = get_field(3, 4)
    jstep = 80 // 5
    for s in range(1, 5):
        g = gauss_sum(F, jstep * s)
        assert g.as_int() == gauss_sum_semiprimitive(3, 5, 1, s=s)


def test_davenport_hasse_in_tower():
    big = get_field(2, 6)
    for j in range(1, 7):  # characters of the F_8 level
        base = gauss_sum(big, j, deg=3)
        lifted = gauss_sum(big, lifted_char_index(8, 2, j))
        assert davenport_hasse_lift(base, 2) == lifted
    with pytest.raises(ValueError):
        davenport_hasse_lift(gauss_sum(big, 1), 0)


def test_quadratic_gauss_sum_lift():
    # G over F_9 for the quadratic character is the DH square of the
    # classical sum over F_3, which is sqrt(-3)
    F = get_field(3, 2)
    g3 = gauss_sum(F, 1, deg=1)
    assert (g3 * g3).as_int() == -3
    assert davenport_hasse_lift(g3, 2).as_int() == 3
    assert gauss_sum(F, 4).as_int() == 3  # the lift seen directly


# -- structured sums ----------------------------------------------------------


def test_monomial_sum_routes_agree():
    tower = TowerSpec(2, 1, 2, 4)
    F = tower.field()
    for b in [F.one, F.alpha, F.pow(F.alpha, 7)]:
        direct, via = monomial_char_sum(F, tower, b)
        assert direct == via
    with pytest.raises(ValueError):
        monomial_char_sum(F, tower, None)


def test_gauss_sums_and_commands_build_no_log_table(monkeypatch, capsys):
    built = []
    init = Field.__init__

    def spy(self, p, m):
        init(self, p, m)
        built.append(self)

    monkeypatch.setattr(Field, "__init__", spy)
    get_field.cache_clear()  # so that every field is built here
    for p, m, deg in ((2, 6, 6), (3, 4, 4), (2, 6, 3), (2, 8, 4),
                      (2, 12, 6), (3, 9, 3)):
        F = get_field(p, m)
        for j in (0, 1, 2):
            g = gauss_sum(F, j, deg=deg)
            assert g * g.conj() == (1 if j == 0 else p ** deg)
        assert MultChar(F, 1, deg).value_at_minus_one() in (1, -1)
    big = get_field(2, 6)
    assert davenport_hasse_lift(gauss_sum(big, 1, deg=3), 2) == \
        gauss_sum(big, lifted_char_index(8, 2, 1))
    tower = TowerSpec(2, 1, 3, 6)
    direct, via = monomial_char_sum(tower.field(), tower, 5)
    assert direct == via
    for check in (verify._check_trivial_gauss,
                  verify._check_gauss_conjugation, verify._check_lifts,
                  verify._check_monomial_sums):
        assert check().ok
    assert cli.main(["gauss", "--p", "3", "--e", "1", "--k", "4",
                     "--j", "5"]) == 0
    assert cli.main(["field", "--p", "2", "--e", "2", "--k", "5"]) == 0
    capsys.readouterr()
    assert built and all("_dlog" not in vars(F) for F in built)
    # the first addition builds the one log table of its field
    F = built[0]
    assert F.add(0, 1) == F.add(1, 0)
    table = F._dlog
    assert not table.flags.writeable
    assert [G for G in built if "_dlog" in vars(G)] == [F]
    F.add(2, 3)
    assert F._dlog is table


def test_unity_power_sums_closed_values():
    for q in (3, 5, 7, 9):
        for s in range(1, q + 1):
            if 2 * s == q + 1:
                continue
            odd, even = unity_power_sums(q, s)
            assert odd.is_zero
            assert even.as_int() == -1


def test_unity_power_sums_errors():
    with pytest.raises(ValueError):
        unity_power_sums(4, 1)
    with pytest.raises(ValueError):
        unity_power_sums(5, 3)  # s = (q+1)/2
    with pytest.raises(ValueError):
        unity_power_sums(5, 6)


# -- number-theory helpers ----------------------------------------------------


def test_factorize_and_phi():
    assert factorize(360) == [(2, 3), (3, 2), (5, 1)]
    assert factorize(1) == []
    assert euler_phi(1) == 1
    assert euler_phi(12) == 4
    assert euler_phi(97) == 96
