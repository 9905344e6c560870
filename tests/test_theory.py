"""Closed-form sums and distributions against direct-summation oracles."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from towercodes.codes import WeightDistribution, \
    brute_weight_distribution, build_defining_set, puncture, \
    zero_trace_counts
from towercodes.cyclotomic import CycloInt, MultChar, gauss_sum
from towercodes.field import Field, TowerSpec, get_field
from towercodes.theory import (
    TheoryReport,
    _convolved_periods,
    _floor_sub_sqrt,
    code_length,
    coset_of,
    coset_sum_counts,
    coset_sums,
    count_both_conditions,
    dist_binary_cubic,
    dist_nonzero_shift,
    dist_zero_shift_f2,
    dist_zero_shift_f2_punctured,
    dmin_bound_nonzero_shift,
    dmin_bound_zero_shift,
    dmin_bound_zero_shift_punctured,
    exp_sum_closed,
    exp_sum_direct,
    exp_sum_grouped,
    griesmer_min_length,
    griesmer_verdict,
    lambda_value_pairs_f2,
    predicted_distribution,
    quad_power_trace,
    secret_sharing_check,
    singleton_slack,
    walsh_spectrum,
    walsh_weight_distribution,
    weight_closed,
)
from towercodes.verify import grid_towers


# -- exponential sums: three routes, one answer -------------------------------


def test_delta_routes_agree_pointwise():
    tower = TowerSpec(2, 1, 2, 4)
    field = tower.field()
    ds = build_defining_set(tower, 0)
    zeros = zero_trace_counts(ds)
    grouped = exp_sum_grouped(ds, zeros)
    q, f, k = tower.q, tower.f, tower.k
    N = (q ** f - 1) // (q - 1)
    for b in field.nonzero():
        want = int(grouped[b])
        assert exp_sum_direct(field, tower, b, 0) == want
        assert exp_sum_closed(tower, 0, coset_of(tower, b)) == want
        # solution count of the paired conditions, rearranged
        lhs = q * q * (q ** f - 1) * count_both_conditions(tower, 0, b)
        rhs = q ** k * (q ** f - 1) + (q - 1) * (q ** f - q ** k) \
            + (q ** f - 1) * want
        assert lhs == rhs
    assert coset_of(tower, N + 2) == 2


def test_lambda_routes_agree_pointwise():
    tower = TowerSpec(2, 1, 2, 4)
    field = tower.field()
    ds = build_defining_set(tower, 1)
    grouped = exp_sum_grouped(ds)
    q, f, k = tower.q, tower.f, tower.k
    for b in field.nonzero():
        want = int(grouped[b])
        assert exp_sum_direct(field, tower, b, 1) == want
        assert exp_sum_closed(tower, 1, coset_of(tower, b)) == want
        lhs = q * q * (q ** f - 1) * count_both_conditions(tower, 1, b)
        rhs = q ** k * (q ** f - 1) + (q ** k - q ** f) \
            + (q ** f - 1) * want
        assert lhs == rhs


def test_lambda_collapses_to_minus_q_when_f_is_1():
    for spec in [(2, 1, 1, 3), (3, 1, 1, 3), (2, 2, 1, 2)]:
        tower = TowerSpec(*spec)
        assert tower.gcd_condition()
        for c in range(1):
            assert exp_sum_closed(tower, 1, c) == -tower.q


def test_gcd_violation_refuses_closed_form_only():
    tower = TowerSpec(3, 1, 1, 2)  # gcd(2, 2) = 2
    field = tower.field()
    with pytest.raises(ValueError, match="gcd"):
        exp_sum_closed(tower, 1, 0)
    with pytest.raises(ValueError, match="gcd"):
        weight_closed(tower, 1, 0)
    # the direct and grouped sums still exist
    ds = build_defining_set(tower, 1)
    grouped = exp_sum_grouped(ds)
    for b in field.nonzero():
        assert exp_sum_direct(field, tower, b, 1) == int(grouped[b])


def test_lambda_value_pairs_f2():
    for spec in [(2, 1, 2, 4), (3, 1, 2, 6)]:
        tower = TowerSpec(*spec)
        ds = build_defining_set(tower, 1)
        vals = exp_sum_grouped(ds)
        freq = {}
        for v in vals.tolist():
            freq[v] = freq.get(v, 0) + 1
        assert sorted(lambda_value_pairs_f2(tower)) == sorted(freq.items())
    with pytest.raises(ValueError):
        lambda_value_pairs_f2(TowerSpec(2, 1, 3, 6))


def _literal_coset_sums(tower):
    # N^2 ring products: T_c = sum_j psi_j(-1) G(psi_j)^(k/f-1) zeta_N^(-jc)
    field = tower.field()
    q, f, kf = tower.q, tower.f, tower.k // tower.f
    ef = tower.e * tower.f
    N = (q ** f - 1) // (q - 1)
    minus_one = field.neg(field.one)
    powers = []
    for j in range(1, N):
        psi = MultChar(field, j * (q - 1), deg=ef)
        g = gauss_sum(field, j * (q - 1), deg=ef)
        powers.append(g ** (kf - 1) * psi.value(minus_one))
    want = []
    for c in range(N):
        acc = CycloInt.integer(N * field.p, 0)
        for j in range(1, N):
            acc = acc + powers[j - 1] * CycloInt.root(N, (-j * c) % N)
        want.append(acc.as_int())
    return want


def test_coset_sums_shortcut_matches_generic_loop():
    # the edges of the convolution: k = f (no circulant product, r = 0)
    # redone the long way, and N = 1 at f = 1
    tower = TowerSpec(3, 1, 2, 2)
    assert list(coset_sums(tower)) == _literal_coset_sums(tower)
    assert coset_sums(TowerSpec(2, 1, 1, 3)) == (0,)


@pytest.mark.parametrize(
    "tower", [t for t in grid_towers(1 << 12) if t.k > t.f > 1],
    ids=lambda t: f"{t.p}-{t.e}-{t.f}-{t.k}")
def test_coset_sums_match_literal_products(tower):
    assert list(coset_sums(tower)) == _literal_coset_sums(tower)


_BRIDGE_TOWERS = [t for t in grid_towers(1 << 12) if t.k > t.f > 1] + [
    TowerSpec(2, 1, 8, 16), TowerSpec(3, 1, 5, 10), TowerSpec(5, 1, 4, 8),
    TowerSpec(2, 2, 4, 8), TowerSpec(2, 1, 9, 18), TowerSpec(2, 1, 10, 20)]


@pytest.mark.parametrize("tower", _BRIDGE_TOWERS,
                         ids=lambda t: f"{t.p}-{t.e}-{t.f}-{t.k}")
def test_gauss_sums_are_transforms_of_gaussian_periods(tower):
    # coset_sums rests on G(phi^j) = sum_c eta_c zeta_N^(jc), with
    # eta_c = q-1 where Tr_{q^f/q}(g^c) = 0 and -1 otherwise; the periods
    # come from the scalar trace, the Gauss sums by direct summation
    field = tower.field()
    q, ef = tower.q, tower.e * tower.f
    N = (q ** tower.f - 1) // (q - 1)
    step = field.subfield_exp(ef)
    eta = [q - 1 if field.trace(c * step, ef, tower.e) is None else -1
           for c in range(N)]
    for j in range(1, N):
        coeffs = [0] * N
        for c, v in enumerate(eta):
            coeffs[j * c % N] += v
        assert gauss_sum(field, j * (q - 1), deg=ef) == CycloInt(N, coeffs)


_SCALE_TOWERS = [t for t in grid_towers(1 << 16) if t.k > t.f > 1] + [
    TowerSpec(2, 1, 9, 18), TowerSpec(2, 1, 10, 20)]


@pytest.mark.parametrize("tower", _SCALE_TOWERS,
                         ids=lambda t: f"{t.p}-{t.e}-{t.f}-{t.k}")
def test_coset_sums_identities_at_scale(tower):
    # exact identities of every T vector, where the literal products are
    # out of reach: the j = 0 transform vanishes, Parseval with
    # |G|^2 = q^f, and T is constant on q-multiplication classes and on
    # p-multiplication classes, since G(phi^(pj)) = G(phi^j) for the
    # canonical additive character
    p, q, f, k = tower.p, tower.q, tower.f, tower.k
    N = (q ** f - 1) // (q - 1)
    T = coset_sums(tower)
    assert sum(T) == 0
    assert sum(t * t for t in T) == N * (N - 1) * q ** (k - f)
    assert all(T[q * c % N] == T[c] for c in range(N))
    assert all(T[p * c % N] == T[c] for c in range(N))


@pytest.mark.parametrize("tower", _SCALE_TOWERS,
                         ids=lambda t: f"{t.p}-{t.e}-{t.f}-{t.k}")
def test_middle_field_multiset_matches_embedded_sums(tower):
    # the two generators of F_{q^f}, the middle field's own and the one
    # embedded in F_{q^k}, give the same multiset of T
    assert dict(coset_sum_counts(tower)) == Counter(coset_sums(tower))


_SMALL_TOWERS = [t for t in grid_towers(1 << 10) if t.k > t.f > 1]


@settings(max_examples=60, deadline=None)
@given(tower=st.sampled_from(_SMALL_TOWERS), seed=st.integers(0, 1 << 30))
def test_multiset_is_generator_invariant(tower, seed):
    # the periods of g' = g^u, for a unit u mod q^f - 1, read from the
    # scalar trace, give the same multiset of T as g itself
    q, ef = tower.q, tower.e * tower.f
    field = get_field(tower.p, ef)
    M = field.mult_order
    units = [u for u in range(1, M) if np.gcd(u, M) == 1]
    u = units[seed % len(units)]
    N = M // (q - 1)
    sub = np.array([-1 if field.trace(u * c % M, ef, tower.e) is None
                    else 0 for c in range(N)])
    assert Counter(_convolved_periods(tower, sub)) == \
        dict(coset_sum_counts(tower))


# past the field budget at q^k: (tower, a, punctured, family display)
_PAST_BUDGET = [
    (TowerSpec(2, 1, 3, 60), 1, False, dist_binary_cubic(60)),
    (TowerSpec(2, 1, 2, 40), 0, False, dist_zero_shift_f2(2, 40)),
    (TowerSpec(2, 1, 2, 40), 0, True, dist_zero_shift_f2_punctured(2, 40)),
    (TowerSpec(3, 1, 2, 30), 0, False, dist_zero_shift_f2(3, 30)),
    (TowerSpec(3, 1, 2, 30), 0, True, dist_zero_shift_f2_punctured(3, 30)),
    (TowerSpec(2, 1, 2, 22), 1, False, dist_nonzero_shift(2, 2, 22)[0]),
    # (sum |eta|)^r = 3^49 > 2^62: the convolution runs on Python ints
    (TowerSpec(2, 1, 2, 100), 0, False, dist_zero_shift_f2(2, 100)),
]


@pytest.mark.parametrize(
    "tower, a_index, punctured, family", _PAST_BUDGET,
    ids=[f"{t.p}-{t.e}-{t.f}-{t.k}-a{a}{'-punct' if pu else ''}"
         for t, a, pu, _ in _PAST_BUDGET])
def test_predicted_past_the_top_field_budget(tower, a_index, punctured,
                                             family, monkeypatch):
    # the top field F_{q^k} is past the budget; only F_{q^f} may be built
    built = []
    init = Field.__init__

    def counting_init(self, p, m):
        built.append(p ** m)
        init(self, p, m)

    monkeypatch.setattr(Field, "__init__", counting_init)
    coset_sum_counts.cache_clear()
    assert predicted_distribution(tower, a_index, punctured) == family
    assert all(size <= tower.q ** tower.f for size in built)


@pytest.mark.parametrize(
    "tower", _SCALE_TOWERS + list(dict.fromkeys(t for t, *_ in _PAST_BUDGET)),
    ids=lambda t: f"{t.p}-{t.e}-{t.f}-{t.k}")
def test_middle_field_multiset_identities(tower):
    # sum T = 0 and sum T^2 = N(N-1)q^(k-f), on the middle field's T
    q, f, k = tower.q, tower.f, tower.k
    N = (q ** f - 1) // (q - 1)
    counts = coset_sum_counts(tower)
    assert sum(n for _, n in counts) == N
    assert sum(T * n for T, n in counts) == 0
    assert sum(T * T * n for T, n in counts) == N * (N - 1) * q ** (k - f)


# -- per-codeword weights ------------------------------------------------------


def test_weight_formulas_match_enumeration():
    tower = TowerSpec(2, 2, 2, 4)
    ds0 = build_defining_set(tower, 0)
    z0 = zero_trace_counts(ds0)
    ds1 = build_defining_set(tower, 1)
    z1 = zero_trace_counts(ds1)
    for s in tower.field().nonzero():
        assert weight_closed(tower, 0, s) == len(ds0) - int(z0[s % z0.size])
        assert weight_closed(tower, 1, s) == len(ds1) - int(z1[s % z1.size])


def test_weight_zero_shift_guard():
    with pytest.raises(ValueError, match="k > f > 1"):
        weight_closed(TowerSpec(2, 1, 1, 3), 0, 0)
    with pytest.raises(ValueError, match="k > f > 1"):
        weight_closed(TowerSpec(2, 1, 2, 2), 0, 0)


def test_code_length_matches_sets():
    for spec, a_index in [((2, 2, 2, 4), 0), ((2, 2, 2, 4), 1),
                          ((3, 1, 2, 6), 0), ((2, 1, 3, 6), 1),
                          ((2, 1, 1, 4), 1)]:
        tower = TowerSpec(*spec)
        assert code_length(tower, a_index) == \
            len(build_defining_set(tower, a_index))


# -- predicted and family distributions ----------------------------------------


def test_predicted_matches_brute():
    cases = [((2, 2, 2, 4), 0), ((3, 1, 2, 6), 0), ((2, 1, 2, 4), 1),
             ((2, 2, 2, 4), 1), ((2, 1, 3, 6), 1), ((2, 1, 1, 4), 1)]
    for spec, a_index in cases:
        tower = TowerSpec(*spec)
        brute = brute_weight_distribution(build_defining_set(tower, a_index))
        assert predicted_distribution(tower, a_index) == brute


def test_predicted_punctured():
    tower = TowerSpec(2, 2, 2, 4)
    brute = brute_weight_distribution(puncture(build_defining_set(tower, 0)))
    assert predicted_distribution(tower, 0, punctured=True) == brute
    with pytest.raises(ValueError):
        predicted_distribution(tower, 1, punctured=True)


def _per_coset_distribution(tower, a_index, punctured):
    # the literal route: one weight_closed call per coset c < N
    q, f, k = tower.q, tower.f, tower.k
    N = (q ** f - 1) // (q - 1)
    if punctured and a_index != 0:
        raise ValueError("puncturing requires the a = 0 code")
    scale = q - 1 if punctured else 1
    n_code = code_length(tower, a_index)
    if n_code % scale:
        raise ArithmeticError(f"{n_code} is not divisible by {scale}")
    counts = {0: 1}
    for c in range(N):
        w = weight_closed(tower, a_index, c)
        if w % scale:
            raise ArithmeticError(f"{w} is not divisible by {scale}")
        w //= scale
        if w <= 0:
            raise ArithmeticError("predicted weight must be positive")
        counts[w] = counts.get(w, 0) + (q ** k - 1) // N
    return WeightDistribution(n_code // scale, k, counts, q)


@pytest.mark.parametrize("tower", grid_towers(1 << 12),
                         ids=lambda t: f"{t.p}-{t.e}-{t.f}-{t.k}")
def test_predicted_matches_per_coset_weights(tower):
    # one pass over the distinct T_c gives the per-coset tally, and an
    # inapplicable tower raises the same error
    for a_index, punctured in ((0, False), (0, True), (1, False)):
        try:
            want = _per_coset_distribution(tower, a_index, punctured)
        except (ValueError, ArithmeticError) as exc:
            with pytest.raises(type(exc)) as got:
                predicted_distribution(tower, a_index, punctured=punctured)
            assert str(got.value) == str(exc)
        else:
            assert predicted_distribution(
                tower, a_index, punctured=punctured) == want


def test_family_f2_zero_shift():
    d = dist_zero_shift_f2(4, 4)
    assert d.params() == (51, 4, 36)
    assert d.pairs() == [(0, 1), (36, 204), (48, 51)]
    d = dist_zero_shift_f2(3, 6)
    assert d.params() == (182, 6, 108)
    assert d.pairs() == [(0, 1), (108, 182), (126, 546)]
    p = dist_zero_shift_f2_punctured(4, 4)
    assert p.params() == (17, 4, 12)
    assert p.pairs() == [(0, 1), (12, 204), (16, 51)]
    with pytest.raises(ValueError):
        dist_zero_shift_f2(4, 5)
    with pytest.raises(ValueError):
        dist_zero_shift_f2(4, 2)


def test_family_nonzero_shift():
    d, bound = dist_nonzero_shift(2, 2, 4)
    assert d.pairs() == [(0, 1), (4, 5), (6, 10)]
    assert bound == 4
    d, _ = dist_nonzero_shift(2, 2, 6)
    assert d.pairs() == [(0, 1), (20, 42), (24, 21)]
    d, _ = dist_nonzero_shift(4, 2, 4)
    assert d.pairs() == [(0, 1), (48, 51), (52, 204)]
    # f = 1 gives the one-weight family
    d, bound = dist_nonzero_shift(2, 1, 3)
    assert d.pairs() == [(0, 1), (4, 7)]
    assert d.params() == (7, 3, 4) and bound == 4
    # f >= 3: only the bound
    d, bound = dist_nonzero_shift(2, 3, 6)
    assert d is None and bound == 13
    with pytest.raises(ValueError):
        dist_nonzero_shift(3, 1, 2)  # gcd(2, 2) = 2
    with pytest.raises(ValueError):
        dist_nonzero_shift(2, 2, 5)


def test_quad_power_trace_against_exact_surd():
    # (1 + sqrt(-7))^m tracked as a + b sqrt(-7) with exact integers
    a, b = 1, 1
    for m in range(1, 13):
        assert quad_power_trace(m) == 2 * a
        a, b = a - 7 * b, a + b
    assert quad_power_trace(0) == 2
    with pytest.raises(ValueError):
        quad_power_trace(-1)


def test_binary_cubic_family():
    d = dist_binary_cubic(6)
    assert d.params() == (36, 6, 16)
    assert d.pairs() == [(0, 1), (16, 27), (20, 36)]
    # k = 9 against both the enumerator and the spectrum route
    tower = TowerSpec(2, 1, 3, 9)
    brute = brute_weight_distribution(build_defining_set(tower, 1))
    assert dist_binary_cubic(9) == brute
    assert walsh_weight_distribution(get_field(2, 9), 3) == brute
    with pytest.raises(ValueError):
        dist_binary_cubic(7)
    with pytest.raises(ValueError):
        dist_binary_cubic(3)


def test_walsh_spectrum_parseval():
    F = get_field(2, 6)
    spec = walsh_spectrum(F, 3)
    assert spec.shape == (63,)
    n = (2 ** 2) * (2 ** 6 - 1) // (2 ** 3 - 1)
    at_zero = 2 ** 6 - 2 * n
    assert at_zero ** 2 + int((spec.astype(object) ** 2).sum()) == 4 ** 6
    with pytest.raises(ValueError):
        walsh_spectrum(get_field(3, 2), 1)
    with pytest.raises(ValueError):
        walsh_spectrum(F, 4)


# -- bounds and verdicts --------------------------------------------------------


def test_distance_bounds_frozen():
    assert dmin_bound_zero_shift(4, 2, 4) == 28
    assert dmin_bound_nonzero_shift(2, 2, 4) == 4
    assert dmin_bound_zero_shift_punctured(4, 2, 4) == 9
    assert dmin_bound_zero_shift(2, 3, 6) == 8  # odd k + f, exact sqrt floor
    assert dmin_bound_nonzero_shift(2, 1, 3) == 4
    assert dmin_bound_nonzero_shift(2, 3, 9) == 132


def _old_punctured_bound(q, f, k):
    # the punctured bound's own expression, floored in one step
    den = q ** f - 1
    lead = q ** f - q
    if (k + f) % 2 == 0:
        return lead * (q ** (k - 2) - q ** ((k + f - 4) // 2)) // den
    return _floor_sub_sqrt(lead * q ** (k - 2),
                           lead * q ** ((k + f - 5) // 2), q, den)


def test_punctured_bound_is_full_bound_over_q_minus_1():
    for q in (2, 3, 4, 5, 7, 8, 9, 16, 25, 27, 32):
        for f in range(2, 10):
            for k in range(f + 1, 40):
                assert dmin_bound_zero_shift_punctured(q, f, k) == \
                    _old_punctured_bound(q, f, k), (q, f, k)


def test_bounds_hold_on_goldens():
    assert 36 >= dmin_bound_zero_shift(4, 2, 4)
    assert 108 >= dmin_bound_zero_shift(3, 2, 6)
    assert 4 >= dmin_bound_nonzero_shift(2, 2, 4)
    assert 48 >= dmin_bound_nonzero_shift(4, 2, 4)
    assert 16 >= dmin_bound_nonzero_shift(2, 3, 6)
    assert 12 >= dmin_bound_zero_shift_punctured(4, 2, 4)


def test_griesmer():
    assert griesmer_min_length(4, 4, 12) == 17
    assert griesmer_verdict(4, 17, 4, 12) == "optimal"
    # length exceeds the sum but no better distance fits
    assert griesmer_min_length(2, 4, 4) == 8
    assert griesmer_min_length(2, 4, 5) == 11  # rules out [10, 4, 5]
    assert griesmer_verdict(2, 10, 4, 4) == "optimal"
    assert griesmer_verdict(2, 42, 6, 20) == "optimal"
    assert griesmer_verdict(4, 68, 4, 48) == "unknown"
    assert griesmer_verdict(2, 6, 2, 3) == "almost_optimal_checked"
    with pytest.raises(ValueError):
        griesmer_verdict(2, 5, 4, 3)
    with pytest.raises(ValueError):
        griesmer_min_length(2, 0, 3)


def test_singleton_slack():
    assert singleton_slack(17, 4, 12) == 2
    assert singleton_slack(7, 3, 4) == 1
    assert singleton_slack(5, 4, 2) == 0  # MDS


def test_secret_sharing_check():
    full = dist_zero_shift_f2(4, 4)
    assert secret_sharing_check(full, 4) == (False, 36, 48)  # exact boundary
    assert secret_sharing_check(dist_zero_shift_f2(3, 6), 3) == \
        (True, 108, 126)
    d, _ = dist_nonzero_shift(2, 2, 4)
    assert secret_sharing_check(d, 2) == (True, 4, 6)
    from towercodes.codes import WeightDistribution
    with pytest.raises(ValueError):
        secret_sharing_check(WeightDistribution(5, 0, {0: 1}, 2), 2)


# -- report aggregation ----------------------------------------------------------


def test_report_applicable():
    tower = TowerSpec(2, 1, 2, 4)
    rep = TheoryReport(tower, 1)
    assert rep.applicable and rep.reason == ""
    brute = brute_weight_distribution(build_defining_set(tower, 1))
    assert rep.matches(brute) is True
    assert rep.bound == 4
    v = rep.verdicts(brute)
    assert v == {"griesmer_met": False, "griesmer_verdict": "optimal",
                 "singleton_slack": 3, "ss_ok": True,
                 "w_min": 4, "w_max": 6}


def test_report_not_applicable():
    rep = TheoryReport(TowerSpec(2, 1, 1, 3), 0)
    assert not rep.applicable and "k > f > 1" in rep.reason
    assert rep.predicted is None and rep.bound is None
    brute = brute_weight_distribution(build_defining_set(TowerSpec(2, 1, 1, 3),
                                                         1))
    assert rep.matches(brute) is None
    rep = TheoryReport(TowerSpec(5, 1, 2, 4), 1)
    assert not rep.applicable and "gcd" in rep.reason


def test_closed_forms_share_one_applicability_rule():
    # every closed form refuses exactly where the report says it does not
    # apply, with the report's reason as its message
    for spec in [(2, 1, 2, 4), (2, 1, 1, 3), (2, 1, 2, 2), (3, 1, 1, 2),
                 (5, 1, 2, 4), (3, 1, 2, 6)]:
        tower = TowerSpec(*spec)
        for a_index, closed in ((0, exp_sum_closed), (0, weight_closed),
                                (1, exp_sum_closed), (1, weight_closed),
                                (1, predicted_distribution)):
            rep = TheoryReport(tower, a_index)
            assert (rep.reason == "") == rep.applicable
            if a_index == 0:
                assert (rep.bound is None) == (not rep.applicable)
            # predicted_distribution takes the shift, the others the shift
            # and b = alpha^0
            args = (a_index,) if closed is predicted_distribution \
                else (a_index, 0)
            if rep.applicable:
                closed(tower, *args)
            else:
                with pytest.raises(ValueError) as exc:
                    closed(tower, *args)
                assert str(exc.value) == rep.reason
    assert TheoryReport(TowerSpec(2, 1, 1, 3), 0).reason == \
        "a = 0 closed forms need k > f > 1"
    assert TheoryReport(TowerSpec(5, 1, 2, 4), 1).reason == \
        "nonzero-a closed forms need gcd(k/f, q-1) = 1"


def test_report_punctured():
    rep = TheoryReport(TowerSpec(2, 2, 2, 4), 0, punctured=True)
    assert rep.applicable
    assert rep.bound == 9
    brute = brute_weight_distribution(
        puncture(build_defining_set(TowerSpec(2, 2, 2, 4), 0)))
    assert rep.matches(brute) is True
    assert rep.verdicts(brute)["griesmer_met"] is True


# -- shift invariance -------------------------------------------------------------


def test_nonzero_shifts_share_one_distribution():
    tower = TowerSpec(3, 1, 2, 2)
    field = tower.field()
    q, kf = tower.q, tower.k // tower.f
    M = field.mult_order
    sets = {a: build_defining_set(tower, a) for a in (1, 2)}
    dists = {a: brute_weight_distribution(sets[a]) for a in (1, 2)}
    assert dists[1] == dists[2]
    # pointwise, the zero-count arrays are rotations of each other:
    # D_{u^(k/f) a} = u D_a for the right subfield unit u
    z1 = zero_trace_counts(sets[1])
    z2 = zero_trace_counts(sets[2])
    u = next(t for t in range(0, M, M // (q - 1))
             if field.mul(field.pow(t, kf), sets[1].a) == sets[2].a)
    assert np.array_equal(z2, np.roll(z1, -u))
