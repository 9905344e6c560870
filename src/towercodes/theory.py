"""Closed-form weight distributions, exponential sums, bounds, and the
secret-sharing ratio test.

The central quantity is the coset sum

    T_c = sum_{j=1}^{N-1} phi^j(-1) G(phi^j, chi_1)^(k/f - 1) zeta_N^(-jc)

over the subfield F_{q^f}, where N = (q^f-1)/(q-1) and phi is the
multiplicative character of order N with phi(g) = zeta_N for the fixed
subfield generator g.  T_c is a rational integer (the Galois group fixes
it) and depends on b = alpha^s only through c = s mod N.

Every weight comes from one character sum, for a shift a in F_q,

    S_a(b) = sum_{y,z in F_q^*} sum_{x in F_{q^k}}
                 chi(a y) chi_1(y x^L) chi_2(z b x),   L = (q^k-1)/(q^f-1),

the paper's Delta(b) at a = 0 and Lambda(b) otherwise.  It is affine in T_c,

    S_a(b) = q^f (q-1) epsilon (1 + sgn T_c) / (q^f - 1),
    epsilon = sum_{y in F_q^*} chi(a y) = q-1 at a = 0, -1 otherwise,

and so are both weight formulas:

    a = 0:   w(c_b) = [(q-1) q^(k-2) (q^f-q) - sgn q^(f-2) (q-1)^2 T_c] / (q^f-1)
    a != 0:  w(c_b) = [(q-1) q^(f+k-2)      + sgn (q-1) q^(f-2) T_c] / (q^f-1)

with sgn = (-1)^(k/f - 1).  T_c is computed exactly, so these hold for
every f, not only the semi-primitive cases.

coset_sums forms no Gauss sum.  phi^j(-1) = 1, since -1 lies in F_q^*,
where phi is trivial, and x = g^(c + Nt) splits each Gauss sum into
G(phi^j) = sum_c eta_c zeta_N^(jc) over the integer Gaussian periods
eta_c = q-1 if Tr_{q^f/q}(g^c) = 0, else -1.  By the convolution theorem
T_c = N (eta^{*r})[c] - (-1)^r, r = k/f - 1, where eta^{*r} is the r-fold
cyclic convolution over Z/N and (-1)^r = (sum_c eta_c)^r is the j = 0
term: r - 1 cyclic convolutions of length N, O(r N^2) integer work in
O(N) memory.  The literal Gauss-sum products stay in the tests as its oracle.

The predicted distributions need only the multiset of T_c, and that needs
only F_{q^f}, never F_{q^k}: coset_sum_counts reads the periods of the
middle field's own generator off its trace sequence, with no field table.
Tr(g^(c + Nt)) = g^(Nt) Tr(g^c) with g^(Nt) in F_q^*, so eta_c depends on
c mod N only, and another generator g' = g^u, gcd(u, q^f - 1) = 1, has
the periods eta'_c = eta_(uc mod N) with u prime to N.  Cyclic
convolution commutes with the relabelling c -> uc, and the periods do not
depend on how F_{q^f} is built, so the multiset of T is the same for
every generator.  coset_sums keeps the generator embedded in F_{q^k},
whose index c = s mod N the per-codeword formulas need, and reads its
periods off the relative trace codes of F_{q^k}'s trace sequence, again
with no field table; it is the oracle for coset_sum_counts.

S_a(b) has one function per route, each taking the shift: exp_sum_direct,
the literal triple sum over (x, y, z) for small fields; exp_sum_grouped,
an exact rearrangement through the zero-trace counts that scales to the
full test grid; and exp_sum_closed, the formula above.  The regime is read
off a_index inside each.
"""

from collections import Counter
from functools import lru_cache
from math import gcd, isqrt
from typing import Dict, List, Optional, Tuple

import numpy as np

from .field import (Element, Field, TowerSpec, relative_trace_codes,
                    trace_zero_indicator)
from .codes import DefiningSet, WeightDistribution, zero_trace_counts
from .cyclotomic import CycloInt


def _exact_div(num: int, den: int) -> int:
    if num % den:
        raise ArithmeticError(f"{num} is not divisible by {den}")
    return num // den


# ---------------------------------------------------------------------------
# the coset sums T_c
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def coset_sums(tower: TowerSpec) -> Tuple[int, ...]:
    """T_c for c = 0 .. N-1, N = (q^f-1)/(q-1), as exact integers, indexed
    by the generator of F_{q^f} embedded in F_{q^k}: c_b, b = alpha^s,
    reads T_(s mod N).  The periods come from the relative trace codes of
    the top field's trace sequence, with no field table; the predicted
    distributions need only coset_sum_counts."""
    ef = tower.e * tower.f
    return _convolved_periods(tower, relative_trace_codes(
        tower.p, tower.m, ef, tower.e) == 0)


@lru_cache(maxsize=None)
def coset_sum_counts(tower: TowerSpec) -> Tuple[Tuple[int, int], ...]:
    """The multiset of T_c as (T, number of cosets c) pairs, from the
    periods of F_{q^f}'s own generator: the zero indicator of
    Tr_{q^f/q}(alpha^c), read off the trace sequence of F_{q^f}.  No field
    table is built, and no part of F_{q^k}.  Distinct T come in their
    first-seen order along that generator."""
    ef = tower.e * tower.f
    return tuple(Counter(_convolved_periods(
        tower, trace_zero_indicator(tower.p, ef, tower.e))).items())


def _convolved_periods(tower: TowerSpec, zero: np.ndarray) -> Tuple[int, ...]:
    """T_c = N (eta^{*r})[c] - (-1)^r for c < N, where zero[c] is true
    where Tr_{q^f/q}(g^c) vanishes."""
    q = tower.q
    N = (q ** tower.f - 1) // (q - 1)
    r = tower.k // tower.f - 1
    # the Gaussian periods eta_c, c < N, of the generator g
    eta = np.where(zero[:N], q - 1, -1)
    # |eta^{*r}| <= (sum |eta|)^r entrywise, so int64 also holds N eta^{*r}
    exact = np.int64 if N * int(np.abs(eta).sum()) ** r < 1 << 62 else object
    eta = eta.astype(exact)
    # eta^{*0} is the unit impulse at 0, eta^{*1} is eta itself
    u = eta if r else (np.arange(N) == 0).astype(exact)
    for _ in range(r - 1):
        # cyclic convolution over Z/N: fold the linear one at N
        full = np.convolve(eta, u)
        u = full[:N].copy()
        u[:N - 1] += full[N:]
    return tuple((N * u - _sign(tower)).tolist())


def _sign(tower: TowerSpec) -> int:
    return -1 if (tower.k // tower.f) % 2 == 0 else 1


def coset_of(tower: TowerSpec, b: Element) -> int:
    """c = s mod N for b = alpha^s; the weight of c_b depends only on c."""
    if b is None:
        raise ValueError("b must be nonzero")
    q, f = tower.q, tower.f
    N = (q ** f - 1) // (q - 1)
    return b % N


# ---------------------------------------------------------------------------
# per-codeword weights and predicted distributions (exact Gauss sums)
# ---------------------------------------------------------------------------


def _check_formula(tower: TowerSpec, a_index: int) -> None:
    """Where the closed forms apply; every closed form asks this."""
    if a_index == 0:
        if not tower.k > tower.f > 1:
            raise ValueError("a = 0 closed forms need k > f > 1")
    elif not tower.gcd_condition():
        raise ValueError("nonzero-a closed forms need gcd(k/f, q-1) = 1")


def _weight_from_sum(tower: TowerSpec, a_index: int, T: int) -> int:
    """The weight of every c_b whose coset sum is T (formulas above)."""
    q, f, k = tower.q, tower.f, tower.k
    if a_index == 0:
        num = (q - 1) * q ** (k - 2) * (q ** f - q) \
            - _sign(tower) * q ** (f - 2) * (q - 1) ** 2 * T
    else:
        num = (q - 1) * q ** (f + k - 2)
        if T:  # T = 0 whenever f = 1, where q^(f-2) is not an integer
            num += _sign(tower) * (q - 1) * q ** (f - 2) * T
    return _exact_div(num, q ** f - 1)


def weight_closed(tower: TowerSpec, a_index: int, b: Element) -> int:
    """Weight of c_b in the code of shift a_index, from the coset sum."""
    _check_formula(tower, a_index)
    return _weight_from_sum(tower, a_index,
                            coset_sums(tower)[coset_of(tower, b)])


def predicted_distribution(tower: TowerSpec, a_index: int,
                           punctured: bool = False) -> WeightDistribution:
    """Weight distribution from the coset sums alone (no enumeration).

    Covers every f: a_index = 0 needs k > f > 1, nonzero a_index needs
    gcd(k/f, q-1) = 1.  Each coset c contributes (q^k-1)/N words of the
    same weight, so each distinct T_c is weighed once, with its count.
    The multiset of T_c does not depend on the generator of F_{q^f}, so
    only F_{q^f} is built: the field budget bounds q^f, not q^k.
    """
    q, f, k = tower.q, tower.f, tower.k
    N = (q ** f - 1) // (q - 1)
    per_coset = (q ** k - 1) // N
    counts: Dict[int, int] = {0: 1}
    scale = q - 1 if punctured else 1
    if punctured and a_index != 0:
        raise ValueError("puncturing requires the a = 0 code")
    n_code = code_length(tower, a_index)
    if punctured:
        n_code = _exact_div(n_code, q - 1)
    _check_formula(tower, a_index)
    # first-seen order along F_{q^f}'s own generator: a bad T raises
    # where its first coset would
    for T, cosets in coset_sum_counts(tower):
        w = _weight_from_sum(tower, a_index, T)
        w = _exact_div(w, scale) if scale > 1 else w
        if w <= 0:
            raise ArithmeticError("predicted weight must be positive")
        counts[w] = counts.get(w, 0) + per_coset * cosets
    return WeightDistribution(n_code, k, counts, q)


def code_length(tower: TowerSpec, a_index: int) -> int:
    q, f, k = tower.q, tower.f, tower.k
    if a_index == 0:
        return _exact_div((q ** k - 1) * (q ** f - q), q * (q ** f - 1))
    return _exact_div(q ** (f - 1) * (q ** k - 1), q ** f - 1)


# ---------------------------------------------------------------------------
# exponential sums: literal, grouped, closed
# ---------------------------------------------------------------------------


def shift_char_sum(tower: TowerSpec, a_index: int) -> int:
    """epsilon = sum_{y in F_q^*} chi(a y): q - 1 at a = 0, where
    chi(a y) = 1, and -1 otherwise."""
    return tower.q - 1 if a_index == 0 else -1


def exp_sum_direct(field: Field, tower: TowerSpec, b: Element,
                   a_index: int) -> int:
    """S_a(b) by literal triple summation (oracle for the closed form):
    the sum over y, z in F_q^* and x in F_{q^k} of chi(a y)
    chi_1(y x^((q^k-1)/(q^f-1))) chi_2(z b x), in Z[zeta_p].  It is the
    paper's Delta(b) at a = 0, where chi(a y) = 1, and Lambda(b) otherwise."""
    p = field.p
    q = tower.q
    M = field.mult_order
    a = field.subfield_element_from_index(a_index, tower.e)
    tr_top = field.abs_trace_residues()
    # chi_1 over F_{q^f}, tabulated against the subfield generator g:
    # x = alpha^u gives x^L = g^u, and y = alpha^(i ystep) is g^(iN).
    # Tr_{q^f/p}(g^i) comes from the subfield trace table, independent of
    # gauss_sum, as a residue.
    sub = field.trace_exp_subtable(tower.e * tower.f, 1).tolist()
    sub_res = np.array([field.residue(None if t < 0 else t) for t in sub])
    qf1 = q ** tower.f - 1
    N = qf1 // (q - 1)
    ystep = field.subfield_exp(tower.e)
    coeffs = np.zeros(p, dtype=np.int64)
    u = np.arange(M, dtype=np.int64)
    for i in range(q - 1):
        y = i * ystep
        ay = field.residue(field.trace(field.mul(a, y), tower.e, 1))
        chi1 = sub_res[(i * N + u) % qf1]
        base = (ay + chi1) % p
        for j in range(q - 1):
            chi2 = tr_top[(b + j * ystep + u) % M]
            coeffs += np.bincount((base + chi2) % p, minlength=p)
        # x = 0 term: chi_1(0) chi_2(0) = 1 with the chi(a y) factor
        coeffs[ay] += q - 1
    return CycloInt(p, coeffs.tolist()).as_int()


def exp_sum_grouped(ds: DefiningSet, zeros: Optional[np.ndarray] = None
                    ) -> np.ndarray:
    """S_a(alpha^s) for all s at once, via character orthogonality, in the
    regime of ds.a_index: Delta or Lambda.

    Collapsing the y and z sums gives S_a(b) = q^2 Z_b - q n + [a = 0]
    q(q-1), where Z_b counts the zero trace coordinates of c_b; exact
    integers, Z_(alpha^s) read from the period `zeros` at s mod g.
    """
    q = ds.tower.q
    n = len(ds)
    Z = zero_trace_counts(ds) if zeros is None else zeros
    Z = Z[np.arange(q ** ds.tower.k - 1) % Z.size]
    return q * q * Z - q * n + (q * (q - 1) if ds.a_index == 0 else 0)


def exp_sum_closed(tower: TowerSpec, a_index: int, b: Element) -> int:
    """Closed form of S_a(b): q^f (q-1) epsilon (1 + sgn T_c) / (q^f - 1),
    so Delta = q^f (q-1)^2 (1 + sgn T_c) / (q^f - 1) and
    Lambda = -q^f (q-1) (1 + sgn T_c) / (q^f - 1), the constant -q when
    f = 1."""
    _check_formula(tower, a_index)
    q, f = tower.q, tower.f
    T = coset_sums(tower)[coset_of(tower, b)]
    return _exact_div(q ** f * (q - 1) * shift_char_sum(tower, a_index)
                      * (1 + _sign(tower) * T), q ** f - 1)


def count_both_conditions(tower: TowerSpec, a_index: int, b: Element) -> int:
    """Exhaustive N_b = |{x : defining condition and Tr(bx) = 0}|."""
    field = tower.field()
    M = field.mult_order
    ef = tower.e * tower.f
    a = field.subfield_element_from_index(a_index, tower.e)
    target = -1 if a is None else field.neg(a)  # -1: the tables' zero
    sub = field.trace_exp_subtable(ef, tower.e)
    z = field.trace_zero_indicator(tower.e)
    qf1 = tower.q ** tower.f - 1
    count = 0
    if a_index == 0:
        count += 1  # x = 0 satisfies both when a = 0
    for s in range(M):
        if sub[s % qf1] == target and z[(b + s) % M]:
            count += 1
    return count


def lambda_value_pairs_f2(tower: TowerSpec) -> List[Tuple[int, int]]:
    """The two (value, frequency) rows of Lambda(b) when f = 2."""
    if tower.f != 2:
        raise ValueError("this distribution is specific to f = 2")
    if not tower.gcd_condition():
        raise ValueError("needs gcd(k/2, q-1) = 1")
    q, k = tower.q, tower.k
    h = k // 2
    sign = 1 if h % 2 == 0 else -1
    v1 = _exact_div(-q ** 2 + sign * q ** (h + 2), q + 1)
    v2 = _exact_div(-q ** 2 - sign * q ** (h + 1), q + 1)
    return [(v1, _exact_div(q ** k - 1, q + 1)),
            (v2, _exact_div(q * (q ** k - 1), q + 1))]


# ---------------------------------------------------------------------------
# family distributions (specialized closed displays)
# ---------------------------------------------------------------------------


def _two_weight(n: int, k: int, q: int,
                rows: List[Tuple[int, int]]) -> WeightDistribution:
    counts: Dict[int, int] = {0: 1}
    for w, c in rows:
        counts[w] = counts.get(w, 0) + c
    return WeightDistribution(n, k, counts, q)


def dist_zero_shift_f2(q: int, k: int) -> WeightDistribution:
    """Two-weight distribution of the a = 0, f = 2 code (cyclic-equivalent)."""
    if k % 2 or k <= 2:
        raise ValueError("needs even k > 2")
    n = _exact_div(q ** k - 1, q + 1)
    h = k // 2
    if k % 4 == 0:
        lo = _exact_div((q - 1) * (q ** (k - 1) - q ** (h - 1)), q + 1)
        hi = _exact_div((q - 1) * (q ** (k - 1) + q ** h), q + 1)
        rows = [(lo, _exact_div(q * (q ** k - 1), q + 1)),
                (hi, _exact_div(q ** k - 1, q + 1))]
    else:
        lo = _exact_div((q - 1) * (q ** (k - 1) - q ** h), q + 1)
        hi = _exact_div((q - 1) * (q ** (k - 1) + q ** (h - 1)), q + 1)
        rows = [(lo, _exact_div(q ** k - 1, q + 1)),
                (hi, _exact_div(q * (q ** k - 1), q + 1))]
    return _two_weight(n, k, q, rows)


def dist_zero_shift_f2_punctured(q: int, k: int) -> WeightDistribution:
    """The punctured companion: weights shrink by q - 1, length by q - 1."""
    full = dist_zero_shift_f2(q, k)
    n = _exact_div(q ** k - 1, q ** 2 - 1)
    counts = {0: 1}
    for w, c in full.counts.items():
        if w:
            counts[_exact_div(w, q - 1)] = c
    return WeightDistribution(n, k, counts, q)


def dist_nonzero_shift(q: int, f: int, k: int
                       ) -> Tuple[Optional[WeightDistribution], int]:
    """Closed nonzero-shift distribution for f in {1, 2} plus the general
    distance lower bound; for f >= 3 the distribution slot is None."""
    if k % f:
        raise ValueError(f"f={f} must divide k={k}")
    if gcd(k // f, q - 1) != 1:
        raise ValueError("needs gcd(k/f, q-1) = 1")
    bound = dmin_bound_nonzero_shift(q, f, k)
    if f == 1:
        n = _exact_div(q ** k - 1, q - 1)
        dist = WeightDistribution(n, k, {0: 1, q ** (k - 1): q ** k - 1}, q)
        return dist, bound
    if f == 2:
        n = _exact_div(q * (q ** k - 1), q ** 2 - 1)
        h = k // 2
        if k % 4 == 0:
            lo = _exact_div(q ** k - q ** h, q + 1)
            hi = _exact_div(q ** k + q ** (h - 1), q + 1)
            rows = [(lo, _exact_div(q ** k - 1, q + 1)),
                    (hi, _exact_div(q * (q ** k - 1), q + 1))]
        else:
            lo = _exact_div(q ** k - q ** (h - 1), q + 1)
            hi = _exact_div(q ** k + q ** h, q + 1)
            rows = [(lo, _exact_div(q * (q ** k - 1), q + 1)),
                    (hi, _exact_div(q ** k - 1, q + 1))]
        return _two_weight(n, k, q, rows), bound
    return None, bound


def quad_power_trace(m: int) -> int:
    """Trace (twice the real part) of (1 + sqrt(-7))^m, by the recurrence
    from its minimal polynomial z^2 - 2z + 8."""
    if m < 0:
        raise ValueError("power must be nonnegative")
    s_prev, s_cur = 2, 2
    if m == 0:
        return 2
    for _ in range(m - 1):
        s_prev, s_cur = s_cur, 2 * s_cur - 8 * s_prev
    return s_cur


def dist_binary_cubic(k: int) -> WeightDistribution:
    """Three-weight family at q = 2, f = 3 (weights may coincide and merge)."""
    if k % 3 or k <= 3:
        raise ValueError("needs 3 | k and k > 3")
    m = k // 3
    n = _exact_div(4 * (2 ** k - 1), 7)
    base = _exact_div(2 ** k - 1, 7)
    rows = [
        (_exact_div(2 ** (k + 1) + 6 * quad_power_trace(m - 1), 7), base),
        (_exact_div(2 ** (k + 1) - 8 * quad_power_trace(m - 2), 7), 3 * base),
        (_exact_div(2 ** (k + 1) - quad_power_trace(m), 7), 3 * base),
    ]
    return _two_weight(n, k, 2, rows)


# ---------------------------------------------------------------------------
# Walsh-spectrum route (q = p = 2)
# ---------------------------------------------------------------------------


def walsh_spectrum(field: Field, f: int) -> np.ndarray:
    """Spectrum of g(x) = Tr_{2^f/2}(x^((2^k-1)/(2^f-1))) at every
    omega = alpha^t, t = 0 .. 2^k - 2; exact int64."""
    if field.p != 2:
        raise ValueError("Walsh spectra are for binary fields")
    k = field.m
    if k % f:
        raise ValueError(f"f={f} must divide k={k}")
    M = field.mult_order
    # g(alpha^s) = 1 where the trace of g^(s mod 2^f - 1) is nonzero
    g = np.tile(field.trace_exp_subtable(f, 1) >= 0, M // (2 ** f - 1))
    u = 1 - 2 * g
    v = 2 * field.trace_zero_indicator(1).astype(np.int64) - 1
    corr = np.convolve(u[::-1], np.concatenate([v, v]))[M - 1:2 * M - 1]
    return 1 + corr  # the x = 0 term contributes (+1) to every omega


def walsh_weight_distribution(field: Field, f: int) -> WeightDistribution:
    """Weights (2n + spectrum)/4 over omega != 0, for the a = 1 code."""
    k = field.m
    spectrum = walsh_spectrum(field, f)
    n = _exact_div(2 ** (f - 1) * (2 ** k - 1), 2 ** f - 1)
    counts: Dict[int, int] = {0: 1}
    for s in spectrum.tolist():
        w = _exact_div(2 * n + s, 4)
        counts[w] = counts.get(w, 0) + 1
    if counts.get(0, 1) != 1:
        raise ArithmeticError("unexpected zero weights in the spectrum route")
    return WeightDistribution(n, k, counts, 2)


# ---------------------------------------------------------------------------
# bounds and the secret-sharing test
# ---------------------------------------------------------------------------


def griesmer_min_length(q: int, l: int, d: int) -> int:
    """The Griesmer sum: least length allowed for a [n, l, d] code."""
    if l < 1 or d < 1:
        raise ValueError("need l >= 1 and d >= 1")
    return sum((d + q ** i - 1) // q ** i for i in range(l))


def griesmer_verdict(q: int, n: int, l: int, d: int) -> str:
    """optimal | almost_optimal_checked | unknown, from the Griesmer sum.

    "optimal" means n meets the sum, or no [n, l, d+1] code can exist;
    "almost_optimal_checked" means no [n, l, d+2] code can exist.  The
    sum is only a necessary condition, so anything else stays unknown.
    """
    need = griesmer_min_length(q, l, d)
    if n < need:
        raise ValueError(f"[{n},{l},{d}] violates the Griesmer bound")
    if n == need or griesmer_min_length(q, l, d + 1) > n:
        return "optimal"
    if griesmer_min_length(q, l, d + 2) > n:
        return "almost_optimal_checked"
    return "unknown"


def singleton_slack(n: int, l: int, d: int) -> int:
    return n - l - d + 1


def _floor_sub_sqrt(A: int, B: int, q: int, den: int) -> int:
    """floor((A - B sqrt(q)) / den) for nonnegative integers, exactly."""
    if B == 0:
        return A // den
    t = isqrt(B * B * q)  # t <= B sqrt(q) < t + 1
    w = (A - t) // den
    while A - w * den < 0 or (A - w * den) ** 2 < B * B * q:
        w -= 1
    return w


def dmin_bound_zero_shift(q: int, f: int, k: int) -> int:
    """Distance lower bound of the a = 0 family, floored exactly."""
    den = q ** f - 1
    lead = (q - 1) * (q ** f - q)
    if (k + f) % 2 == 0:
        return lead * (q ** (k - 2) - q ** ((k + f - 4) // 2)) // den
    return _floor_sub_sqrt(lead * q ** (k - 2),
                           lead * q ** ((k + f - 5) // 2), q, den)


def dmin_bound_nonzero_shift(q: int, f: int, k: int) -> int:
    """Distance lower bound of the nonzero-a family, floored exactly."""
    den = q ** f - 1
    A = (q - 1) * q ** (f + k - 2)
    if f == 1:
        return A // den
    if (k + f) % 2 == 0:
        return (A - (q ** f - q) * q ** ((k + f - 4) // 2)) // den
    return _floor_sub_sqrt(A, (q ** f - q) * q ** ((k + f - 5) // 2), q, den)


def secret_sharing_check(dist: WeightDistribution, q: int
                         ) -> Tuple[bool, int, int]:
    """Strict test w_min/w_max > (q-1)/q by integer cross-multiplication."""
    weights = [w for w, c in dist.counts.items() if w > 0 and c > 0]
    if not weights:
        raise ValueError("zero code has no weight ratio")
    w_min, w_max = min(weights), max(weights)
    return w_min * q > w_max * (q - 1), w_min, w_max


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------


class TheoryReport:
    """Applicability, predicted distribution, and bound verdicts for one
    parameter tuple."""

    def __init__(self, tower: TowerSpec, a_index: int,
                 punctured: bool = False):
        self.tower = tower
        self.a_index = a_index
        self.punctured = punctured
        self.applicable, self.reason = self._applicability()
        self.predicted: Optional[WeightDistribution] = None
        if self.applicable:
            self.predicted = predicted_distribution(tower, a_index,
                                                    punctured=punctured)
        self.bound = self._bound()

    def _applicability(self) -> Tuple[bool, str]:
        try:
            _check_formula(self.tower, self.a_index)
        except ValueError as exc:
            return False, str(exc)
        return True, ""

    def _bound(self) -> Optional[int]:
        t = self.tower
        if self.a_index == 0:
            if not self.applicable:
                return None
            if self.punctured:
                return dmin_bound_zero_shift_punctured(t.q, t.f, t.k)
            return dmin_bound_zero_shift(t.q, t.f, t.k)
        return dmin_bound_nonzero_shift(t.q, t.f, t.k)

    def verdicts(self, brute: WeightDistribution) -> Dict[str, object]:
        """Bound facts computed from an actual distribution."""
        n, dim, d = brute.params()
        need = griesmer_min_length(self.tower.q, dim, d)
        ok, w_min, w_max = secret_sharing_check(brute, self.tower.q)
        return {
            "griesmer_met": n == need,
            "griesmer_verdict": griesmer_verdict(self.tower.q, n, dim, d),
            "singleton_slack": singleton_slack(n, dim, d),
            "ss_ok": ok,
            "w_min": w_min,
            "w_max": w_max,
        }

    def matches(self, brute: WeightDistribution) -> Optional[bool]:
        if self.predicted is None:
            return None
        return self.predicted == brute


def dmin_bound_zero_shift_punctured(q: int, f: int, k: int) -> int:
    """The punctured companion bound: (q^f-q)(q^(k-2)-q^((k+f-4)/2))/(q^f-1),
    floored.  It is the full bound over q - 1, and floor(floor(z)/c) =
    floor(z/c) for a positive integer c, so flooring twice is exact."""
    return dmin_bound_zero_shift(q, f, k) // (q - 1)
