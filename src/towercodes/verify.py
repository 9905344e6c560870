"""Self-check suites: worked examples with frozen expectations, character
and Gauss-sum identities, and a sweep comparing the closed-form weight
distributions against exhaustive enumeration on every admissible tuple
up to a field-size budget.

Each suite returns a list of CheckResult; nothing is asserted here, so
the CLI and the tests can both render or gate on the same facts.
"""

from collections import Counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .codes import (WeightDistribution, brute_weight_distribution,
                    build_defining_set, puncture, zero_trace_counts)
from .cyclotomic import (AddChar, MultChar, davenport_hasse_lift,
                         gauss_sum, gauss_sum_semiprimitive,
                         lifted_char_index, monomial_char_sum,
                         semiprimitive_exponent, unity_power_sums)
from .field import TowerSpec, get_field, is_prime, trace_zero_indicator
from . import theory


class CheckResult:
    """One named pass/fail fact with a short human-readable detail."""

    def __init__(self, name: str, ok: bool, detail: str = ""):
        self.name = name
        self.ok = ok
        self.detail = detail

    def __repr__(self):
        return f"CheckResult({self.name!r}, ok={self.ok}, {self.detail!r})"


class _Tally:
    """Folds many per-case comparisons into a single CheckResult."""

    def __init__(self, name: str):
        self.name = name
        self.cases = 0
        self.failures: List[str] = []

    def record(self, ok: bool, label: str):
        self.cases += 1
        if not ok:
            self.failures.append(label)

    def result(self) -> CheckResult:
        if self.failures:
            detail = (f"{len(self.failures)}/{self.cases} failed, "
                      f"first: {self.failures[0]}")
            return CheckResult(self.name, False, detail)
        return CheckResult(self.name, True, f"{self.cases} cases")


def _golden(n: int, dim: int, q: int,
            rows: Sequence[Tuple[int, int]]) -> WeightDistribution:
    counts = {0: 1}
    counts.update(dict(rows))
    return WeightDistribution(n, dim, counts, q)


# ---------------------------------------------------------------------------
# suite: worked examples
# ---------------------------------------------------------------------------

# (p, e, f, k, a_index, punctured, n, dim, ((w, count), ...))
_EXAMPLES = (
    (2, 2, 2, 4, 0, False, 51, 4, ((36, 204), (48, 51))),
    (3, 1, 2, 6, 0, False, 182, 6, ((108, 182), (126, 546))),
    (2, 1, 2, 4, 1, False, 10, 4, ((4, 5), (6, 10))),
    (2, 1, 2, 6, 1, False, 42, 6, ((20, 42), (24, 21))),
    (2, 2, 2, 4, 1, False, 68, 4, ((48, 51), (52, 204))),
    (2, 1, 3, 6, 1, False, 36, 6, ((16, 27), (20, 36))),
    (2, 2, 2, 4, 0, True, 17, 4, ((12, 204), (16, 51))),
)


def _family_route(tower: TowerSpec, a_index: int, punctured: bool
                  ) -> Optional[WeightDistribution]:
    """The specialized closed display covering this code, if any."""
    if a_index == 0:
        if tower.f == 2 and tower.k > 2:
            if punctured:
                return theory.dist_zero_shift_f2_punctured(tower.q, tower.k)
            return theory.dist_zero_shift_f2(tower.q, tower.k)
        return None
    if tower.f in (1, 2):
        return theory.dist_nonzero_shift(tower.q, tower.f, tower.k)[0]
    if tower.q == 2 and tower.f == 3 and tower.k % 3 == 0 and tower.k > 3:
        return theory.dist_binary_cubic(tower.k)
    return None


def suite_examples() -> List[CheckResult]:
    out = []
    for p, e, f, k, a_index, punctured, n, dim, rows in _EXAMPLES:
        tower = TowerSpec(p, e, f, k)
        golden = _golden(n, dim, tower.q, rows)
        ds = build_defining_set(tower, a_index)
        if punctured:
            ds = puncture(ds)
        brute = brute_weight_distribution(ds)
        predicted = theory.predicted_distribution(tower, a_index,
                                                  punctured=punctured)
        family = _family_route(tower, a_index, punctured)
        ok = brute == golden and predicted == golden
        routes = 2
        if family is not None:
            ok = ok and family == golden
            routes += 1
        name = f"example q={tower.q} f={f} k={k} a_index={a_index}"
        if punctured:
            name += " punctured"
        out.append(CheckResult(name, ok, f"{routes} routes give {brute!r}"))

    # binary cubic tower: the spectrum route must agree as well
    field = get_field(2, 6)
    ok = theory.walsh_weight_distribution(field, 3) == \
        _golden(36, 6, 2, ((16, 27), (20, 36)))
    out.append(CheckResult("example q=2 f=3 k=6 spectrum route", ok))

    # the nonzero shift value does not matter: all a give one distribution
    tower = TowerSpec(2, 2, 2, 4)
    dists = [brute_weight_distribution(build_defining_set(tower, a))
             for a in range(1, 4)]
    ok = all(d == dists[0] for d in dists)
    out.append(CheckResult("example q=4 f=2 k=4 shift invariance", ok,
                           "a_index in {1,2,3}"))
    return out


# ---------------------------------------------------------------------------
# suite: character and Gauss-sum identities
# ---------------------------------------------------------------------------

def _check_orthogonality() -> CheckResult:
    tally = _Tally("character orthogonality")
    for p, m in ((2, 1), (2, 4), (3, 2), (5, 1), (7, 1)):
        field = get_field(p, m)
        M = field.mult_order
        for j in range(M):
            psi = MultChar(field, j)
            acc = None
            for s in range(M):
                v = psi.value(s)
                acc = v if acc is None else acc + v
            want = M if psi.order == 1 else 0
            tally.record(acc == want, f"mult p={p} m={m} j={j}")
        for scale in [None, field.one, field.alpha if M > 1 else field.one]:
            chi = AddChar(field, scale=scale)
            acc = None
            for x in field.elements():
                v = chi.value(x)
                acc = v if acc is None else acc + v
            want = p ** m if chi.is_trivial else 0
            tally.record(acc == want, f"add p={p} m={m} scale={scale}")
    return tally.result()


def _check_trivial_gauss() -> CheckResult:
    tally = _Tally("trivial character collapses to -1")
    for p, m in ((2, 1), (2, 6), (3, 3), (5, 2), (7, 1)):
        field = get_field(p, m)
        tally.record(gauss_sum(field, 0) == -1, f"p={p} m={m}")
    field = get_field(2, 4)
    tally.record(gauss_sum(field, 0, deg=2) == -1, "subfield path")
    return tally.result()


# the largest field size the Gauss-sum identity checks reach
_LEMMA_LIMIT = 1 << 12


def _check_gauss_modulus() -> CheckResult:
    tally = _Tally("|G|^2 = field size")
    for p in (2, 3, 5, 7):
        m = 1
        while p ** m <= _LEMMA_LIMIT:
            field = get_field(p, m)
            r = p ** m
            for j in range(1, r - 1):
                g = gauss_sum(field, j)
                tally.record(g * g.conj() == r, f"p={p} m={m} j={j}")
            m += 1
    return tally.result()


def _check_gauss_conjugation() -> CheckResult:
    tally = _Tally("conjugate character symmetry")
    for p, m in ((2, 4), (3, 2), (3, 3), (5, 2), (7, 2), (11, 1), (13, 1)):
        field = get_field(p, m)
        M = field.mult_order
        for j in range(1, M):
            psi = MultChar(field, j)
            lhs = gauss_sum(field, (M - j) % M)
            rhs = gauss_sum(field, j).conj() * psi.value_at_minus_one()
            tally.record(lhs == rhs, f"p={p} m={m} j={j}")
    return tally.result()


def _check_semiprimitive() -> CheckResult:
    tally = _Tally("semi-primitive closed form")
    for p in (2, 3, 5, 7):
        for N in range(3, _LEMMA_LIMIT):
            if N % p == 0:
                continue
            j = semiprimitive_exponent(p, N)
            if j is None or p ** (2 * j) > _LEMMA_LIMIT:
                continue
            gamma = 1
            while p ** (2 * j * gamma) <= _LEMMA_LIMIT:
                r = p ** (2 * j * gamma)
                field = get_field(p, 2 * j * gamma)
                base = (r - 1) // N
                for s in range(1, N):
                    closed = gauss_sum_semiprimitive(p, N, gamma, s)
                    ok = gauss_sum(field, s * base) == closed
                    tally.record(ok, f"p={p} N={N} gamma={gamma} s={s}")
                gamma += 1
    return tally.result()


def _check_lifts() -> CheckResult:
    """The base character must live on the subfield embedded in the big
    field (same generator chain), so both Gauss sums use one Field."""
    tally = _Tally("norm-composed character lift")
    bases = ((2, 2), (2, 3), (3, 2), (2, 4), (5, 2), (3, 3), (7, 2),
             (2, 5), (2, 6), (3, 4), (2, 8))
    for p, m in bases:
        r = p ** m
        for t in (2, 3):
            if r ** t > 1 << 16:
                continue
            big = get_field(p, m * t)
            for j in (0, 1, 2, (r - 1) // 2):
                base = gauss_sum(big, j, deg=m)
                lifted = davenport_hasse_lift(base, t)
                direct = gauss_sum(big, lifted_char_index(r, t, j))
                tally.record(direct == lifted, f"r={r} t={t} j={j}")
    return tally.result()


def _check_monomial_sums() -> CheckResult:
    tally = _Tally("monomial sum via Gauss expansion")
    plans = (
        (TowerSpec(2, 1, 2, 4), None),
        (TowerSpec(2, 1, 3, 6), 9),
        (TowerSpec(3, 1, 2, 2), None),
        (TowerSpec(3, 1, 2, 4), 8),
        (TowerSpec(2, 2, 2, 4), 8),
    )
    for tower, n_samples in plans:
        field = tower.field()
        M = field.mult_order
        if n_samples is None:
            bs = range(M)
        else:
            bs = range(0, M, max(1, M // n_samples))
        for b in bs:
            direct, via_gauss = monomial_char_sum(field, tower, b)
            tally.record(direct == via_gauss,
                         f"q={tower.q} f={tower.f} k={tower.k} b={b}")
    return tally.result()


def _check_unity_sums() -> CheckResult:
    tally = _Tally("root-of-unity position sums")
    qs = [q for q in range(3, 130, 2)
          if is_prime(q) or any(q == p ** i for p in (3, 5, 7, 11)
                                for i in range(2, 8))]
    for q in qs:
        for s in range(1, q + 1):
            if 2 * s == q + 1:
                continue
            odd, even = unity_power_sums(q, s)
            tally.record(odd == 0 and even == -1, f"q={q} s={s}")
    return tally.result()


def _check_f2_value_rows() -> CheckResult:
    tally = _Tally("f=2 exponential sum rows")
    for p, e, k in ((2, 1, 4), (2, 1, 6), (3, 1, 6), (2, 2, 4)):
        tower = TowerSpec(p, e, 2, k)
        ds = build_defining_set(tower, 1)
        lam = theory.exp_sum_grouped(ds)
        empirical = sorted(Counter(lam.tolist()).items())
        expected = sorted(theory.lambda_value_pairs_f2(tower))
        tally.record(empirical == expected, f"q={tower.q} k={k}")
    return tally.result()


def _check_f1_collapse() -> CheckResult:
    tally = _Tally("f=1 sum collapses to -q")
    for p, e, k in ((2, 1, 3), (2, 1, 4), (3, 1, 3), (5, 1, 3), (2, 2, 2)):
        tower = TowerSpec(p, e, 1, k)
        lam = theory.exp_sum_grouped(build_defining_set(tower, 1))
        closed = {theory.exp_sum_closed(tower, 1, b)
                  for b in range(tower.q ** k - 1)}
        ok = set(lam.tolist()) == {-tower.q} and closed == {-tower.q}
        tally.record(ok, f"q={tower.q} k={k}")
    return tally.result()


def suite_lemmas() -> List[CheckResult]:
    return [
        _check_orthogonality(),
        _check_trivial_gauss(),
        _check_gauss_modulus(),
        _check_gauss_conjugation(),
        _check_semiprimitive(),
        _check_lifts(),
        _check_monomial_sums(),
        _check_unity_sums(),
        _check_f2_value_rows(),
        _check_f1_collapse(),
    ]


# ---------------------------------------------------------------------------
# suite: closed forms vs enumeration over a parameter grid
# ---------------------------------------------------------------------------

# the grid: every tower over these primes with q^k <= _GRID_BUDGET, the
# literal triple sums only where q^k <= _LITERAL_BUDGET
_GRID_PRIMES = (2, 3, 5)
_GRID_BUDGET = 1 << 13
_LITERAL_BUDGET = 1 << 8


def grid_towers(budget: int = _GRID_BUDGET) -> List[TowerSpec]:
    """Every tower with p in _GRID_PRIMES and field size q^k <= budget."""
    out = []
    for p in _GRID_PRIMES:
        e = 1
        while p ** e <= budget:
            q = p ** e
            k = 1
            while q ** k <= budget:
                for f in range(1, k + 1):
                    if k % f == 0:
                        out.append(TowerSpec(p, e, f, k))
                k += 1
            e += 1
    return out


def _a_samples(q: int) -> List[int]:
    if q <= 9:
        return list(range(1, q))
    return [1, 2, q - 1]


def _grid_code(tower: TowerSpec, a_index: int, tallies, literal: bool,
               first=None):
    """Every grid check of the full code of one shift, and of its punctured
    companion at a = 0.  first is the (ds, zeros, brute) of an earlier
    nonzero shift of the tower, which this one must reproduce; returns
    this code's triple."""
    q, f, k = tower.q, tower.f, tower.k
    label = f"q={q} f={f} k={k} a={a_index}"
    ds = build_defining_set(tower, a_index)
    zeros = zero_trace_counts(ds)
    brute = brute_weight_distribution(ds, zeros)
    tallies["total"].record(brute.total() == q ** brute.dim, label)
    tallies["singleton"].record(
        theory.singleton_slack(*brute.params()) >= 0, label)
    report = theory.TheoryReport(tower, a_index)
    codes = [(label, brute, report)]

    if a_index == 0:
        divisible = all(w % (q - 1) == 0 for w in brute.counts if w)
        tallies["scaling"].record(divisible, label)
        pds = puncture(ds)
        pzeros = zero_trace_counts(pds)
        pbrute = brute_weight_distribution(pds, pzeros)
        shrunk = {0: 1}
        shrunk.update({w // (q - 1): c for w, c in brute.counts.items() if w})
        # the kernel derives punctured counts from full orbits; recount a
        # few directly over the punctured elements, with no orbit expansion
        z = trace_zero_indicator(tower.p, tower.m, tower.e)
        M = z.size
        recount = all(int(pzeros[s % pzeros.size])
                      == int(z[(s + pds.elements) % M].sum())
                      for s in {0, 1, M // 3, M - 1})
        same = pbrute == WeightDistribution(len(pds), brute.dim, shrunk, q)
        tallies["scaling"].record(same and recount, label + " punctured")
        codes.append((label + " punctured", pbrute,
                      theory.TheoryReport(tower, 0, punctured=True)))
    elif first is not None:
        tallies["shift invariance"].record(brute == first[2], label)
        if report.applicable:
            # scaling the shift by u^(k/f) scales the defining set by u,
            # which rotates the zero counts by dlog(u), mod their period
            field = tower.field()
            M = field.mult_order
            u = next(t for t in range(0, M, M // (q - 1))
                     if field.mul(field.pow(t, k // f), first[0].a) == ds.a)
            tallies["shift invariance"].record(
                bool(np.array_equal(zeros, np.roll(first[1], -u))),
                label + " rotation")

    if not report.applicable:
        tallies["guards"].record(report.matches(brute) is None, label)
        return ds, zeros, brute
    for name, dist, rep in codes:
        tallies["closed vs brute"].record(rep.matches(dist) is True, name)
        family = _family_route(tower, a_index, rep.punctured)
        if family is not None:
            tallies["family routes"].record(family == dist, name)
        tallies["distance bounds"].record(
            dist.d_min >= rep.bound, f"{name} d={dist.d_min} vs {rep.bound}")
    if f == 1:
        d = brute.d_min
        need = theory.griesmer_min_length(q, brute.dim, d)
        tallies["distance bounds"].record(
            brute.n == need and d == report.bound, f"{label} one-weight")

    grouped = theory.exp_sum_grouped(ds, zeros)
    N = (q ** f - 1) // (q - 1)
    closed = np.array([theory.exp_sum_closed(tower, a_index, c)
                       for c in range(N)], dtype=np.int64)
    s = np.arange(len(grouped), dtype=np.int64)
    tallies["pointwise sums"].record(
        bool(np.array_equal(grouped, closed[s % N])), label)
    if literal:
        field = tower.field()
        M = field.mult_order
        eps = theory.shift_char_sum(tower, a_index)
        step = M // 8 if a_index == 0 else M // 6
        for b in range(0, M, max(1, step)):
            tallies["literal sums"].record(
                theory.exp_sum_direct(field, tower, b, a_index)
                == int(grouped[b]), f"{label} b={b}")
            lhs = q * q * (q ** f - 1) * \
                theory.count_both_conditions(tower, a_index, b)
            rhs = q ** k * (q ** f - 1) + eps * (q ** f - q ** k) \
                + (q ** f - 1) * int(grouped[b])
            tallies["solution counts"].record(lhs == rhs, f"{label} b={b}")
    return ds, zeros, brute


def suite_grid() -> List[CheckResult]:
    names = ("closed vs brute", "family routes", "pointwise sums",
             "literal sums", "solution counts", "shift invariance",
             "scaling", "total", "singleton", "distance bounds", "guards")
    tallies = {name: _Tally(name) for name in names}
    for tower in grid_towers():
        literal = tower.q ** tower.k <= _LITERAL_BUDGET and tower.q <= 16
        if tower.f > 1:
            _grid_code(tower, 0, tallies, literal)
        else:
            try:
                build_defining_set(tower, 0)
                empty_ok = False
            except ValueError:
                empty_ok = True
            tallies["guards"].record(
                empty_ok, f"q={tower.q} k={tower.k} a=0 empty set")
        first = None
        for a_index in _a_samples(tower.q):
            got = _grid_code(tower, a_index, tallies, literal, first)
            first = first or got
    return [tallies[name].result() for name in names]


_SUITES: Dict[str, Callable[[], List[CheckResult]]] = {
    "examples": suite_examples,
    "lemmas": suite_lemmas,
    "grid": suite_grid,
}


def run_suite(name: str) -> List[CheckResult]:
    if name not in _SUITES:
        raise ValueError(f"unknown suite {name!r}; "
                         f"choose from {sorted(_SUITES)}")
    return _SUITES[name]()
