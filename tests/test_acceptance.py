"""Acceptance gate: eight criteria, one printed pass/fail line each.

Run with -s (or read the -rA summary) to see the lines on success; a
failing criterion prints its line and the assertion detail.
"""

import numpy as np

from towercodes.cli import main
from towercodes.codes import brute_weight_distribution, build_defining_set, \
    puncture
from towercodes.field import TowerSpec, get_field
from towercodes.theory import (
    dist_binary_cubic,
    dist_nonzero_shift,
    dist_zero_shift_f2,
    dist_zero_shift_f2_punctured,
    dmin_bound_nonzero_shift,
    dmin_bound_zero_shift,
    dmin_bound_zero_shift_punctured,
    exp_sum_grouped as lambda_grouped,
    griesmer_min_length,
    griesmer_verdict,
    lambda_value_pairs_f2,
    predicted_distribution,
    quad_power_trace,
    secret_sharing_check,
    singleton_slack,
    walsh_weight_distribution,
)
from towercodes.verify import run_suite


def report(num: int, ok: bool, text: str):
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {text}")
    assert ok, f"criterion {num}: {text}"


EXAMPLES = [
    ((2, 2, 2, 4), 0, (51, 4), {36: 204, 48: 51}),
    ((3, 1, 2, 6), 0, (182, 6), {108: 182, 126: 546}),
    ((2, 1, 2, 4), 1, (10, 4), {4: 5, 6: 10}),
    ((2, 1, 2, 6), 1, (42, 6), {20: 42, 24: 21}),
    ((2, 2, 2, 4), 1, (68, 4), {48: 51, 52: 204}),
    ((2, 1, 3, 6), 1, (36, 6), {16: 27, 20: 36}),
]


def test_criterion_1_example_goldens():
    ok = True
    for spec, a_index, (n, dim), rows in EXAMPLES:
        tower = TowerSpec(*spec)
        want = dict(rows)
        want[0] = 1
        brute = brute_weight_distribution(build_defining_set(tower, a_index))
        closed = predicted_distribution(tower, a_index)
        ok &= brute.counts == want and (brute.n, brute.dim) == (n, dim)
        ok &= closed == brute
        # specialized family displays where one exists
        q, f, k = tower.q, tower.f, tower.k
        if a_index == 0:
            ok &= dist_zero_shift_f2(q, k) == brute
        elif f in (1, 2):
            ok &= dist_nonzero_shift(q, f, k)[0] == brute
        else:
            ok &= dist_binary_cubic(k) == brute
    report(1, ok, "six example distributions, brute force and closed form")


def test_criterion_2_grid_oracle_equivalence():
    results = run_suite("grid")
    bad = [r.name for r in results if not r.ok]
    report(2, not bad,
           f"closed forms equal enumeration on the full grid {bad or ''}")


def test_criterion_3_character_identities():
    results = run_suite("lemmas")
    bad = [r.name for r in results if not r.ok]
    report(3, not bad, f"character and Gauss-sum identity suite {bad or ''}")


def test_criterion_4_lambda_value_rows():
    ok = True
    for q, k in [(2, 4), (2, 6), (3, 6), (4, 4)]:
        p, e = (2, 2) if q == 4 else (q, 1)
        tower = TowerSpec(p, e, 2, k)
        vals = lambda_grouped(build_defining_set(tower, 1))
        freq = {}
        for v in vals.tolist():
            freq[v] = freq.get(v, 0) + 1
        ok &= sorted(freq.items()) == sorted(lambda_value_pairs_f2(tower))
    report(4, ok, "two-row value distribution of the shifted sum, f = 2")


def test_criterion_5_bounds():
    ok = True
    # one-weight f = 1 codes meet the Griesmer sum with equality
    for q, k in [(2, 3), (2, 4), (3, 2), (3, 3), (4, 2)]:
        n = (q ** k - 1) // (q - 1)
        d = q ** (k - 1)
        ok &= griesmer_min_length(q, k, d) == n
        ok &= singleton_slack(n, k, d) >= 0
        if np.gcd(k, q - 1) == 1:  # constructible: check the real code
            p, e = (2, 2) if q == 4 else (q, 1)
            dist = brute_weight_distribution(
                build_defining_set(TowerSpec(p, e, 1, k), 1))
            ok &= dist.params() == (n, k, d)
            ok &= dmin_bound_nonzero_shift(q, 1, k) == d
    # floored irrational bound, met by the example code
    ok &= dmin_bound_zero_shift(4, 2, 4) == 28 <= 36
    # punctured companion is Griesmer-optimal
    pdist = brute_weight_distribution(
        puncture(build_defining_set(TowerSpec(2, 2, 2, 4), 0)))
    ok &= pdist.params() == (17, 4, 12)
    ok &= dmin_bound_zero_shift_punctured(4, 2, 4) == 9
    ok &= griesmer_min_length(4, 4, 12) == 17
    ok &= griesmer_verdict(4, 17, 4, 12) == "optimal"
    # every example code clears its bound and the Singleton bound
    for spec, a_index, _, _ in EXAMPLES:
        tower = TowerSpec(*spec)
        dist = brute_weight_distribution(build_defining_set(tower, a_index))
        n, dim, d = dist.params()
        bound = dmin_bound_zero_shift(tower.q, tower.f, tower.k) \
            if a_index == 0 else \
            dmin_bound_nonzero_shift(tower.q, tower.f, tower.k)
        ok &= d >= bound and n >= dim + d - 1
    report(5, ok, "Griesmer equalities, distance bounds, Singleton slack")


def test_criterion_6_cubic_family_triple_agreement():
    ok = True
    for k in (6, 9):
        tower = TowerSpec(2, 1, 3, k)
        brute = brute_weight_distribution(build_defining_set(tower, 1))
        ok &= dist_binary_cubic(k) == brute
        ok &= walsh_weight_distribution(get_field(2, k), 3) == brute
    a, b = 1, 1  # (1 + sqrt(-7))^m as a + b sqrt(-7), exactly
    for m in range(1, 13):
        ok &= quad_power_trace(m) == 2 * a
        a, b = a - 7 * b, a + b
    report(6, ok, "three-weight binary family: recurrence, spectrum, brute")


def test_criterion_7_secret_sharing_verdicts():
    ok = True
    # strict-inequality boundary: w_min q == w_max (q-1) exactly
    ex1 = brute_weight_distribution(
        build_defining_set(TowerSpec(2, 2, 2, 4), 0))
    ok &= secret_sharing_check(ex1, 4) == (False, 36, 48)
    ok &= 36 * 4 == 48 * 3
    ex2 = brute_weight_distribution(
        build_defining_set(TowerSpec(3, 1, 2, 6), 0))
    ok &= secret_sharing_check(ex2, 3) == (True, 108, 126)
    # the k = 2 mod 4 kernel family passes from k = 6 on
    for q in (2, 3, 4, 5):
        ok &= secret_sharing_check(dist_zero_shift_f2(q, 6), q)[0]
        ok &= secret_sharing_check(dist_zero_shift_f2(q, 10), q)[0]
    ex3 = brute_weight_distribution(
        build_defining_set(TowerSpec(2, 1, 2, 4), 1))
    ok &= secret_sharing_check(ex3, 2) == (True, 4, 6)
    report(7, ok, "weight-ratio verdicts including the exact boundary")


def test_criterion_8_workers_byte_identity(capsys):
    def catch(argv):
        code = main(argv)
        return code, capsys.readouterr().out

    ok = True
    for f in ("2", "8"):  # q^f - 1 = 8 and 6560
        base = ["code", "--p", "3", "--e", "1", "--f", f, "--k", "8",
                "--a", "1"]
        c1, out1 = catch(base + ["--workers", "1"])
        c4, out4 = catch(base + ["--workers", "4"])
        ok &= c1 == c4 == 0 and out1 == out4
    s1 = catch(["search", "--budget", "512", "--workers", "1"])
    s4 = catch(["search", "--budget", "512", "--workers", "4"])
    ok &= s1 == s4 and s1[0] == 0
    report(8, ok, "byte-identical output for workers in {1, 4}")
