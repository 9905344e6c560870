"""Defining sets, codeword maps, exhaustive weight distributions."""

import tracemalloc
from collections import defaultdict
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from towercodes.codes import (
    DefiningSet,
    WeightDistribution,
    brute_weight_distribution,
    build_defining_set,
    codeword,
    puncture,
    zero_trace_counts,
)
from towercodes import cli, codes as codes_module, field as field_module
from towercodes import theory
from towercodes.field import Field, TowerSpec
from towercodes.verify import _a_samples, grid_towers


# (p, e, f, k, a_index) -> n, dim, {weight: count} without the zero word
BRUTE_GOLDENS = {
    (2, 2, 2, 4, 0): (51, 4, {36: 204, 48: 51}),
    (3, 1, 2, 6, 0): (182, 6, {108: 182, 126: 546}),
    (2, 1, 2, 4, 1): (10, 4, {4: 5, 6: 10}),
    (2, 1, 2, 6, 1): (42, 6, {20: 42, 24: 21}),
    (2, 2, 2, 4, 1): (68, 4, {48: 51, 52: 204}),
    (2, 1, 3, 6, 1): (36, 6, {16: 27, 20: 36}),
}


def test_defining_set_sizes():
    assert len(build_defining_set(TowerSpec(2, 2, 2, 4), 0)) == 51
    assert len(build_defining_set(TowerSpec(2, 1, 2, 4), 1)) == 10
    assert len(build_defining_set(TowerSpec(3, 1, 2, 6), 0)) == 182


def test_defining_set_satisfies_condition():
    # every listed exponent satisfies Tr(x^L) + a = 0, and nothing else does
    for spec, a_index in [((2, 1, 2, 4), 0), ((2, 1, 2, 4), 1),
                          ((3, 1, 2, 4), 2)]:
        tower = TowerSpec(*spec)
        ds = build_defining_set(tower, a_index)
        field = tower.field()
        L = tower.norm_exp
        ef = tower.e * tower.f
        member = set(ds.elements)
        for s in field.nonzero():
            t = field.trace(field.pow(s, L), ef, tower.e)
            hits = field.add(t, ds.a) is None
            assert hits == (s in member)
        assert list(ds.elements) == sorted(ds.elements)


def _grid_codes(tower):
    """The codes the grid checks on a tower: the sampled nonzero shifts,
    and the a = 0 code with its punctured companion when f > 1."""
    sets = [build_defining_set(tower, a) for a in _a_samples(tower.q)]
    if tower.f > 1:
        full = build_defining_set(tower, 0)
        sets += [full, puncture(full)]
    return sets


@pytest.mark.parametrize("tower", grid_towers(1 << 10),
                         ids=lambda t: f"{t.p}-{t.e}-{t.f}-{t.k}")
def test_elements_are_the_literal_defining_set(tower):
    # the exponents formed from the residues, against Tr(x^L) + a = 0
    # evaluated in the Field tables; punctured: the least exponent of each
    # F_q^*-orbit of the literal set
    field = tower.field()
    M, Mf = field.mult_order, tower.q ** tower.f - 1
    step = field.subfield_exp(tower.e)
    ef = tower.e * tower.f
    for ds in _grid_codes(tower):
        literal = [s for s in field.nonzero()
                   if field.add(field.trace(field.pow(s, tower.norm_exp),
                                            ef, tower.e), ds.a) is None]
        assert ds.residues.tolist() == sorted({s % Mf for s in literal}), ds
        if ds.punctured:
            literal = sorted({min((s + i * step) % M
                                  for i in range(tower.q - 1))
                              for s in literal})
        assert ds.elements.tolist() == literal, ds
        assert len(ds) == len(literal), ds


def test_empty_defining_set_raises():
    with pytest.raises(ValueError, match="k > f > 1"):
        build_defining_set(TowerSpec(2, 1, 1, 3), 0)


def test_codeword_linearity():
    tower = TowerSpec(2, 1, 2, 4)
    ds = build_defining_set(tower, 1)
    field = tower.field()
    for b1 in field.elements():
        for b2 in field.elements():
            lhs = codeword(ds, field.add(b1, b2))
            c1, c2 = codeword(ds, b1), codeword(ds, b2)
            assert lhs == [field.add(x, y) for x, y in zip(c1, c2)]
    assert codeword(ds, None) == [None] * 10


def test_codeword_weight_matches_kernel():
    tower = TowerSpec(2, 2, 2, 4)
    ds = build_defining_set(tower, 0)
    zeros = zero_trace_counts(ds)
    field = tower.field()
    for s in range(0, field.mult_order, 17):
        w = sum(1 for c in codeword(ds, s) if c is not None)
        assert w == len(ds) - int(zeros[s % zeros.size])


@pytest.mark.parametrize("key", sorted(BRUTE_GOLDENS))
def test_brute_distributions(key):
    p, e, f, k, a_index = key
    n, dim, counts = BRUTE_GOLDENS[key]
    dist = brute_weight_distribution(build_defining_set(TowerSpec(p, e, f, k),
                                                        a_index))
    assert dist.params() == (n, dim, min(counts))
    assert dist.pairs() == [(0, 1)] + sorted(counts.items())
    assert dist.total() == (p ** e) ** dim


def test_kernel_deduplication():
    # (2,1,2,2) a=0: D = F_2^* inside F_4, every trace hits each b twice
    dist = brute_weight_distribution(
        build_defining_set(TowerSpec(2, 1, 2, 2), 0))
    assert dist.params() == (1, 1, 1)
    assert dist.pairs() == [(0, 1), (1, 1)]
    # (2,2,2,2) a=0: repetition code of length 3 over F_4
    dist = brute_weight_distribution(
        build_defining_set(TowerSpec(2, 2, 2, 2), 0))
    assert dist.n == 3 and dist.dim == 1
    assert dist.pairs() == [(0, 1), (3, 3)]


def test_puncture_invariants():
    tower = TowerSpec(2, 2, 2, 4)
    full = build_defining_set(tower, 0)
    small = puncture(full)
    assert small.punctured
    assert len(small) == len(full) // (tower.q - 1)
    assert puncture(small) is small
    field = tower.field()
    M = field.mult_order
    step = field.subfield_exp(tower.e)
    # reps expand back to the full set under F_q^* scaling
    expanded = sorted((s + i * step) % M
                      for s in small.elements for i in range(tower.q - 1))
    assert expanded == list(full.elements)
    # weights scale down by q - 1 codeword by codeword
    zf = zero_trace_counts(full)
    zs = zero_trace_counts(small)
    assert np.array_equal(len(full) - zf, (len(small) - zs) * (tower.q - 1))


def test_puncture_binary_is_identity_set():
    tower = TowerSpec(2, 1, 2, 4)
    full = build_defining_set(tower, 0)
    small = puncture(full)
    assert np.array_equal(small.elements, full.elements)
    assert small.punctured and not full.punctured


def _orbit_min_puncture(ds):
    # the least exponent of each F_q^*-orbit, one element at a time
    field = ds.tower.field()
    M = field.mult_order
    step = field.subfield_exp(ds.tower.e)
    reps = {min((s + i * step) % M for i in range(ds.tower.q - 1))
            for s in ds.elements.tolist()}
    return sorted(reps)


@pytest.mark.parametrize("tower", [t for t in grid_towers(1 << 12)
                                   if t.f > 1],
                         ids=lambda t: f"{t.p}-{t.e}-{t.f}-{t.k}")
def test_puncture_matches_orbit_min_loop(tower):
    full = build_defining_set(tower, 0)
    small = puncture(full)
    assert small.elements.dtype == np.int64
    assert small.elements.tolist() == _orbit_min_puncture(full)


@settings(max_examples=80, deadline=None)
@given(tower=st.sampled_from(grid_towers(1 << 10)), data=st.data())
def test_puncture_properties(tower, data):
    # on the built a = 0 set, or on any union of norm-kernel cosets that is
    # stable under F_q^* scaling, Frobenius-stable or not: the exponents
    # whose residue mod g = gcd(step, q^f - 1) lies in a drawn set of classes
    field = tower.field()
    M = field.mult_order
    step = field.subfield_exp(tower.e)
    if tower.k > tower.f > 1 and data.draw(st.booleans()):
        full = build_defining_set(tower, 0)
    else:
        g = gcd(step, tower.q ** tower.f - 1)
        classes = data.draw(st.sets(st.integers(0, g - 1), min_size=1))
        keep = np.zeros(g, dtype=bool)
        keep[list(classes)] = True
        s = np.arange(M)
        full = DefiningSet.from_elements(tower, 0, None, s[keep[s % g]])
    small = puncture(full)
    assert np.array_equal(small.elements, np.unique(full.elements % step))
    zs = zero_trace_counts(small)
    assert np.array_equal(zs * (tower.q - 1), zero_trace_counts(full))
    assert np.array_equal(_over_all_shifts(zs, M),
                          _literal_zero_counts(small))


def test_tables_are_read_only():
    tower = TowerSpec(2, 2, 2, 4)
    field = tower.field()
    full = build_defining_set(tower, 0)
    tables = [field.alpha_powers, field._dlog,
              field.trace_exp_subtable(4, 2), field.abs_trace_residues(),
              field.trace_zero_indicator(2), full.residues, full.elements,
              puncture(full).residues, puncture(full).elements]
    for table in tables:
        with pytest.raises(ValueError, match="read-only"):
            table[0] = 1


def test_puncture_requires_zero_shift():
    ds = build_defining_set(TowerSpec(2, 1, 2, 4), 1)
    with pytest.raises(ValueError, match="a = 0"):
        puncture(ds)


def test_punctured_distribution_golden():
    dist = brute_weight_distribution(
        puncture(build_defining_set(TowerSpec(2, 2, 2, 4), 0)))
    assert dist.params() == (17, 4, 12)
    assert dist.pairs() == [(0, 1), (12, 204), (16, 51)]


def _literal_zero_counts(ds):
    # Z[s] = sum over d in D of z[(s + d) mod M], one rotation per d
    z = ds.tower.field().trace_zero_indicator(ds.tower.e).astype(np.int64)
    return sum((np.roll(z, -d) for d in ds.elements), np.zeros_like(z))


def _over_all_shifts(Z, M):
    # the period read at every s < M: Z_s = Z[s mod g]
    return Z[np.arange(M) % Z.size]


@pytest.mark.parametrize("tower", grid_towers(1 << 13),
                         ids=lambda t: f"{t.p}-{t.e}-{t.f}-{t.k}")
def test_zero_counts_match_literal_sum(tower):
    sets = [build_defining_set(tower, a) for a in _a_samples(tower.q)]
    if tower.f > 1:
        full = build_defining_set(tower, 0)
        sets += [full, puncture(full)]
    M = tower.q ** tower.k - 1
    g = gcd(M // (tower.q - 1), tower.q ** tower.f - 1)
    for ds in sets:
        Z = zero_trace_counts(ds)
        assert Z.size == g, ds
        assert np.array_equal(_over_all_shifts(Z, M),
                              _literal_zero_counts(ds)), ds


@pytest.mark.parametrize("spec, a_index, g", [
    ((2, 1, 2, 6), 1, 3),   # g = N = 3
    ((3, 1, 2, 4), 1, 8),   # g = N gcd(k/f, q - 1) = 4 * 2
], ids=["2-1-2-6", "3-1-2-4"])
def test_zero_counts_are_one_period(spec, a_index, g):
    assert zero_trace_counts(build_defining_set(TowerSpec(*spec),
                                                a_index)).size == g


def _class_gather_zero_counts(ds):
    # Z_s = sum_{h in D mod Mf} N0[(s + h) mod Mf], gathered at the least
    # shift of each class of t -> q t mod g and spread over its class; it
    # relies on Z_(qs) = Z_s, so D must be stable under x -> x^q
    tower, q = ds.tower, ds.tower.q
    M, Mf = q ** tower.k - 1, q ** tower.f - 1
    step = M // (q - 1)
    D = ds.elements
    if ds.punctured:
        D = (D[:, None] + step * np.arange(q - 1)).ravel()
    H = np.unique(D % Mf)
    N0 = field_module.trace_zero_indicator(tower.p, tower.m, tower.e) \
        .reshape(-1, Mf).sum(axis=0, dtype=np.int64)
    g = gcd(step, Mf)
    t = np.arange(g)
    least = t.copy()
    for _ in range(tower.f - 1):
        t = t * q % g
        np.minimum(least, t, out=least)
    reps = np.flatnonzero(least == np.arange(g))
    sums = np.empty(g, dtype=np.int64)
    rows = max(1, (1 << 20) // H.size)
    for lo in range(0, reps.size, rows):
        r = reps[lo:lo + rows]
        sums[r] = N0[(r[:, None] + H) % Mf].sum(axis=1)
    counts = sums[least]
    if ds.punctured:
        counts //= q - 1
    return counts


@pytest.mark.parametrize("tower", [
    TowerSpec(3, 1, 8, 8),    # Mf = 6560
    TowerSpec(2, 1, 14, 14),  # Mf = 16383
    TowerSpec(2, 1, 8, 16),   # q^k = 2^16, g = 255
], ids=lambda t: f"{t.p}-{t.e}-{t.f}-{t.k}")
def test_zero_counts_match_class_gather(tower):
    # past the literal sum's 2^13: the class gather is the reference, and
    # the counts over all M shifts, M/g per period, sum to
    # |D| (q^(k-1) - 1), the trace-zero b per d
    q = tower.q
    M = q ** tower.k - 1
    sets = [build_defining_set(tower, a) for a in (0, 1)]
    if q > 2:
        sets.append(puncture(sets[0]))
    for ds in sets:
        Z = zero_trace_counts(ds)
        assert np.array_equal(Z, _class_gather_zero_counts(ds)), ds
        assert int(Z.sum()) * (M // Z.size) == \
            len(ds) * (q ** (tower.k - 1) - 1), ds


@pytest.mark.parametrize("tower", grid_towers(1 << 12),
                         ids=lambda t: f"{t.p}-{t.e}-{t.f}-{t.k}")
def test_zero_counts_have_the_kernel_symmetries(tower):
    # s -> s + sigma (F_q^* scaling) gives zero_trace_counts its period g,
    # and s -> q s (q-Frobenius) is a symmetry too; both must hold for the
    # literal sum, punctured sets included
    q = tower.q
    M = tower.field().mult_order
    sigma = tower.field().subfield_exp(tower.e)
    s = np.arange(M)
    sets = [build_defining_set(tower, a) for a in range(1, q)]
    if tower.f > 1:
        full = build_defining_set(tower, 0)
        sets += [full, puncture(full)]
    for ds in sets:
        Z = _literal_zero_counts(ds)
        assert np.array_equal(Z[(s + sigma) % M], Z), ds
        assert np.array_equal(Z[q * s % M], Z), ds


def test_p_frobenius_is_not_a_kernel_symmetry():
    # x -> x^p moves a = 2, 3 of F_4 to each other, so Z_(ps) != Z_s there
    tower = TowerSpec(2, 2, 2, 6)
    s = np.arange(tower.field().mult_order)
    for a in (2, 3):
        Z = _literal_zero_counts(build_defining_set(tower, a))
        assert not np.array_equal(Z[2 * s % s.size], Z), a


def test_grid_punctured_recount_catches_rotated_counts(monkeypatch):
    # rotated punctured counts keep their distribution, so only the grid's
    # literal recount over the punctured elements can see the fault
    from towercodes import verify
    honest = verify.zero_trace_counts

    def rotated(ds):
        zeros = honest(ds)
        return np.roll(zeros, 1) if ds.punctured else zeros

    tower = TowerSpec(3, 1, 2, 4)
    label = "q=3 f=2 k=4 a=0 punctured"
    for counts, fails in ((honest, []), (rotated, [label])):
        monkeypatch.setattr(verify, "zero_trace_counts", counts)
        tallies = defaultdict(lambda: verify._Tally(""))
        verify._grid_code(tower, 0, tallies, literal=False)
        assert tallies["scaling"].cases == 2
        assert tallies["scaling"].failures == fails
        assert not tallies["closed vs brute"].failures


def test_grid_forms_one_correlation_per_distribution(monkeypatch):
    # each grid code's period feeds its distribution, grouped sums,
    # rotation and recount, so the kernel's product runs once per code
    from towercodes import verify
    calls = {"products": 0, "distributions": 0}

    def spy(key, fn):
        def counted(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return counted

    monkeypatch.setattr(codes_module, "_kronecker_nonneg",
                        spy("products", codes_module._kronecker_nonneg))
    monkeypatch.setattr(verify, "brute_weight_distribution",
                        spy("distributions",
                            verify.brute_weight_distribution))
    assert all(r.ok for r in verify.run_suite("grid"))
    assert calls == {"products": 509, "distributions": 509}


def test_non_coset_defining_set_raises():
    # a set given as exponents is checked where it is constructed
    ds = build_defining_set(TowerSpec(2, 1, 2, 4), 1)
    for elements in (ds.elements[1:],
                     np.concatenate([ds.elements[:1], ds.elements])):
        with pytest.raises(ValueError, match="norm-kernel cosets"):
            DefiningSet.from_elements(ds.tower, ds.a_index, ds.a, elements)
    # a punctured set whose reps share an F_q^* orbit
    full = build_defining_set(TowerSpec(2, 2, 2, 4), 0)
    step = full.tower.field().subfield_exp(full.tower.e)
    reps = puncture(full).elements
    with pytest.raises(ValueError, match="norm-kernel cosets"):
        DefiningSet.from_elements(
            full.tower, 0, full.a,
            np.concatenate([reps[:1], reps[:1] + step, reps[2:]]),
            punctured=True)
    # d and d + (q^k - 1) in place of d + (q^f - 1): every residue mod
    # q^f - 1 keeps its count, but two elements agree mod q^k - 1
    M = ds.tower.field().mult_order
    Mf = ds.tower.q ** ds.tower.f - 1
    d = int(ds.elements[0])
    twins = np.append(ds.elements[ds.elements != d + Mf], d + M)
    with pytest.raises(ValueError, match="norm-kernel cosets"):
        DefiningSet.from_elements(ds.tower, ds.a_index, ds.a, twins)
    # the given exponents pass, and keep their order
    given = ds.elements[::-1]
    assert DefiningSet.from_elements(ds.tower, ds.a_index, ds.a,
                                     given).elements.tolist() == \
        given.tolist()


def test_residues_are_checked():
    tower = TowerSpec(3, 1, 2, 4)  # residues below q^f - 1 = 8
    assert DefiningSet(tower, 0, None, [1, 3]).residues.tolist() == [1, 3]
    for residues in ([3, 1], [1, 1], [-1, 2], [2, 8]):
        with pytest.raises(ValueError, match="increase strictly"):
            DefiningSet(tower, 0, None, residues)
    tower = TowerSpec(3, 1, 2, 2)  # g = 4: a punctured set holds h and h + 4
    assert len(DefiningSet(tower, 0, None, [1, 5], punctured=True)) == 1
    with pytest.raises(ValueError, match="closed under adding g = 4"):
        DefiningSet(tower, 0, None, [1], punctured=True)


def test_frobenius_unstable_defining_set_is_counted_exactly():
    # D = {1} in F_16 is one norm-kernel coset (q^f = q^k), but x -> x^2
    # moves it, so Z_2 != Z_1: the correlation needs no Frobenius symmetry
    tower = TowerSpec(2, 1, 4, 4)
    field = tower.field()

    def literal(D):
        return [sum(field.trace((s + d) % 15, 4, 1) is None for d in D)
                for s in range(15)]

    assert literal([1]) == [1, 1, 0, 1, 1, 0, 0, 1, 0, 1, 0, 0, 0, 0, 1]
    for D in ([1], [1, 2, 4, 8], [0, 3, 7]):
        ds = DefiningSet.from_elements(tower, 0, None, D)
        assert zero_trace_counts(ds).tolist() == literal(D), D


def _corrupt_period_counts(monkeypatch, change):
    # brute_weight_distribution histograms one period of the counts
    honest = codes_module.zero_trace_counts

    def corrupt(ds):
        zeros = honest(ds)
        change(len(ds), zeros)
        return zeros

    monkeypatch.setattr(codes_module, "zero_trace_counts", corrupt)


def test_pless_moment_guard(monkeypatch):
    ds = build_defining_set(TowerSpec(2, 1, 2, 4), 1)

    def change(n, zeros):
        zeros[0] += 1  # the codewords of one period count lose a coordinate

    _corrupt_period_counts(monkeypatch, change)
    with pytest.raises(RuntimeError, match="first Pless moment"):
        brute_weight_distribution(ds)


def test_second_pless_moment_guard(monkeypatch):
    # (2,1,2,6) a = 1 is [42, 6] with weights 20 and 24, kernel 1, and its
    # g = 3 period counts read weights 20, 20 and 24, each for 21 words:
    # moving one period count from 20 to 21 and the other from 20 to 19
    # keeps the total and sum w A_w, and raises sum w^2 A_w by 2 * 21
    ds = build_defining_set(TowerSpec(2, 1, 2, 6), 1)
    brute_weight_distribution(ds)

    def change(n, zeros):
        assert (n - zeros).tolist().count(20) == 2 and zeros.size == 3
        first, second = np.flatnonzero(n - zeros == 20)
        zeros[first] -= 1
        zeros[second] += 1

    _corrupt_period_counts(monkeypatch, change)
    with pytest.raises(RuntimeError, match="second Pless moment"):
        brute_weight_distribution(ds)


def _dual_weight_two(ds):
    # proportional coordinate pairs, counted on the coordinates themselves:
    # d' = lambda d, lambda in F_q^* \ {1}, each pair q - 1 dual words
    field, q = ds.tower.field(), ds.tower.q
    D = set(ds.elements.tolist())
    step = field.subfield_exp(ds.tower.e)
    pairs = sum((d + i * step) % field.mult_order in D
                for d in D for i in range(1, q - 1))
    return (q - 1) * pairs // 2


@pytest.mark.parametrize("tower", grid_towers(1 << 12),
                         ids=lambda t: f"{t.p}-{t.e}-{t.f}-{t.k}")
def test_second_pless_moment_holds_on_the_grid(tower):
    sets = [build_defining_set(tower, a) for a in _a_samples(tower.q)]
    if tower.f > 1:
        full = build_defining_set(tower, 0)
        sets += [full, puncture(full)]
    q = tower.q
    for ds in sets:
        dist = brute_weight_distribution(ds)  # checks it, or raises
        n = len(ds)
        lhs = q * q * sum(w * w * c for w, c in dist.counts.items())
        B2 = _dual_weight_two(ds)
        assert lhs == q ** dist.dim * ((q - 1) * n * ((q - 1) * n + 1)
                                       + 2 * B2), ds
        if ds.punctured or q == 2:
            assert B2 == 0
        elif ds.a_index == 0:
            assert B2 == (q - 1) * (q - 2) * n // 2


@pytest.mark.parametrize("tower", [t for t in grid_towers() if t.q > 2],
                         ids=lambda t: f"{t.p}-{t.e}-{t.f}-{t.k}")
def test_dual_weight_two_matches_the_orbit_bincount(tower):
    # the closed form over the classes of H mod g, against the sizes of the
    # F_q^*-orbits of the coordinates; the sampled shifts include
    # gcd(k/f, q - 1) > 1 towers such as (3,1,2,4)
    step = tower.field().subfield_exp(tower.e)
    for ds in _grid_codes(tower):
        orbits = np.bincount(ds.elements % step)
        want = (tower.q - 1) * (int(orbits @ orbits) - len(ds)) // 2
        assert codes_module._dual_weight_two(ds) == want, ds


def test_puncturing_a_scaling_unstable_set():
    # D = {1} in (3,1,2,2) is one norm-kernel coset that F_3^* moves: its
    # punctured code has the one coordinate 1, read through the orbit {1, 5}
    tower = TowerSpec(3, 1, 2, 2)
    ds = DefiningSet.from_elements(tower, 0, None, [1])
    small = puncture(ds)
    assert ds.residues.tolist() == [1] and small.residues.tolist() == [1, 5]
    assert small.elements.tolist() == [1] and len(small) == 1
    assert zero_trace_counts(small).tolist() == [0, 1, 0, 0]
    assert repr(brute_weight_distribution(small)) == "[1,1] 1 + 2z^1"


def test_code_and_search_read_no_elements(monkeypatch, capsys):
    # the enumeration route reads the residues only; `elements` is formed
    # for codeword, the grid's recount and exp_sum_grouped's callers
    read = []
    lazy = DefiningSet.__dict__["elements"]

    def spy(ds):
        read.append(ds)
        return lazy.func(ds)

    monkeypatch.setattr(DefiningSet, "elements", property(spy))
    for p, e, f, k in ENUMERATE_TOWERS:
        argv = ["code", "--p", str(p), "--e", str(e), "--f", str(f),
                "--k", str(k)]
        for extra in (["--a", "0"], ["--a", "1"], ["--a", "0", "--punctured"]):
            assert cli.main(argv + extra) == 0
    assert cli.main(["search", "--budget", "4096"]) == 0
    capsys.readouterr()
    assert read == []
    # the spy sees a read
    build_defining_set(TowerSpec(2, 1, 2, 4), 1).elements
    assert len(read) == 1


def test_distribution_allocates_no_exponent_array():
    # (2,1,10,20) a = 1 has |D| = 524800 in F_{2^20}: with the sequence and
    # the trace-zero indicator cached, the set and its distribution stay
    # at the size of F_{2^10} and the period g = 1023
    tower = TowerSpec(2, 1, 10, 20)
    field_module.trace_sequence(2, 20)
    field_module.trace_zero_indicator(2, 20, 1)
    tracemalloc.start()
    try:
        dist = brute_weight_distribution(build_defining_set(tower, 1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert dist.params() == (524800, 20, 262144)
    assert peak < 8 << 20, peak


def _table_route(tower, a_index):
    """a and D from the log table of the top field: the route the
    trace sequence replaced, kept as its oracle."""
    field = tower.field()
    a = field.subfield_element_from_index(a_index, tower.e)
    target = -1 if a is None else field.neg(a)
    sub = field.trace_exp_subtable(tower.e * tower.f, tower.e)
    hits = np.flatnonzero(sub == target)
    reps = np.arange(tower.norm_exp, dtype=np.int64) * (tower.q ** tower.f - 1)
    return a, np.sort((reps[:, None] + hits).ravel())


# towers where p divides k/f: the relative trace is not (k/f)^-1 times the
# absolute one there, so no shortcut through the absolute trace applies
P_DIVIDES_K_OVER_F = [TowerSpec(2, 1, 2, 8), TowerSpec(3, 1, 2, 6),
                      TowerSpec(2, 2, 2, 4)]


def test_table_route_grid_has_the_p_dividing_k_over_f_towers():
    for tower in P_DIVIDES_K_OVER_F:
        assert tower in grid_towers(1 << 12)
        assert (tower.k // tower.f) % tower.p == 0


@pytest.mark.parametrize("tower", grid_towers(1 << 12),
                         ids=lambda t: f"{t.p}-{t.e}-{t.f}-{t.k}")
def test_defining_set_equals_the_table_route(tower):
    for a_index in range(tower.q):
        a, elements = _table_route(tower, a_index)
        if elements.size == 0:
            with pytest.raises(ValueError, match="defining set is empty"):
                build_defining_set(tower, a_index)
            continue
        ds = build_defining_set(tower, a_index)
        assert ds.a == a and type(ds.a) is type(a)
        assert np.array_equal(ds.elements, elements), (tower, a_index)


# the towers of the benchmark's enumerate and closed_form workloads
ENUMERATE_TOWERS = [(2, 1, 2, 12), (2, 1, 2, 14), (2, 1, 3, 12),
                    (2, 2, 2, 6), (3, 1, 2, 8), (5, 1, 2, 6)]
CLOSED_FORM_TOWERS = [(2, 1, 6, 12), (3, 1, 4, 8), (2, 2, 4, 8),
                      (2, 1, 5, 15), (2, 1, 2, 16), (5, 1, 3, 6),
                      (2, 1, 5, 10), (3, 1, 2, 10), (3, 1, 3, 9),
                      (2, 1, 3, 15), (2, 4, 2, 4)]


def test_code_search_and_predictions_build_no_field(monkeypatch, capsys):
    built = []
    init = Field.__init__

    def spy(self, p, m):
        built.append((p, m))
        init(self, p, m)

    monkeypatch.setattr(Field, "__init__", spy)
    # empty caches, so that a table the requests read would be built here
    for cache in (field_module.get_field, theory.coset_sums,
                  theory.coset_sum_counts):
        cache.cache_clear()
    for p, e, f, k in ENUMERATE_TOWERS:
        argv = ["code", "--p", str(p), "--e", str(e), "--f", str(f),
                "--k", str(k)]
        for extra in (["--a", "0"], ["--a", "1"], ["--a", "0", "--punctured"]):
            assert cli.main(argv + extra) == 0
    assert cli.main(["search", "--budget", "64"]) == 0
    for spec in CLOSED_FORM_TOWERS:
        tower = TowerSpec(*spec)
        theory.predicted_distribution(tower, 0)
        assert len(theory.coset_sums(tower)) == (
            (tower.q ** tower.f - 1) // (tower.q - 1))
        shifts = [0, 1] if tower.gcd_condition() else [0]
        for a in shifts:
            theory.predicted_distribution(tower, a)
            for b in (0, 1, 5):
                theory.weight_closed(tower, a, b)
                theory.exp_sum_closed(tower, a, b)
    capsys.readouterr()
    assert built == []
    # the spy sees a build
    Field(2, 3)
    assert built == [(2, 3)]


def test_budget_guard():
    # the field budget refuses the top field before the set is scanned
    with pytest.raises(ValueError, match="exceeds budget"):
        build_defining_set(TowerSpec(2, 1, 1, 21), 1)
    with pytest.raises(ValueError, match="exceeds budget"):
        build_defining_set(TowerSpec(3, 1, 2, 14), 0)


def test_weight_distribution_methods():
    d = WeightDistribution(10, 4, {0: 1, 4: 5, 6: 10}, 2)
    assert d.d_min == 4
    assert d.params() == (10, 4, 4)
    assert d.enumerator() == [1, 0, 0, 0, 5, 0, 10, 0, 0, 0, 0]
    assert d.total() == 16
    assert d == WeightDistribution(10, 4, {4: 5, 0: 1, 6: 10}, 2)
    assert d != WeightDistribution(10, 4, {4: 5, 0: 1, 6: 11}, 2)
    assert repr(d) == "[10,4] 1 + 5z^4 + 10z^6"
    with pytest.raises(ValueError, match="zero code"):
        WeightDistribution(5, 0, {0: 1}, 2).d_min
