"""Linear codes from trace/norm defining sets, and their exact weight
distributions by exhaustive enumeration.

The defining set lives in the top field F_{q^k} of a tower
F_p <= F_q <= F_{q^f} <= F_{q^k}:

    D = {x in F_{q^k}^* : Tr_{q^f/q}(x^((q^k-1)/(q^f-1))) + a = 0}

and the code is C_D = {(Tr_{q^k/q}(b d))_{d in D} : b in F_{q^k}}.  Elements
of D are kept as alpha-exponents in increasing order, in a read-only int64
array, which fixes the coordinate permutation and makes codeword-level
results reproducible.

Every route here but codeword, an oracle on the Field tables, reads only
the trace sequence of F_{q^k} (field.trace_sequence) and exponent
arithmetic; no log table is built.  With g = alpha^L,
L = (q^k-1)/(q^f-1), Tr_{q^f/q}(g^c) is the sum of the conjugates
g^(c q^j), j < f, so its window code is the digit-wise sum of theirs (XOR
when p = 2), exact for every tower, p | k/f included.  D is one vectorized
comparison of those codes with the code of -a, and a keeps its
alpha-exponent.  Puncturing keeps s mod (q^k-1)/(q-1), the least exponent
of each F_q^*-orbit, read off one bincount of those residues.  The field
budget of field.py bounds every code: the sequence of the top field is
refused above the budget before any work.

Enumeration covers all q^k values of b: the weight of c_b for b = alpha^s
is |D| minus Z_s, the number of d in D with Tr(alpha^(s+d)) = 0.  D is a
union of cosets of the kernel of the norm onto F_{q^f}, so with
M = q^k - 1 and Mf = q^f - 1 the count Z_s depends only on s mod Mf:

    Z_s = sum_{h in D mod Mf} N0[(s + h) mod Mf],
    N0[t] = |{u = t mod Mf : Tr(alpha^u) = 0}|.

Each residue class mod Mf holds M/Mf exponents mod M, so D is such a union
exactly when no two of its elements agree mod M and each residue of D mod
Mf occurs M/Mf times: two bincounts check that, in O(M) and without a sort.

The trace is F_q-linear, so Z_(s + sigma) = Z_s with alpha^sigma
generating F_q^*, sigma = (q^k-1)/(q-1); with the period Mf this leaves the
period g = gcd(sigma, Mf) = N gcd(k/f, q-1), N = (q^f-1)/(q-1), for every
union of norm-kernel cosets.  zero_trace_counts returns Z over one period,
which every consumer reads at s mod g; it is one exact cyclic correlation
of length g.  Fold N0 and the indicator of H = D mod Mf to length g,

    N0g[t] = sum_{u = t mod g} N0[u],    Hg[t] = |{h in H : -h = t mod g}|,

so that their cyclic product at s sums Z over the Mf/g shifts s' = s mod g
in [0, Mf); Z is constant on them, so the product divides exactly by Mf/g,
and a nonzero remainder raises.  The product is the Kronecker one of the
ring code (cyclotomic._kronecker_nonneg): its coefficients are at most
sum(Hg) max(N0g), so digits of lim.bit_length() bits, lim bounding them and
every entry, hold each one exactly.  One pass over the trace-zero indicator
gives N0g, and the work is O(M) plus one product of two g-digit integers,
instead of O(M |D|).

A punctured set is expanded back to its F_q^* orbits first; the trace is
F_q-linear, so the counts divide exactly by q - 1.  The histogram over b
reads the g counts of one period, each M/g times, and is deduplicated by
the kernel of b -> c_b, so repeated codewords (when the map is not
injective) are counted once; its first two moments are checked against
the Pless identities (Huffman-Pless, *Fundamentals of Error-Correcting
Codes*, ch. 7); the second counts B_2, the weight-2 dual words, from the
sizes of the F_q^*-orbits in D.
"""

from dataclasses import dataclass
from math import gcd
from typing import Dict, List, Optional, Tuple

import numpy as np

from .cyclotomic import _kronecker_nonneg
from .field import (Element, TowerSpec, relative_trace_codes,
                    subfield_element, trace_zero_indicator)


@dataclass(frozen=True, eq=False)
class DefiningSet:
    """Ordered defining set with its tower and shift parameters; `elements`
    is a read-only int64 array of alpha-exponents."""

    tower: TowerSpec
    a_index: int
    a: Element
    elements: np.ndarray
    punctured: bool = False

    def __post_init__(self):
        self.elements.flags.writeable = False

    def __len__(self):
        return len(self.elements)

    def __repr__(self):
        tag = ", punctured" if self.punctured else ""
        return (f"DefiningSet(q={self.tower.q}, f={self.tower.f}, "
                f"k={self.tower.k}, a={self.a_index}, n={len(self)}{tag})")


def build_defining_set(tower: TowerSpec, a_index: int) -> DefiningSet:
    """Enumerate D in increasing alpha-exponent order.

    `a_index` selects a in F_q as an integer in [0, q): 0 is the zero shift,
    nonzero values map through base-p digits over the subfield basis.  -a
    has the negated digits, and Tr(x^L) = -a exactly where the window code
    of the subfield trace equals the code of -a.
    """
    p, q, e, f = tower.p, tower.q, tower.e, tower.f
    a, _ = subfield_element(p, tower.m, e, a_index)
    neg = sum(-(a_index // p ** j) % p * p ** j for j in range(e))
    _, target = subfield_element(p, tower.m, e, neg)
    hits = np.flatnonzero(relative_trace_codes(p, tower.m, e * f, e)
                          == target)
    if hits.size == 0:
        raise ValueError(
            f"defining set is empty for q={q}, f={f}, k={tower.k}, "
            f"a={a_index}; the a=0 regime needs k > f > 1")
    reps = np.arange(tower.norm_exp, dtype=np.int64) * (q ** f - 1)
    return DefiningSet(tower, a_index, a,
                       np.sort((reps[:, None] + hits).ravel()))


def _orbit_step(tower: TowerSpec) -> int:
    """(q^k - 1) / (q - 1): alpha to this power generates F_q^*."""
    return (tower.q ** tower.k - 1) // (tower.q - 1)


def codeword(ds: DefiningSet, b: Element) -> List[Element]:
    """c_b = (Tr_{q^k/q}(b d))_{d in D}, entries as elements of F_q."""
    field = ds.tower.field()
    m, e = ds.tower.m, ds.tower.e
    if b is None:
        return [None] * len(ds)
    M = field.mult_order
    return [field.trace((b + d) % M, m, e) for d in ds.elements.tolist()]


def puncture(ds: DefiningSet) -> DefiningSet:
    """Keep the least alpha-exponent of each F_q^*-orbit in D.

    alpha**step generates F_q^* and step divides q^k - 1, so the orbit
    {s + i step mod (q^k - 1)} of s is every exponent congruent to s mod
    step, and its least member is s mod step.  Only the a = 0 defining sets
    are closed under F_q^* scaling; anything else is refused.
    """
    if ds.a_index != 0:
        raise ValueError("puncturing requires the a = 0 defining set")
    if ds.punctured:
        return ds
    orbits = np.bincount(ds.elements % _orbit_step(ds.tower))
    return DefiningSet(ds.tower, ds.a_index, ds.a, np.flatnonzero(orbits),
                       punctured=True)


class WeightDistribution:
    """Weight histogram of a linear code, with derived parameters."""

    def __init__(self, n: int, dim_log: int, counts: Dict[int, int], q: int):
        self.n = n
        self.dim = dim_log
        self.q = q
        self.counts = dict(sorted(counts.items()))

    @property
    def d_min(self) -> int:
        positives = [w for w, c in self.counts.items() if w > 0 and c > 0]
        if not positives:
            raise ValueError("zero code has no minimum distance")
        return min(positives)

    def params(self) -> Tuple[int, int, int]:
        return self.n, self.dim, self.d_min

    def pairs(self) -> List[Tuple[int, int]]:
        """Sorted (weight, count) pairs, including the zero word."""
        return [(w, c) for w, c in self.counts.items() if c > 0]

    def enumerator(self) -> List[int]:
        """Coefficients of 1 + A_1 z + ... + A_n z^n."""
        coeffs = [0] * (self.n + 1)
        for w, c in self.counts.items():
            coeffs[w] = c
        return coeffs

    def total(self) -> int:
        return sum(self.counts.values())

    def __eq__(self, other):
        if not isinstance(other, WeightDistribution):
            return NotImplemented
        return (self.n, self.dim, self.counts) == \
            (other.n, other.dim, other.counts)

    def __repr__(self):
        body = " + ".join(f"{c}z^{w}" if w else str(c)
                          for w, c in self.pairs())
        return f"[{self.n},{self.dim}] {body}"


def zero_trace_counts(ds: DefiningSet) -> np.ndarray:
    """Z over one period, as g int64 counts, g = gcd((q^k-1)/(q-1), q^f-1):
    Z[s % g] is the number of d in D with Tr_{q^k/q}(alpha^(s+d)) = 0 for
    every s in [0, q^k - 1), and the weight of c_(alpha^s) is |D| minus it;
    the same period drives the exponential-sum checks.

    Raises ValueError when D (after undoing the puncturing) is not a union
    of cosets of the norm kernel: the shape every built defining set has,
    and the one the period g relies on.
    """
    tower = ds.tower
    q = tower.q
    M = q ** tower.k - 1
    Mf = q ** tower.f - 1
    step = _orbit_step(tower)
    D = ds.elements
    if ds.punctured:
        D = (D[:, None] + step * np.arange(q - 1)).ravel()
    D = D % M
    per_class = np.bincount(D % Mf, minlength=Mf)
    H = np.flatnonzero(per_class)
    if (per_class[H] != M // Mf).any() or (np.bincount(D) > 1).any():
        raise ValueError(f"{ds!r} is not a union of norm-kernel cosets")
    g = gcd(step, Mf)
    N0g = trace_zero_indicator(tower.p, tower.m, tower.e).reshape(
        -1, g).sum(axis=0, dtype=np.int64)
    Hg = np.bincount(-H % g, minlength=g)
    top = int(N0g.max())
    lim = max(int(Hg.sum()) * top, int(Hg.max()), top)
    Z, rest = np.divmod(
        _kronecker_nonneg(g, N0g, Hg, max(lim.bit_length(), 1)), Mf // g)
    if rest.any():
        raise RuntimeError(f"{ds!r}: zero counts are not periodic mod {g}")
    if ds.punctured:
        Z //= q - 1
    return Z


def brute_weight_distribution(ds: DefiningSet,
                              zeros: Optional[np.ndarray] = None
                              ) -> WeightDistribution:
    """Exact distribution over all q^k codewords, from `zeros`, the period
    of zero_trace_counts(ds) (formed here when not given).

    Repeated codewords are merged: the zero-weight count determines the
    kernel of b -> c_b, every codeword occurs |kernel| times, and the
    dimension is reported as log_q of the true codeword count.
    """
    tower = ds.tower
    n = len(ds)
    # one period of g counts stands for all M, each M/g times
    Z = zero_trace_counts(ds) if zeros is None else zeros
    hist = np.bincount(n - Z, minlength=n + 1) * \
        ((tower.q ** tower.k - 1) // Z.size)
    kernel = int(hist[0]) + 1  # nonzero b with c_b = 0, plus b = 0
    q = tower.q
    dim_drop = 0
    rem = kernel
    while rem > 1:
        if rem % q:
            raise RuntimeError("kernel size is not a power of q")
        rem //= q
        dim_drop += 1
    ws = np.flatnonzero(hist[1:n + 1]) + 1
    cs, rest = np.divmod(hist[ws], kernel)
    if rest.any():
        raise RuntimeError("codeword multiplicity mismatch")
    counts = {0: 1, **dict(zip(ws.tolist(), cs.tolist()))}
    dim = tower.k - dim_drop
    # first Pless moment, times q: no coordinate of a trace code is all zero
    if q * sum(w * c for w, c in counts.items()) != n * (q - 1) * q ** dim:
        raise RuntimeError("first Pless moment fails: sum w*A_w != "
                           "n(q-1)q^(dim-1)")
    # second Pless moment, times q^2: two coordinates d, d' carry
    # proportional columns exactly when d' = lambda d, lambda in F_q^*, and
    # each such pair gives q - 1 dual words of weight 2, so B_2 is q - 1
    # times sum_c C(c, 2) over the orbit counts c; F_2^* = {1} leaves none
    B2 = 0
    if q > 2:
        orbits = np.bincount(ds.elements % _orbit_step(tower))
        B2 = (q - 1) * (int(orbits @ orbits) - n) // 2
    if q * q * sum(w * w * c for w, c in counts.items()) != \
            q ** dim * ((q - 1) * n * ((q - 1) * n + 1) + 2 * B2):
        raise RuntimeError("second Pless moment fails: q^2 sum w^2*A_w != "
                           "q^dim [(q-1)n((q-1)n+1) + 2 B_2]")
    return WeightDistribution(n, dim, counts, q)
