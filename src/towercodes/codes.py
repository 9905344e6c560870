"""Linear codes from trace/norm defining sets, and their exact weight
distributions by exhaustive enumeration.

The defining set lives in the top field F_{q^k} of a tower
F_p <= F_q <= F_{q^f} <= F_{q^k}:

    D = {x in F_{q^k}^* : Tr_{q^f/q}(x^((q^k-1)/(q^f-1))) + a = 0}

and the code is C_D = {(Tr_{q^k/q}(b d))_{d in D} : b in F_{q^k}}.  D is
the preimage, under the norm onto F_{q^f}, of a subset of F_{q^f}^*, so it
is fixed by its residues H = D mod (q^f - 1), and every weight reads only
H.  A DefiningSet stores H, a sorted read-only int64 array of at most
q^f - 1 entries.  The alpha-exponents of D, in increasing order (which
fixes the coordinate permutation of codeword), are formed only when
`elements` is read; code, search and the distribution never read them.

Every route here but codeword, an oracle on the Field tables, reads only
the trace sequence of F_{q^k} (field.trace_sequence) and exponent
arithmetic; no log table is built.  With g = alpha^L,
L = (q^k-1)/(q^f-1), Tr_{q^f/q}(g^c) is the sum of the conjugates
g^(c q^j), j < f, so its window code is the digit-wise sum of theirs (XOR
when p = 2), exact for every tower, p | k/f included.  D is one vectorized
comparison of those codes with the code of -a, which gives H directly,
and a keeps its alpha-exponent.  Puncturing stores the residues of the
F_q^*-orbits of D; their least exponents are again formed only on read.
The field budget of field.py bounds every code: the sequence of the top
field is refused above the budget before any work.

Enumeration covers all q^k values of b: the weight of c_b for b = alpha^s
is |D| minus Z_s, the number of d in D with Tr(alpha^(s+d)) = 0.  D is a
union of cosets of the kernel of the norm onto F_{q^f}, so with
M = q^k - 1 and Mf = q^f - 1 the count Z_s depends only on s mod Mf:

    Z_s = sum_{h in D mod Mf} N0[(s + h) mod Mf],
    N0[t] = |{u = t mod Mf : Tr(alpha^u) = 0}|.

A set given as exponents (DefiningSet.from_elements) must be such a
union.  Each residue class mod Mf holds M/Mf exponents mod M, so it is one
exactly when no two of its elements agree mod M and each residue mod Mf
occurs M/Mf times: two bincounts check that, without a sort.

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
gives N0g, once for all the shifts of a tower and its punctured code, and
the rest is O(q^f) for H plus one product of two g-digit integers, instead
of O(M |D|).

A punctured set holds the residues of its F_q^* orbits in full; the trace
is F_q-linear, so its counts are theirs divided exactly by q - 1.  The
histogram over b is taken over the g counts of one period, each standing
for M/g values of b, and is deduplicated by the kernel of b -> c_b, so
repeated codewords (when the map is not injective) are counted once; its
first two moments are checked against the Pless identities (Huffman-Pless,
*Fundamentals of Error-Correcting Codes*, ch. 7); the second counts B_2,
the weight-2 dual words, from the class counts of H mod g, in closed form.
"""

from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import gcd
from typing import Dict, List, Optional, Tuple

import numpy as np

from .cyclotomic import _kronecker_nonneg
from .field import (Element, TowerSpec, relative_trace_codes,
                    subfield_element, trace_zero_indicator)


@dataclass(frozen=True, eq=False)
class DefiningSet:
    """A defining set, stored as its residues H = D mod (q^f - 1), with its
    tower and shift parameters.

    `residues` is a sorted read-only int64 array; for a punctured set it is
    the F_q^*-closure of H (closed under adding g mod q^f - 1), and len()
    counts one coordinate per F_q^* orbit.  `elements`, the alpha-exponents
    in coordinate order, is formed on its first read: D in increasing
    order, or the least exponent of each orbit when punctured.

    API change: the fourth field was `elements`.  A set given as exponents
    goes through DefiningSet.from_elements, which checks it and keeps them,
    in the given order, as `elements`.
    """

    tower: TowerSpec
    a_index: int
    a: Element
    residues: np.ndarray
    punctured: bool = False

    def __post_init__(self):
        r = np.array(self.residues, dtype=np.int64)
        Mf = self.tower.q ** self.tower.f - 1
        if r.size and (r[0] < 0 or r[-1] >= Mf or (r[1:] <= r[:-1]).any()):
            raise ValueError(f"residues must increase strictly in [0, {Mf})")
        if self.punctured:
            inside = np.zeros(Mf, dtype=bool)
            inside[r] = True
            g = _period(self.tower)
            if (inside.reshape(-1, g) != inside[:g]).any():
                raise ValueError("punctured residues must be closed under "
                                 f"adding g = {g} mod {Mf}")
        r.flags.writeable = False
        object.__setattr__(self, "residues", r)

    @classmethod
    def from_elements(cls, tower: TowerSpec, a_index: int, a: Element,
                      elements, punctured: bool = False) -> "DefiningSet":
        """The set of the given alpha-exponents, kept in the given order as
        `elements`.  Raises ValueError unless they, with their F_q^*
        orbits when punctured, are a union of norm-kernel cosets with no
        exponent twice mod q^k - 1."""
        q = tower.q
        M, Mf = q ** tower.k - 1, q ** tower.f - 1
        given = np.array(elements, dtype=np.int64)
        D = given
        if punctured:
            D = (D[:, None] + _orbit_step(tower) * np.arange(q - 1)).ravel()
        D = D % M
        per_class = np.bincount(D % Mf, minlength=Mf)
        H = np.flatnonzero(per_class)
        if (per_class[H] != M // Mf).any() or (np.bincount(D) > 1).any():
            tag = " punctured" if punctured else ""
            raise ValueError(
                f"{given.size}{tag} exponents for q={q}, f={tower.f}, "
                f"k={tower.k} are not a union of norm-kernel cosets")
        ds = cls(tower, a_index, a, H, punctured)
        given.flags.writeable = False
        ds.__dict__["elements"] = given  # the slot of the cached property
        return ds

    @cached_property
    def elements(self) -> np.ndarray:
        # every exponent below span whose residue mod period lies in H:
        # D below q^k - 1 mod q^f - 1, or the least exponents of the orbits
        # below (q^k - 1)/(q - 1), where the closure of H is a union of
        # classes mod g
        tower = self.tower
        if self.punctured:
            period, span = _period(tower), _orbit_step(tower)
        else:
            period, span = tower.q ** tower.f - 1, tower.q ** tower.k - 1
        r = self.residues
        base = r[:np.searchsorted(r, period)]
        out = (np.arange(span // period, dtype=np.int64)[:, None] * period
               + base).ravel()
        out.flags.writeable = False
        return out

    def __len__(self):
        n = self.residues.size * self.tower.norm_exp
        return n // (self.tower.q - 1) if self.punctured else n

    def __repr__(self):
        tag = ", punctured" if self.punctured else ""
        return (f"DefiningSet(q={self.tower.q}, f={self.tower.f}, "
                f"k={self.tower.k}, a={self.a_index}, n={len(self)}{tag})")


def build_defining_set(tower: TowerSpec, a_index: int) -> DefiningSet:
    """D as its residues mod q^f - 1: the c < q^f - 1 with Tr(g^c) = -a.

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
    return DefiningSet(tower, a_index, a, hits)


def _orbit_step(tower: TowerSpec) -> int:
    """(q^k - 1) / (q - 1): alpha to this power generates F_q^*."""
    return (tower.q ** tower.k - 1) // (tower.q - 1)


def _period(tower: TowerSpec) -> int:
    """g = gcd((q^k - 1)/(q - 1), q^f - 1), the period of the zero counts."""
    return gcd(_orbit_step(tower), tower.q ** tower.f - 1)


def codeword(ds: DefiningSet, b: Element) -> List[Element]:
    """c_b = (Tr_{q^k/q}(b d))_{d in D}, entries as elements of F_q."""
    field = ds.tower.field()
    m, e = ds.tower.m, ds.tower.e
    if b is None:
        return [None] * len(ds)
    M = field.mult_order
    return [field.trace((b + d) % M, m, e) for d in ds.elements.tolist()]


def puncture(ds: DefiningSet) -> DefiningSet:
    """One coordinate per F_q^*-orbit of D: the F_q^*-closure of H.

    alpha**step generates F_q^*, and step = (q^k - 1)/(q - 1) generates
    g Z mod q^f - 1, so the orbits of D cover the residues H + g Z; for
    every built a = 0 set that is H itself.  The coordinates, on read of
    `elements`, are the least exponents of the orbits.  Only the a = 0
    defining sets are closed under F_q^* scaling; anything else is refused.
    """
    if ds.a_index != 0:
        raise ValueError("puncturing requires the a = 0 defining set")
    if ds.punctured:
        return ds
    tower = ds.tower
    g = _period(tower)
    classes = np.zeros(g, dtype=bool)
    classes[ds.residues % g] = True
    closure = np.flatnonzero(np.tile(classes, (tower.q ** tower.f - 1) // g))
    return DefiningSet(tower, ds.a_index, ds.a, closure, punctured=True)


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


@lru_cache(maxsize=1)
def _folded_zero_counts(p: int, m: int, e: int, g: int) -> np.ndarray:
    """N0g[t] = |{u = t mod g : Tr_{p^m/p^e}(alpha^u) = 0}|, read-only.

    Only the last fold is kept: code, search and verify ask for the shifts
    of a tower and its punctured code in a row, and at f = k the period g
    nears q^k / (q - 1), so a cache per tower would grow with the towers
    of search --budget."""
    N0g = trace_zero_indicator(p, m, e).reshape(-1, g).sum(axis=0,
                                                           dtype=np.int64)
    N0g.flags.writeable = False
    return N0g


def zero_trace_counts(ds: DefiningSet) -> np.ndarray:
    """Z over one period, as g int64 counts, g = gcd((q^k-1)/(q-1), q^f-1):
    Z[s % g] is the number of d in D with Tr_{q^k/q}(alpha^(s+d)) = 0 for
    every s in [0, q^k - 1), and the weight of c_(alpha^s) is |D| minus it;
    the same period drives the exponential-sum checks.  It reads only the
    residues H of D and the folded trace-zero counts of the tower.
    """
    tower = ds.tower
    q = tower.q
    Mf = q ** tower.f - 1
    g = _period(tower)
    N0g = _folded_zero_counts(tower.p, tower.m, tower.e, g)
    Hg = np.bincount(-ds.residues % g, minlength=g)
    top = int(N0g.max())
    lim = max(ds.residues.size * top, int(Hg.max()), top)
    Z, rest = np.divmod(
        _kronecker_nonneg(g, N0g, Hg, max(lim.bit_length(), 1)), Mf // g)
    if rest.any():
        raise RuntimeError(f"{ds!r}: zero counts are not periodic mod {g}")
    if ds.punctured:
        Z //= q - 1
    return Z


def _dual_weight_two(ds: DefiningSet) -> int:
    """B_2, the number of weight-2 words of the dual code.

    Two coordinates d, d' carry proportional columns exactly when
    d' = lambda d, lambda in F_q^*, and each such pair gives q - 1 dual
    words of weight 2, so B_2 is q - 1 times sum_c C(c, 2) over the sizes c
    of the F_q^*-orbits in D.  With d = h mod q^f - 1 and
    lambda = alpha^(j sigma), j < q - 1, j sigma runs over g Z mod q^f - 1,
    each value (q - 1) g / (q^f - 1) times, so

        sum_c c^2 = L (q - 1) g / (q^f - 1) sum_t Hc[t]^2,

    Hc the counts of H mod g and L = (q^k - 1)/(q^f - 1) the elements of D
    per residue.  A punctured set has one coordinate per orbit, and
    F_2^* = {1} leaves no pair.
    """
    tower, q = ds.tower, ds.tower.q
    if q == 2 or ds.punctured:
        return 0
    g = _period(tower)
    Hc = np.bincount(ds.residues % g, minlength=g)
    sq = tower.norm_exp * ((q - 1) * g // (q ** tower.f - 1)) * int(Hc @ Hc)
    return (q - 1) * (sq - len(ds)) // 2


def brute_weight_distribution(ds: DefiningSet,
                              zeros: Optional[np.ndarray] = None
                              ) -> WeightDistribution:
    """Exact distribution over all q^k codewords, from `zeros`, the period
    of zero_trace_counts(ds) (formed here when not given).

    The histogram is taken over the g period counts, each standing for
    (q^k - 1)/g codewords.  Repeated codewords are merged: the zero-weight
    count determines the kernel of b -> c_b, every codeword occurs
    |kernel| times, and the dimension is reported as log_q of the true
    codeword count.  B_2 of the second Pless moment comes from the class
    counts of H mod g, with no pass over D.
    """
    tower = ds.tower
    q = tower.q
    n = len(ds)
    Z = zero_trace_counts(ds) if zeros is None else zeros
    ws, freq = np.unique(n - Z, return_counts=True)
    freq = freq * ((q ** tower.k - 1) // Z.size)
    kernel = 1  # b = 0, plus the nonzero b with c_b = 0
    if ws[0] == 0:
        kernel += int(freq[0])
        ws, freq = ws[1:], freq[1:]
    dim_drop = 0
    rem = kernel
    while rem > 1:
        if rem % q:
            raise RuntimeError("kernel size is not a power of q")
        rem //= q
        dim_drop += 1
    cs, rest = np.divmod(freq, kernel)
    if rest.any():
        raise RuntimeError("codeword multiplicity mismatch")
    counts = {0: 1, **dict(zip(ws.tolist(), cs.tolist()))}
    dim = tower.k - dim_drop
    # first Pless moment, times q: no coordinate of a trace code is all zero
    if q * sum(w * c for w, c in counts.items()) != n * (q - 1) * q ** dim:
        raise RuntimeError("first Pless moment fails: sum w*A_w != "
                           "n(q-1)q^(dim-1)")
    # second Pless moment, times q^2
    B2 = _dual_weight_two(ds)
    if q * q * sum(w * w * c for w, c in counts.items()) != \
            q ** dim * ((q - 1) * n * ((q - 1) * n + 1) + 2 * B2):
        raise RuntimeError("second Pless moment fails: q^2 sum w^2*A_w != "
                           "q^dim [(q-1)n((q-1)n+1) + 2 B_2]")
    return WeightDistribution(n, dim, counts, q)
