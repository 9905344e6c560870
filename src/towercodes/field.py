"""Finite fields F_{p^m} with Zech-logarithm tables.

Elements are represented in exponent form relative to a fixed primitive
element alpha: ``None`` is the zero element and an integer ``t`` in
``[0, p^m - 1)`` is ``alpha**t``.  Addition goes through the Zech table
``1 + alpha**t = alpha**zech[t]``; every other operation is exponent
arithmetic mod ``p^m - 1``.

The modulus is the smallest primitive polynomial over F_p in lexicographic
coefficient order (constant term least significant), so a given ``(p, m)``
always produces the same tables.  The answer depends on (p, m) alone, so
for m >= 2 it is read from PRIMITIVE_CODES, a constant table over every
such field within the budget (Lidl-Niederreiter, *Finite Fields*, ch. 10).
A prime field's modulus is searched, and the same search is the reference
that re-derives the table in the tests: a candidate is tested on powers of
its companion matrix C (the matrix of multiplication by x), x^M = 1 and
x^(M/l) != 1 for every prime l | M, M = p^m - 1.  Either way the table
build checks that the powers of alpha hit every nonzero element once and
close at alpha^M = 1, so a wrong modulus cannot pass.  Subfields F_{p^d} for
``d | m`` live inside the table as the exponents divisible by
``(p^m - 1) / (p^d - 1)``; relative traces and norms between any two nested
subfields are supported directly.

Every table is built by exact integer numpy work (Lidl-Niederreiter,
*Finite Fields*, ch. 2-3).  The coefficient rows of alpha^t come by
doubling: rows [n, 2n) are rows [0, n) times C^n mod p, so the whole table
takes about log2(M) matrix products.  The log table is one scatter of the
row encodings and the Zech table one gather, since 1 + alpha^t changes only
the constant coefficient.  The relative trace table of a subfield sums the
coefficient rows of the Frobenius conjugates; the trace-zero indicator
follows from the absolute trace table by linearity.  Both are cached per
field and degree.

Every table is a read-only int64 numpy array, and -1 stands for the zero
element wherever a table holds exponents (log, Zech and trace tables).  The
scalar methods read single entries with ``.item()``, so the elements they
return are plain Python ``int`` or ``None``.  One size budget,
MAX_FIELD_ORDER, bounds every field and is checked before any table work.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd
from typing import Dict, List, Optional, Tuple

import numpy as np

# The zero element of every Field.
ZERO: Optional[int] = None

Element = Optional[int]

# The one size budget: the largest field, p^m elements, that is built.
# Every table, enumeration and sweep in the package is bounded by it.
MAX_FIELD_ORDER = 1 << 20


def check_field_budget(p: int, m: int) -> None:
    """Refuse F_{p^m} exactly when p^m exceeds the budget, without testing
    p for primality.  p^m is formed only for 2 <= p <= budget and m <= 20,
    where it is small; past either bound, p >= 2 and m >= 1 already
    make it too large, and p < 2 or m < 1 is no field at all."""
    if p < 2 or m < 1:
        return
    if (p <= MAX_FIELD_ORDER and m < MAX_FIELD_ORDER.bit_length()
            and p ** m <= MAX_FIELD_ORDER):
        return
    small = p <= MAX_FIELD_ORDER and m <= 64
    size = f"{p}^{m} = {p ** m}" if small else f"{p}^{m}"
    raise ValueError(f"field size {size} exceeds budget {MAX_FIELD_ORDER}")


# Strong-probable-prime tests to these twelve bases decide every
# n < 3.18 * 10^23 exactly, so every 64-bit n (Sorenson and Webster 2015);
# past that bound a composite could pass.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Miller-Rabin primality, exact below the bound above."""
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def factorize(n: int) -> List[Tuple[int, int]]:
    """Prime-power factorization [(p, e), ...] ascending; [] for n = 1."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1 if d == 2 else 2
    if n > 1:
        out.append((n, 1))
    return out


# Rows of the alpha-power table multiplied per matrix product while the
# table is built; bounds the temporaries to a few MB.
_CHUNK_ROWS = 1 << 15


def _companion(modulus, p: int) -> np.ndarray:
    """Matrix C of multiplication by x on coefficient rows (low degree
    first) modulo the monic `modulus`: v·C is the row of x·v.

    Entries are below p, so a product of two such m×m matrices sums to
    less than m·p^2, which int64 holds for every field a table fits.
    """
    m = len(modulus) - 1
    C = np.zeros((m, m), dtype=np.int64)
    C[np.arange(m - 1), np.arange(1, m)] = 1
    C[m - 1] = [(-c) % p for c in modulus[:m]]
    return C


def _x_pow_is_one(squares, e: int, p: int) -> bool:
    """Whether x^e = 1, given squares[i] = C^(2^i) for i < e.bit_length():
    the row of x^e is the unit row times the factors picked by e's bits."""
    m = len(squares[0])
    one = np.eye(1, m, dtype=np.int64)[0]
    row = one
    for i in range(e.bit_length()):
        if e >> i & 1:
            row = row @ squares[i] % p
    return np.array_equal(row, one)


def _monic(code: int, p: int, m: int) -> Tuple[int, ...]:
    """Coefficients, low degree first, of x^m + sum_i c_i x^i for
    code = sum_i c_i p^i."""
    return tuple(code // p ** i % p for i in range(m)) + (1,)


def least_primitive_code(p: int, m: int) -> int:
    """Least code = sum_i c_i p^i (i < m) whose polynomial
    x^m + sum_i c_i x^i is primitive over F_p.

    A candidate is primitive when x^M = 1 and x^(M/l) != 1 for every prime
    l | M, M = p^m - 1; x^E is read off a power of its companion matrix.
    For m >= 2 the codes below p are skipped: x^m + c makes x^m = -c lie in
    F_p^*, so the order of x divides m(p - 1) < M.
    """
    M = p ** m - 1
    factors = [l for l, _ in factorize(M)]
    for code in range(p if m > 1 else 1, M + 1):
        if code % p == 0:
            continue  # constant term 0: divisible by x
        modulus = _monic(code, p, m)
        squares = [_companion(modulus, p)]
        for _ in range(M.bit_length() - 1):
            squares.append(squares[-1] @ squares[-1] % p)
        if _x_pow_is_one(squares, M, p) and not any(
                _x_pow_is_one(squares, M // l, p) for l in factors):
            return code
    raise RuntimeError(f"no primitive polynomial found for p={p}, m={m}")


# least_primitive_code(p, m) for every prime p and m >= 2 with
# p^m <= MAX_FIELD_ORDER; a test re-derives every entry.
PRIMITIVE_CODES = {
    (2, 2): 3, (2, 3): 3, (2, 4): 3, (2, 5): 5, (2, 6): 3, (2, 7): 3,
    (2, 8): 29, (2, 9): 17, (2, 10): 9, (2, 11): 5, (2, 12): 83, (2, 13): 27,
    (2, 14): 43, (2, 15): 3, (2, 16): 45, (2, 17): 9, (2, 18): 39, (2, 19): 39,
    (2, 20): 9, (3, 2): 5, (3, 3): 7, (3, 4): 5, (3, 5): 7, (3, 6): 5,
    (3, 7): 16, (3, 8): 29, (3, 9): 64, (3, 10): 32, (3, 11): 16, (3, 12): 215,
    (5, 2): 7, (5, 3): 17, (5, 4): 37, (5, 5): 22, (5, 6): 7, (5, 7): 17,
    (5, 8): 38, (7, 2): 10, (7, 3): 23, (7, 4): 75, (7, 5): 11, (7, 6): 159,
    (7, 7): 44, (11, 2): 18, (11, 3): 15, (11, 4): 13, (11, 5): 136,
    (13, 2): 15, (13, 3): 19, (13, 4): 184, (13, 5): 54, (17, 2): 20,
    (17, 3): 20, (17, 4): 28, (19, 2): 21, (19, 3): 23, (19, 4): 48,
    (23, 2): 30, (23, 3): 26, (23, 4): 34, (29, 2): 32, (29, 3): 40,
    (29, 4): 48, (31, 2): 43, (31, 3): 45, (31, 4): 79, (37, 2): 42,
    (37, 3): 50, (41, 2): 53, (41, 3): 47, (43, 2): 46, (43, 3): 57,
    (47, 2): 60, (47, 3): 51, (53, 2): 58, (53, 3): 58, (59, 2): 61,
    (59, 3): 62, (61, 2): 63, (61, 3): 78, (67, 2): 79, (67, 3): 73,
    (71, 2): 82, (71, 3): 79, (73, 2): 84, (73, 3): 86, (79, 2): 82,
    (79, 3): 88, (83, 2): 85, (83, 3): 90, (89, 2): 95, (89, 3): 108,
    (97, 2): 102, (97, 3): 104, (101, 2): 104, (101, 3): 104, (103, 2): 108,
    (107, 2): 112, (109, 2): 115, (113, 2): 123, (127, 2): 130, (131, 2): 145,
    (137, 2): 143, (139, 2): 141, (149, 2): 152, (151, 2): 163, (157, 2): 163,
    (163, 2): 174, (167, 2): 172, (173, 2): 178, (179, 2): 186, (181, 2): 199,
    (191, 2): 210, (193, 2): 198, (197, 2): 200, (199, 2): 205, (211, 2): 214,
    (223, 2): 228, (227, 2): 232, (229, 2): 235, (233, 2): 236, (239, 2): 252,
    (241, 2): 254, (251, 2): 270, (257, 2): 262, (263, 2): 270, (269, 2): 271,
    (271, 2): 292, (277, 2): 288, (281, 2): 284, (283, 2): 286, (293, 2): 295,
    (307, 2): 312, (311, 2): 328, (313, 2): 327, (317, 2): 322, (331, 2): 342,
    (337, 2): 352, (347, 2): 354, (349, 2): 351, (353, 2): 366, (359, 2): 366,
    (367, 2): 373, (373, 2): 379, (379, 2): 389, (383, 2): 388, (389, 2): 397,
    (397, 2): 410, (401, 2): 418, (409, 2): 431, (419, 2): 421, (421, 2): 439,
    (431, 2): 438, (433, 2): 438, (439, 2): 462, (443, 2): 450, (449, 2): 461,
    (457, 2): 472, (461, 2): 463, (463, 2): 474, (467, 2): 473, (479, 2): 513,
    (487, 2): 497, (491, 2): 499, (499, 2): 509, (503, 2): 522, (509, 2): 511,
    (521, 2): 527, (523, 2): 525, (541, 2): 551, (547, 2): 552, (557, 2): 565,
    (563, 2): 568, (569, 2): 572, (571, 2): 574, (577, 2): 587, (587, 2): 595,
    (593, 2): 596, (599, 2): 606, (601, 2): 612, (607, 2): 610, (613, 2): 619,
    (617, 2): 643, (619, 2): 621, (631, 2): 643, (641, 2): 647, (643, 2): 656,
    (647, 2): 657, (653, 2): 667, (659, 2): 669, (661, 2): 663, (673, 2): 678,
    (677, 2): 680, (683, 2): 688, (691, 2): 703, (701, 2): 704, (709, 2): 719,
    (719, 2): 738, (727, 2): 758, (733, 2): 739, (739, 2): 761, (743, 2): 748,
    (751, 2): 763, (757, 2): 763, (761, 2): 768, (769, 2): 790, (773, 2): 775,
    (787, 2): 789, (797, 2): 805, (809, 2): 821, (811, 2): 821, (821, 2): 824,
    (823, 2): 837, (827, 2): 833, (829, 2): 831, (839, 2): 850, (853, 2): 855,
    (857, 2): 862, (859, 2): 861, (863, 2): 868, (877, 2): 882, (881, 2): 896,
    (883, 2): 911, (887, 2): 897, (907, 2): 912, (911, 2): 948, (919, 2): 934,
    (929, 2): 936, (937, 2): 948, (941, 2): 943, (947, 2): 966, (953, 2): 958,
    (967, 2): 995, (971, 2): 977, (977, 2): 983, (983, 2): 994, (991, 2): 1002,
    (997, 2): 1008, (1009, 2): 1020, (1013, 2): 1020, (1019, 2): 1025,
    (1021, 2): 1031,
}


def _encode(rows: np.ndarray, p: int) -> np.ndarray:
    """int64 encodings sum_i rows[:, i] * p^i of coefficient rows."""
    enc = np.zeros(len(rows), dtype=np.int64)
    for i in reversed(range(rows.shape[1])):
        enc *= p
        enc += rows[:, i]
    return enc


class Field:
    """F_{p^m} with exp/log and Zech addition tables."""

    def __init__(self, p: int, m: int):
        check_field_budget(p, m)
        if not is_prime(p):
            raise ValueError(f"p must be prime, got {p}")
        if m < 1:
            raise ValueError(f"extension degree must be positive, got {m}")
        self.p = p
        self.m = m
        self.order = p ** m
        self.mult_order = self.order - 1
        self.modulus = self._find_modulus()
        self._build_tables()
        self._abs_trace = None
        self._zero_indicator: Dict[int, np.ndarray] = {}
        self._subtables: Dict[Tuple[int, int], np.ndarray] = {}

    # -- construction -------------------------------------------------

    def _find_modulus(self):
        """Smallest primitive monic polynomial in lex coefficient order.

        The one place a modulus is chosen: read from PRIMITIVE_CODES when
        m >= 2, found by least_primitive_code for a prime field.
        _build_tables checks either kind on every build.
        """
        p, m = self.p, self.m
        code = PRIMITIVE_CODES[p, m] if m > 1 else least_primitive_code(p, 1)
        return _monic(code, p, m)

    def _build_tables(self):
        p, m, M = self.p, self.m, self.mult_order
        C = _companion(self.modulus, p)
        # coefficient rows V[t] of alpha^t over F_p, by doubling:
        # V[n:2n] = V[:n] · C^n, then C^(2n) = (C^n)^2; products run in
        # the smallest dtype that holds their sums, below m·p^2
        V = np.zeros((M, m), dtype=np.min_scalar_type(p - 1))
        V[0, 0] = 1
        work = np.min_scalar_type(m * (p - 1) ** 2)
        n, Cn = 1, C.astype(work)
        while n < M:
            for lo in range(0, min(n, M - n), _CHUNK_ROWS):
                hi = min(lo + _CHUNK_ROWS, M - n, n)
                V[n + lo:n + hi] = V[lo:hi].astype(work, copy=False) @ Cn % p
            Cn = Cn @ Cn % p
            n *= 2
        # alpha^t stored as integer encodings sum(c_i * p^i) of the
        # coefficient vector; dlog is the inverse lookup
        enc = _encode(V, p)
        dlog = np.full(self.order, -1, dtype=np.int64)
        dlog[enc] = np.arange(M)
        # M powers fill the M nonzero encodings only if none repeats
        if not enc.all() or (dlog[1:] < 0).any():
            raise RuntimeError("modulus is not primitive (cycle repeats)")
        if not np.array_equal(V[M - 1].astype(np.int64) @ C % p,
                              np.eye(1, m, dtype=np.int64)[0]):
            raise RuntimeError("alpha cycle does not close at order p^m - 1")
        # Zech table: 1 + alpha^t adds 1 to the constant coefficient, p - 1
        # wrapping to 0; the one t with alpha^t = -1 reaches encoding 0,
        # where dlog holds -1 for zero
        enc1 = enc + 1
        enc1[V[:, 0] == p - 1] -= p
        zech = dlog[enc1]
        for table in (V, enc, dlog, zech):
            table.flags.writeable = False
        self._coeffs = V
        self.alpha_powers = enc
        self._dlog = dlog
        self.zech = zech

    # -- element encodings --------------------------------------------

    @property
    def zero(self) -> Element:
        return None

    @property
    def one(self) -> Element:
        return 0

    @property
    def alpha(self) -> Element:
        if self.mult_order == 1:
            return 0
        return 1

    def vector(self, x: Element):
        """Coefficient tuple of x over F_p, low degree first."""
        enc = 0 if x is None else self.alpha_powers.item(x)
        out = []
        for _ in range(self.m):
            out.append(enc % self.p)
            enc //= self.p
        return tuple(out)

    def from_vector(self, coeffs) -> Element:
        if len(coeffs) != self.m:
            raise ValueError("coefficient vector has wrong length")
        enc = 0
        for c in reversed(list(coeffs)):
            enc = enc * self.p + c % self.p
        if enc == 0:
            return None
        t = self._dlog.item(enc)
        if t == -1:
            raise ValueError("encoding out of range")
        return t

    def elements(self):
        yield None
        yield from range(self.mult_order)

    def nonzero(self):
        return range(self.mult_order)

    # -- arithmetic ----------------------------------------------------

    def add(self, x: Element, y: Element) -> Element:
        if x is None:
            return y
        if y is None:
            return x
        if x > y:
            x, y = y, x
        z = self.zech.item(y - x)
        if z < 0:
            return None
        r = x + z
        M = self.mult_order
        return r - M if r >= M else r

    def neg(self, x: Element) -> Element:
        if x is None or self.p == 2:
            return x
        r = x + self.mult_order // 2
        return r - self.mult_order if r >= self.mult_order else r

    def sub(self, x: Element, y: Element) -> Element:
        return self.add(x, self.neg(y))

    def mul(self, x: Element, y: Element) -> Element:
        if x is None or y is None:
            return None
        return (x + y) % self.mult_order

    def inv(self, x: Element) -> Element:
        if x is None:
            raise ZeroDivisionError("inverse of zero")
        return (-x) % self.mult_order

    def div(self, x: Element, y: Element) -> Element:
        return self.mul(x, self.inv(y))

    def pow(self, x: Element, n: int) -> Element:
        if x is None:
            if n == 0:
                return 0
            if n < 0:
                raise ZeroDivisionError("negative power of zero")
            return None
        return (x * n) % self.mult_order

    # -- subfields, traces, norms ---------------------------------------

    def _check_degrees(self, from_deg: int, to_deg: int):
        if from_deg % to_deg or self.m % from_deg:
            raise ValueError(
                f"degrees must nest: {to_deg} | {from_deg} | {self.m}"
            )

    def in_subfield(self, x: Element, deg: int) -> bool:
        if self.m % deg:
            raise ValueError(f"{deg} does not divide m={self.m}")
        if x is None:
            return True
        step = self.mult_order // (self.p ** deg - 1)
        return x % step == 0

    def subfield_exp(self, deg: int) -> int:
        """Exponent step so alpha**step generates F_{p^deg}^*."""
        if self.m % deg:
            raise ValueError(f"{deg} does not divide m={self.m}")
        return self.mult_order // (self.p ** deg - 1)

    def trace(self, x: Element, from_deg: int, to_deg: int) -> Element:
        """Relative trace F_{p^from_deg} -> F_{p^to_deg}."""
        self._check_degrees(from_deg, to_deg)
        if not self.in_subfield(x, from_deg):
            raise ValueError("element not in the source subfield")
        if x is None:
            return None
        s = self.p ** to_deg
        M = self.mult_order
        acc: Element = x
        e = x
        for _ in range(from_deg // to_deg - 1):
            e = (e * s) % M
            acc = self.add(acc, e)
        return acc

    def norm(self, x: Element, from_deg: int, to_deg: int) -> Element:
        """Relative norm F_{p^from_deg} -> F_{p^to_deg}."""
        self._check_degrees(from_deg, to_deg)
        if not self.in_subfield(x, from_deg):
            raise ValueError("element not in the source subfield")
        if x is None:
            return None
        expo = (self.p ** from_deg - 1) // (self.p ** to_deg - 1)
        return (x * expo) % self.mult_order

    def residue(self, x: Element) -> int:
        """Integer residue in [0, p) of an element of the prime subfield."""
        if x is None:
            return 0
        if not self.in_subfield(x, 1):
            raise ValueError("element not in the prime subfield")
        return self.alpha_powers.item(x) % self.p

    def element_from_residue(self, c: int) -> Element:
        c %= self.p
        if c == 0:
            return None
        t = self._dlog.item(c)
        if t == -1:
            raise RuntimeError("residue lookup failed")
        return t

    def subfield_element_from_index(self, i: int, deg: int) -> Element:
        """Map an integer in [0, p^deg) to F_{p^deg} by base-p digits over
        powers of the subfield generator."""
        if not 0 <= i < self.p ** deg:
            raise ValueError(f"index {i} out of range for subfield size {self.p ** deg}")
        g = self.subfield_exp(deg)
        acc: Element = None
        j = 0
        while i:
            d = i % self.p
            i //= self.p
            if d:
                acc = self.add(acc, self.mul(self.element_from_residue(d),
                                             self.pow(g, j)))
            j += 1
        return acc

    # -- bulk tables for enumeration kernels ----------------------------

    def trace_exp_subtable(self, from_deg: int, to_deg: int) -> np.ndarray:
        """Read-only int64 array of length p^from_deg - 1: entry i is the
        exponent of the trace of g**i, -1 where it is zero, with g
        generating F_{p^from_deg}^*.  Cached per degree pair.

        The trace of alpha^u is the sum of the coefficient rows of its
        conjugates alpha^(u s^j), s = p^to_deg, mapped back through dlog.
        """
        self._check_degrees(from_deg, to_deg)
        tab = self._subtables.get((from_deg, to_deg))
        if tab is None:
            p, M = self.p, self.mult_order
            Mf = p ** from_deg - 1
            terms = from_deg // to_deg
            u = np.arange(Mf, dtype=np.int64) * (M // Mf)
            rows = np.zeros((Mf, self.m),
                            dtype=np.min_scalar_type(terms * (p - 1)))
            for _ in range(terms):
                rows += self._coeffs[u]
                u = u * p ** to_deg % M
            tab = self._dlog[_encode(rows % p, p)]
            tab.flags.writeable = False
            self._subtables[(from_deg, to_deg)] = tab
        return tab

    def trace_zero_indicator(self, to_deg: int) -> np.ndarray:
        """Read-only uint8 array over exponents u in [0, p^m - 1): 1 where
        the trace of alpha^u down to F_{p^to_deg} vanishes.  Cached per
        degree.

        With g generating F_{p^to_deg}^*, the g^i (i < to_deg) are an
        F_p-basis of F_{p^to_deg}, so Tr_{m/to_deg}(x) = 0 exactly when
        Tr_{m/1}(g^i x) = 0 for every i < to_deg.
        """
        ind = self._zero_indicator.get(to_deg)
        if ind is None:
            self._check_degrees(self.m, to_deg)
            tr = self.abs_trace_residues()
            step = self.subfield_exp(to_deg)
            zero = tr == 0
            for i in range(1, to_deg):
                zero &= np.roll(tr, -i * step) == 0
            ind = zero.astype(np.uint8)
            ind.flags.writeable = False
            self._zero_indicator[to_deg] = ind
        return ind

    def abs_trace_residues(self) -> np.ndarray:
        """Read-only int64 array over exponents u: Tr_{p^m/p}(alpha^u) as a
        residue."""
        if self._abs_trace is not None:
            return self._abs_trace
        p, m, M = self.p, self.m, self.mult_order
        total = np.zeros(M, dtype=np.int64)
        for i in range(m):
            # Tr is F_p-linear: weight coefficient i by Tr(alpha^i)
            tr_i = self.residue(self.trace(i % M, m, 1))
            total += self._coeffs[:, i].astype(np.int64) * tr_i
        total %= p
        total.flags.writeable = False
        self._abs_trace = total
        return total

    def __repr__(self):
        return f"Field({self.p}, {self.m})"


@lru_cache(maxsize=None)
def get_field(p: int, m: int) -> Field:
    """Shared field-table cache; every table is read-only."""
    return Field(p, m)


@dataclass(frozen=True)
class TowerSpec:
    """Nested extensions F_q <= F_{q^f} <= F_{q^k} over F_p, q = p^e."""

    p: int
    e: int
    f: int
    k: int

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValueError(f"p must be prime, got {self.p}")
        if self.e < 1 or self.f < 1 or self.k < 1:
            raise ValueError("tower degrees must be positive")
        if self.k % self.f:
            raise ValueError(f"f={self.f} must divide k={self.k}")

    @property
    def q(self) -> int:
        return self.p ** self.e

    @property
    def m(self) -> int:
        # total degree of F_{q^k} over F_p
        return self.e * self.k

    @property
    def norm_exp(self) -> int:
        # exponent of the norm map from F_{q^k} onto F_{q^f}
        return (self.q ** self.k - 1) // (self.q ** self.f - 1)

    def field(self) -> Field:
        return get_field(self.p, self.m)

    def gcd_condition(self) -> bool:
        """gcd(k/f, q-1) == 1, required by the nonzero-a closed forms."""
        return gcd(self.k // self.f, self.q - 1) == 1
