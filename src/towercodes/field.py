"""Finite fields F_{p^m} with Zech-logarithm tables.

Elements are represented in exponent form relative to a fixed primitive
element alpha: ``None`` is the zero element and an integer ``t`` in
``[0, p^m - 1)`` is ``alpha**t``.  Addition goes through the Zech table
``1 + alpha**t = alpha**zech[t]``; every other operation is exponent
arithmetic mod ``p^m - 1``.

The modulus is the smallest primitive polynomial over F_p in lexicographic
coefficient order (constant term least significant), so a given ``(p, m)``
always produces the same tables.  Subfields F_{p^d} for ``d | m`` live inside
the table as the exponents divisible by ``(p^m - 1) / (p^d - 1)``; relative
traces and norms between any two nested subfields are supported directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd
from typing import List, Optional

import numpy as np

# The zero element of every Field.
ZERO: Optional[int] = None

Element = Optional[int]

DEFAULT_MAX_ORDER = 2 ** 20


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def prime_factors(n: int) -> List[int]:
    """Distinct prime factors of n, ascending."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return out


def _poly_mulmod(a, b, modulus, p):
    # schoolbook product of coefficient lists (low to high), reduced by the
    # monic modulus of degree m
    m = len(modulus) - 1
    prod = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] = (prod[i + j] + ai * bj) % p
    for i in range(len(prod) - 1, m - 1, -1):
        c = prod[i]
        if c:
            prod[i] = 0
            for j in range(m):
                prod[i - m + j] = (prod[i - m + j] - c * modulus[j]) % p
    out = prod[:m]
    while len(out) < m:
        out.append(0)
    return out


def _poly_powmod(a, e, modulus, p):
    m = len(modulus) - 1
    result = [1] + [0] * (m - 1)
    base = list(a)
    while e:
        if e & 1:
            result = _poly_mulmod(result, base, modulus, p)
        base = _poly_mulmod(base, base, modulus, p)
        e >>= 1
    return result


def _is_one(poly) -> bool:
    return poly[0] == 1 and not any(poly[1:])


class Field:
    """F_{p^m} with exp/log and Zech addition tables."""

    def __init__(self, p: int, m: int, max_order: int = DEFAULT_MAX_ORDER):
        if not is_prime(p):
            raise ValueError(f"p must be prime, got {p}")
        if m < 1:
            raise ValueError(f"extension degree must be positive, got {m}")
        order = p ** m
        if order > max_order:
            raise ValueError(
                f"field size {p}^{m} = {order} exceeds budget {max_order}"
            )
        self.p = p
        self.m = m
        self.order = order
        self.mult_order = order - 1
        self.modulus = self._find_modulus()
        self._build_tables()
        self._abs_trace = None
        self._zero_indicator = {}

    # -- construction -------------------------------------------------

    def _find_modulus(self):
        """Smallest primitive monic polynomial in lex coefficient order."""
        p, m, M = self.p, self.m, self.mult_order
        factors = prime_factors(M) if M > 1 else []
        for code in range(1, self.order):
            if code % p == 0:
                continue  # constant term 0: divisible by x
            coeffs = []
            c = code
            for _ in range(m):
                coeffs.append(c % p)
                c //= p
            modulus = coeffs + [1]
            if m == 1:
                xpoly = [(-coeffs[0]) % p]
            else:
                xpoly = [0, 1] + [0] * (m - 2)
            if not _is_one(_poly_powmod(xpoly, M, modulus, p)):
                continue
            if any(
                _is_one(_poly_powmod(xpoly, M // l, modulus, p))
                for l in factors
            ):
                continue
            return tuple(modulus)
        raise RuntimeError(f"no primitive polynomial found for p={p}, m={m}")

    def _build_tables(self):
        p, m, M = self.p, self.m, self.mult_order
        modulus = self.modulus
        # alpha^t stored as integer encodings sum(c_i * p^i) of the
        # coefficient vector; dlog is the inverse lookup
        powers = [0] * M
        dlog = [-1] * self.order
        vec = [1] + [0] * (m - 1)
        pm1 = p ** (m - 1)
        for t in range(M):
            enc = 0
            for c in reversed(vec):
                enc = enc * p + c
            if dlog[enc] != -1:
                raise RuntimeError("modulus is not primitive (cycle repeats)")
            powers[t] = enc
            dlog[enc] = t
            # multiply by x and reduce
            lead = vec[m - 1]
            vec = [0] + vec[: m - 1]
            if lead:
                for j in range(m):
                    vec[j] = (vec[j] - lead * modulus[j]) % p
        if vec != [1] + [0] * (m - 1):
            raise RuntimeError("alpha cycle does not close at order p^m - 1")
        self.alpha_powers = powers
        self._dlog = dlog
        # Zech table: 1 + alpha^t, None where the sum is zero
        zech: List[Element] = [None] * M
        for t in range(M):
            enc = powers[t]
            c0 = enc % p
            enc1 = enc - c0 + (c0 + 1) % p
            zech[t] = dlog[enc1] if enc1 else None
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
        enc = 0 if x is None else self.alpha_powers[x]
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
        t = self._dlog[enc]
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
        z = self.zech[y - x]
        if z is None:
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
        return self.alpha_powers[x] % self.p

    def element_from_residue(self, c: int) -> Element:
        c %= self.p
        if c == 0:
            return None
        t = self._dlog[c]
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

    def trace_exp_subtable(self, from_deg: int, to_deg: int):
        """List of length p^from_deg - 1: entry i is the trace (as an
        Element) of g**i where g generates F_{p^from_deg}^*."""
        self._check_degrees(from_deg, to_deg)
        Mf = self.p ** from_deg - 1
        L = self.mult_order // Mf
        s = self.p ** to_deg
        M = self.mult_order
        terms = from_deg // to_deg
        add = self.add
        out: List[Element] = [None] * Mf
        for i in range(Mf):
            u = i * L
            acc: Element = u
            e = u
            for _ in range(terms - 1):
                e = (e * s) % M
                acc = add(acc, e)
            out[i] = acc
        return out

    def trace_zero_indicator(self, to_deg: int) -> np.ndarray:
        """Read-only uint8 array over exponents u in [0, p^m - 1): 1 where
        the trace of alpha^u down to F_{p^to_deg} vanishes.  Cached per
        degree."""
        ind = self._zero_indicator.get(to_deg)
        if ind is None:
            tab = self.trace_exp_subtable(self.m, to_deg)
            ind = np.array([1 if e is None else 0 for e in tab],
                           dtype=np.uint8)
            ind.flags.writeable = False
            self._zero_indicator[to_deg] = ind
        return ind

    def abs_trace_residues(self) -> np.ndarray:
        """int64 array over exponents u: Tr_{p^m/p}(alpha^u) as a residue."""
        if self._abs_trace is not None:
            return self._abs_trace
        p, m, M = self.p, self.m, self.mult_order
        basis = np.empty(m, dtype=np.int64)
        for i in range(m):
            basis[i] = self.residue(self.trace(i % M if M > 1 else 0, m, 1))
        enc = np.array(self.alpha_powers, dtype=np.int64)
        total = np.zeros(M, dtype=np.int64)
        for i in range(m):
            total += (enc % p) * basis[i]
            enc //= p
        self._abs_trace = total % p
        return self._abs_trace

    def __repr__(self):
        return f"Field({self.p}, {self.m})"


@lru_cache(maxsize=None)
def _field_cache(p: int, m: int, max_order: int) -> Field:
    return Field(p, m, max_order=max_order)


def get_field(p: int, m: int, max_order: int = DEFAULT_MAX_ORDER) -> Field:
    """Shared field-table cache; tables are immutable by convention."""
    return _field_cache(p, m, max_order)


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

    def field(self, max_order: int = DEFAULT_MAX_ORDER) -> Field:
        return get_field(self.p, self.m, max_order)

    def gcd_condition(self) -> bool:
        """gcd(k/f, q-1) == 1, required by the nonzero-a closed forms."""
        return gcd(self.k // self.f, self.q - 1) == 1
