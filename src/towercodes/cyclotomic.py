"""Exact arithmetic in cyclotomic integer rings Z[zeta_n], plus characters
and Gauss sums of finite fields.

A CycloInt is an integer vector indexed by exponents of zeta_n, i.e. an
element of the group ring Z[x]/(x^n - 1).  Arithmetic stays in the group
ring; equality and scalar extraction reduce to the canonical Z-basis of
Z[zeta_n] obtained by tensoring the power bases of the prime-power parts
of n (CRT on exponents, then one sparse fold per prime-power axis).  All
coefficients are exact integers throughout; there is no floating point.

Multiplication is cyclic convolution.  Above n = 128 it is one Kronecker
substitution (Harvey, J. Symbolic Comput. 44, 2009): each operand is read
into an int64 array once, packed into one big integer at digits of exactly
w = lim.bit_length() bits, where lim bounds every input and every product
coefficient, multiplied, folded mod 2^(w n) - 1 (x^n = 1) and unpacked by
numpy; signed operands take four such products of their positive and
negative parts.  The schoolbook product covers the rest exactly: a bound
of 2^62 or more, a coefficient past int64, and n <= 128.  That switch
stays although packing already wins from about n = 30 on dense Gauss
sums: faster small rings shrink the traced package time of perfbench's
tiny gauss_norms pass until the benchmark's own fixed share of it
crosses the 5 % cap of `run.py --trace 1`, so they wait for that
instrument to be fixed (ROADMAP item 5).

A Gauss sum G(psi_j) over a subfield F_{p^deg} is one histogram: over
g^i, i < p^deg - 1, the pair (Tr(g^i), j*i) fixes the exponent of
zeta_{p*o}, so a single bincount gives every coefficient in O(p^deg)
vectorized work.  The subfield trace comes from the absolute trace table
of the whole field: for lambda with Tr_{p^m/p^deg}(lambda) = 1,
Tr_{p^m/p}(lambda x) = Tr_{p^deg/p}(x) on F_{p^deg}, also when p divides
m/deg.  lambda = 1 when deg = m; otherwise lambda = alpha^u for the least
u at which relative_trace_codes(p, m, m, deg) holds the window code of 1.
No log table is built.
"""

from __future__ import annotations

import operator
from functools import lru_cache
from math import gcd, lcm
from typing import Iterable, List, Optional, Tuple

import numpy as np

from .field import (Element, Field, factorize, is_prime,
                    relative_trace_codes)

_INT64_SAFE = 1 << 55  # headroom for fold growth inside int64


def euler_phi(n: int) -> int:
    """Rank of Z[zeta_n] over Z."""
    out = 1
    for p, e in factorize(n):
        out *= p ** (e - 1) * (p - 1)
    return out


class _RingData:
    """Cached combinatorics for reducing Z[x]/(x^n-1) to the Z[zeta_n] basis."""

    def __init__(self, n: int):
        self.n = n
        fac = factorize(n)
        self.moduli = [p ** e for p, e in fac]
        self.primes = [p for p, _ in fac]
        shape = tuple(self.moduli)
        # exponent i of zeta_n maps to the tensor slot ((u_j * i) mod m_j)_j
        # where u_j inverts n/m_j mod m_j; this is a bijection by CRT
        idx = np.arange(n, dtype=np.int64)
        flat = np.zeros(n, dtype=np.int64)
        stride = 1
        strides = []
        for m in reversed(self.moduli):
            strides.append(stride)
            stride *= m
        strides.reverse()
        for m, st in zip(self.moduli, strides):
            u = pow(n // m, -1, m)
            flat += ((u * idx) % m) * st
        self.perm = flat
        self.shape = shape
        phi_shape = tuple(euler_phi(m) for m in self.moduli)
        self.phi_shape = phi_shape
        # zeta_n exponent of each canonical basis slot, for display
        base = np.zeros((), dtype=np.int64)
        exps = np.zeros(phi_shape, dtype=np.int64)
        for axis, (m, (p, e)) in enumerate(zip(self.moduli, fac)):
            a = np.arange(phi_shape[axis], dtype=np.int64) * (n // m) % n
            sh = [1] * len(phi_shape)
            sh[axis] = phi_shape[axis]
            exps = (exps + a.reshape(sh)) % n
        self.basis_exps = exps.reshape(-1)


@lru_cache(maxsize=64)
def _ring(n: int) -> _RingData:
    return _RingData(n)


def _reduce_vec(n: int, coeffs) -> tuple:
    """Canonical coefficients of sum c_i zeta_n^i over the tensor basis."""
    if n == 1:
        return (sum(coeffs),)
    rd = _ring(n)
    try:
        arr = np.array(coeffs, dtype=np.int64)
        if arr.max(initial=0) > _INT64_SAFE or arr.min(initial=0) < -_INT64_SAFE:
            raise OverflowError
    except OverflowError:
        arr = np.array(coeffs, dtype=object)
    T = np.zeros(rd.shape, dtype=arr.dtype)
    T.reshape(-1)[rd.perm] = arr
    for axis, m in enumerate(rd.moduli):
        p = rd.primes[axis]
        e = 1
        while p ** (e + 1) <= m and m % p ** (e + 1) == 0:
            e += 1
        blk = m // p  # = p^(e-1)
        hi = m - blk
        T = np.moveaxis(T, axis, 0)
        head, tail = T[:hi], T[hi:]
        for t in range(p - 1):
            head[t * blk:(t + 1) * blk] -= tail
        T = np.moveaxis(head, 0, axis)
    return tuple(T.ravel().tolist())


def _conv_schoolbook(n: int, a, b) -> list:
    out = [0] * n
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    k = i + j
                    if k >= n:
                        k -= n
                    out[k] += ai * bj
    return out


def _pack(mag: np.ndarray, w: int, dt: np.dtype) -> int:
    """sum_i mag[i] * 2^(w i), for entries below 2^w: the low w bits of
    each entry, laid end to end."""
    bits = np.unpackbits(mag.astype(dt, copy=False).view(np.uint8),
                         bitorder="little")
    fields = bits.reshape(len(mag), -1)[:, :w]
    return int.from_bytes(np.packbits(fields, bitorder="little").tobytes(),
                          "little")


def _unpack(value: int, n: int, w: int, dt: np.dtype) -> np.ndarray:
    """The n base-2^w digits of value, as int64, for value < 2^(w n)."""
    raw = np.frombuffer(value.to_bytes((n * w + 7) // 8, "little"),
                        dtype=np.uint8)
    bits = np.zeros((n, 8 * dt.itemsize), dtype=np.uint8)
    bits[:, :w] = np.unpackbits(raw, count=n * w,
                                bitorder="little").reshape(n, w)
    return np.packbits(bits, bitorder="little").view(dt).astype(np.int64)


def _kronecker_nonneg(n: int, a: np.ndarray, b: np.ndarray,
                      w: int) -> np.ndarray:
    """Cyclic convolution of two nonnegative vectors whose entries and
    cyclic product coefficients are all below 2^w, by one product of
    w-bit Kronecker packings.  Its callers are _conv_cyclic and the
    zero-count correlation of codes.zero_trace_counts."""
    # entries and digits pass through the narrowest of 8, 16, 32 and 64 bits
    dt = np.dtype(f"<u{1 << ((w + 7) // 8 - 1).bit_length()}")
    C = _pack(a, w, dt) * _pack(b, w, dt)
    # x^n = 1 folds linear digit k + n onto digit k; each folded digit is
    # a cyclic coefficient, below 2^w, so the addition carries nowhere
    nw = n * w
    return _unpack((C >> nw) + (C & ((1 << nw) - 1)), n, w, dt)


def _magnitude_sum(mag: np.ndarray, top: int) -> int:
    """Exact sum of a uint64 vector whose largest entry is top."""
    if top * len(mag) < 1 << 64:
        return int(mag.sum())
    return sum(mag.tolist())


def _conv_cyclic(n: int, a, b):
    """Cyclic convolution of two length-n coefficient sequences: a list
    from the schoolbook product, an int64 array from the Kronecker one."""
    if n <= 128:
        return _conv_schoolbook(n, a, b)
    try:
        A = np.array(a, dtype=np.int64)
        B = np.array(b, dtype=np.int64)
    except OverflowError:  # a coefficient past int64
        return _conv_schoolbook(n, a, b)
    # as uint64, np.abs is exact on all of int64, -2^63 included
    mag_a, mag_b = np.abs(A).view(np.uint64), np.abs(B).view(np.uint64)
    ma, mb = int(mag_a.max()), int(mag_b.max())
    sa, sb = _magnitude_sum(mag_a, ma), _magnitude_sum(mag_b, mb)
    # digits must hold every product coefficient and every packed input
    lim = max(min(sa * mb, sb * ma), ma, mb)
    if lim >= 1 << 62:
        return _conv_schoolbook(n, a, b)
    w = max(lim.bit_length(), 1)
    if A.min() >= 0 and B.min() >= 0:
        return _kronecker_nonneg(n, mag_a, mag_b, w)
    ap, an = mag_a * (A > 0), mag_a * (A < 0)
    bp, bn = mag_b * (B > 0), mag_b * (B < 0)
    # each part is below 2^62, so the two sums stay inside int64
    return (_kronecker_nonneg(n, ap, bp, w) + _kronecker_nonneg(n, an, bn, w)
            - _kronecker_nonneg(n, ap, bn, w) - _kronecker_nonneg(n, an, bp, w))


class CycloInt:
    """Element of Z[zeta_n] held as a coefficient vector mod x^n - 1."""

    __slots__ = ("n", "coeffs", "_canon")

    def __init__(self, n: int, coeffs: Iterable[int]):
        if n < 1:
            raise ValueError("root order must be positive")
        if (isinstance(coeffs, np.ndarray) and coeffs.dtype.kind in "iu"
                and coeffs.ndim == 1):
            cs = tuple(coeffs.tolist())
        else:  # integers only: a float raises TypeError, not truncation
            cs = tuple(map(operator.index, coeffs))
        if len(cs) != n:
            raise ValueError(f"expected {n} coefficients, got {len(cs)}")
        self.n = n
        self.coeffs = cs
        self._canon = None

    # -- constructors ----------------------------------------------------

    @classmethod
    def integer(cls, n: int, value: int) -> "CycloInt":
        cs = [0] * n
        cs[0] = value
        return cls(n, cs)

    @classmethod
    def root(cls, n: int, e: int = 1) -> "CycloInt":
        cs = [0] * n
        cs[e % n] = 1
        return cls(n, cs)

    # -- reduction -------------------------------------------------------

    def canonical(self) -> tuple:
        if self._canon is None:
            self._canon = _reduce_vec(self.n, self.coeffs)
        return self._canon

    @property
    def is_zero(self) -> bool:
        return not any(self.canonical())

    @property
    def is_scalar(self) -> bool:
        c = self.canonical()
        return not any(c[1:])

    def as_int(self) -> int:
        c = self.canonical()
        if any(c[1:]):
            raise ValueError("value is not a rational integer")
        return c[0]

    def support_terms(self) -> List[Tuple[int, int]]:
        """Nonzero canonical terms as (zeta_n exponent, coefficient)."""
        c = self.canonical()
        if self.n == 1:
            return [(0, c[0])] if c[0] else []
        exps = _ring(self.n).basis_exps
        return sorted(
            (int(exps[i]), v) for i, v in enumerate(c) if v
        )

    # -- ring ops ----------------------------------------------------------

    def lift(self, n2: int) -> "CycloInt":
        if n2 == self.n:
            return self
        if n2 % self.n:
            raise ValueError(f"cannot lift Z[zeta_{self.n}] into Z[zeta_{n2}]")
        cs = [0] * n2
        cs[::n2 // self.n] = self.coeffs
        return CycloInt(n2, cs)

    def times_root(self, o: int, e: int) -> "CycloInt":
        """self * zeta_o^e without a ring product: lift to
        Z[zeta_lcm(n, o)] and rotate the coefficients."""
        a = self.lift(lcm(self.n, o))
        s = e * (a.n // o) % a.n
        return CycloInt(a.n, a.coeffs[-s:] + a.coeffs[:-s])

    def _pair(self, other):
        if isinstance(other, int):
            other = CycloInt.integer(self.n, other)
        if not isinstance(other, CycloInt):
            return NotImplemented, NotImplemented
        if self.n == other.n:
            return self, other
        n = lcm(self.n, other.n)
        return self.lift(n), other.lift(n)

    def __add__(self, other):
        a, b = self._pair(other)
        if a is NotImplemented:
            return NotImplemented
        return CycloInt(a.n, [x + y for x, y in zip(a.coeffs, b.coeffs)])

    __radd__ = __add__

    def __neg__(self):
        return CycloInt(self.n, [-c for c in self.coeffs])

    def __sub__(self, other):
        a, b = self._pair(other)
        if a is NotImplemented:
            return NotImplemented
        return CycloInt(a.n, [x - y for x, y in zip(a.coeffs, b.coeffs)])

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if isinstance(other, int):
            return CycloInt(self.n, [c * other for c in self.coeffs])
        a, b = self._pair(other)
        if a is NotImplemented:
            return NotImplemented
        return CycloInt(a.n, _conv_cyclic(a.n, a.coeffs, b.coeffs))

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError("negative powers are not defined here")
        out = None  # the identity, kept out of the products
        base = self
        while e:
            if e & 1:
                out = base if out is None else out * base
            base = base * base if e > 1 else base
            e >>= 1
        return CycloInt.integer(self.n, 1) if out is None else out

    def conj(self) -> "CycloInt":
        cs = self.coeffs
        return CycloInt(self.n, cs[:1] + cs[:0:-1])

    def __eq__(self, other):
        if isinstance(other, int):
            c = self.canonical()
            return not any(c[1:]) and c[0] == other
        if not isinstance(other, CycloInt):
            return NotImplemented
        a, b = self._pair(other)
        return a.canonical() == b.canonical()

    __hash__ = None

    def __repr__(self):
        terms = self.support_terms()
        if not terms:
            return f"CycloInt({self.n}, 0)"
        body = " + ".join(
            f"{v}" if e == 0 else (f"{v}*z^{e}" if v != 1 else f"z^{e}")
            for e, v in terms
        )
        return f"CycloInt({self.n}, {body})"


def zeta(n: int, e: int = 1) -> CycloInt:
    return CycloInt.root(n, e)


# ---------------------------------------------------------------------------
# characters of finite fields (and of their subfields within one table)
# ---------------------------------------------------------------------------


class MultChar:
    """Multiplicative character psi_j of F_{p^deg} inside a Field table.

    Indexed against the subfield generator g = alpha**((p^m-1)/(p^deg-1)):
    psi_j(g^i) = zeta_{p^deg-1}^(j*i).  deg defaults to the full field.
    """

    def __init__(self, field: Field, j: int, deg: Optional[int] = None):
        self.field = field
        self.deg = field.m if deg is None else deg
        if field.m % self.deg:
            raise ValueError(f"{self.deg} does not divide m={field.m}")
        self.group_order = field.p ** self.deg - 1
        self.j = j % self.group_order if self.group_order > 1 else 0
        self.step = field.subfield_exp(self.deg)
        g = gcd(self.j, self.group_order)
        self.order = self.group_order // g

    def dlog(self, x: Element) -> int:
        if x is None:
            raise ZeroDivisionError("multiplicative character at zero")
        if x % self.step:
            raise ValueError("element outside the character's field")
        return x // self.step

    def exponent(self, x: Element) -> int:
        """Exponent of zeta_{order} at x."""
        e = (self.j * self.dlog(x)) % self.group_order
        return e // (self.group_order // self.order)

    def value(self, x: Element) -> CycloInt:
        return CycloInt.root(self.order, self.exponent(x))

    def value_at_minus_one(self) -> int:
        f = self.field
        e = self.exponent(f.neg(f.one))
        if e == 0:
            return 1
        if 2 * e == self.order:
            return -1
        raise RuntimeError("character at -1 must be a sign")


class AddChar:
    """Additive character of F_{p^deg}: x -> zeta_p^Tr(scale * x)."""

    def __init__(self, field: Field, deg: Optional[int] = None,
                 scale: Element = 0):
        self.field = field
        self.deg = field.m if deg is None else deg
        if field.m % self.deg:
            raise ValueError(f"{self.deg} does not divide m={field.m}")
        if not field.in_subfield(scale, self.deg):
            raise ValueError("scale outside the character's field")
        self.scale = scale
        self.order = field.p

    def exponent(self, x: Element) -> int:
        f = self.field
        if not f.in_subfield(x, self.deg):
            raise ValueError("element outside the character's field")
        return f.residue(f.trace(f.mul(self.scale, x), self.deg, 1))

    def value(self, x: Element) -> CycloInt:
        return CycloInt.root(self.order, self.exponent(x))

    @property
    def is_trivial(self) -> bool:
        return self.scale is None


# ---------------------------------------------------------------------------
# Gauss sums
# ---------------------------------------------------------------------------


def gauss_sum(field: Field, j: int, deg: Optional[int] = None) -> CycloInt:
    """G(psi_j, chi) over F_{p^deg} with chi canonical, by direct summation.

    One histogram over g^i, i < p^deg - 1, of the exponent pair
    (Tr(g^i), j*i) in Z[zeta_{p*o}], where o is the order of psi_j.
    """
    p = field.p
    psi = MultChar(field, j, deg)
    o, order = psi.order, psi.group_order
    n = p * o  # gcd(p, o) = 1 since o | p^deg - 1
    i = np.arange(order, dtype=np.int64)
    u = 0
    if psi.deg < field.m:
        # the least u whose trace down to F_{p^deg} has the code of 1
        u = int(np.argmax(relative_trace_codes(p, field.m, field.m, psi.deg)
                          == field.alpha_powers.item(0)))
    x = (u + i * psi.step) % field.mult_order
    tr = field.abs_trace_residues()[x]
    me = psi.j * i % order // (order // o)
    return CycloInt(n, np.bincount((tr * o + me * p) % n, minlength=n))


def semiprimitive_exponent(p: int, N: int) -> Optional[int]:
    """Least j >= 1 with p^j = -1 (mod N), or None if no power of p is."""
    pj = 1
    for j in range(1, N + 1):
        pj = pj * p % N
        if pj == N - 1:
            return j
    return None


def gauss_sum_semiprimitive(p: int, N: int, gamma: int, s: int = 1) -> int:
    """Closed-form Gauss sum G(lambda^s, chi) over F_r, r = p^(2*j*gamma),
    for lambda of order N in the semi-primitive case (some power of p is
    congruent to -1 mod N).  Returns the exact integer value, +/- sqrt(r).
    """
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    if N < 3:
        raise ValueError("character order must be at least 3")
    if N % p == 0:
        raise ValueError("character order must be coprime to p")
    if gamma < 1:
        raise ValueError("gamma must be positive")
    if not 1 <= s <= N - 1:
        raise ValueError(f"power s={s} out of range for order {N}")
    j = semiprimitive_exponent(p, N)
    if j is None:
        raise ValueError(f"no power of {p} is -1 mod {N}: not semi-primitive")
    sqrt_r = p ** (j * gamma)
    if N % 2 == 0 and p % 2 and gamma % 2 and ((p ** j + 1) // N) % 2:
        sign = -1 if s % 2 else 1
    else:
        sign = -1 if (gamma - 1) % 2 else 1
    return sign * sqrt_r


def davenport_hasse_lift(g: CycloInt, t: int) -> CycloInt:
    """Gauss sum of the degree-t lifted character pair: (-1)^(t-1) * g^t."""
    if t < 1:
        raise ValueError("lift degree must be positive")
    out = g ** t
    return -out if t % 2 == 0 else out


def lifted_char_index(r: int, t: int, j: int) -> int:
    """Index over F_{r^t} of the norm-composed lift of psi_j over F_r."""
    return j * ((r ** t - 1) // (r - 1))


# ---------------------------------------------------------------------------
# structured character sums
# ---------------------------------------------------------------------------


def monomial_char_sum(field: Field, tower, b: Element):
    """Both evaluations of sum_x chi(b * x^(q^f - 1)) over x in F_{q^k}^*.

    Returns (direct, via_gauss): the literal exponential sum, and the
    expansion (-1)^(k/f-1) * sum over all multiplicative characters psi of
    F_{q^f} of G(psi, chi_1)^(k/f) * conj(psi)(b^((q^k-1)/(q^f-1))).
    """
    if b is None:
        raise ValueError("b must be nonzero")
    p = field.p
    q, f, k = tower.q, tower.f, tower.k
    if field.m != tower.m:
        raise ValueError("field does not match tower")
    M = field.mult_order
    tr = field.abs_trace_residues()
    u = np.arange(M, dtype=np.int64)
    idx = (b + u * (q ** f - 1)) % M
    hist = np.bincount(tr[idx], minlength=p)
    direct = CycloInt(p, hist)

    ef = tower.e * tower.f
    L = tower.norm_exp
    i_b = b % (q ** f - 1)
    total: Optional[CycloInt] = None
    for j in range(q ** f - 1):
        psi = MultChar(field, j, deg=ef)
        g = gauss_sum(field, j, deg=ef)
        o = psi.order
        e = (-psi.j * i_b) % psi.group_order // (psi.group_order // o)
        term = (g ** (k // f)).times_root(o, e)
        total = term if total is None else total + term
    if (k // f - 1) % 2:
        total = -total
    return direct, total


def unity_power_sums(q: int, s: int):
    """The two (q+1)-th root-of-unity sums attached to an odd prime power q.

    odd positions: zeta^s + zeta^(3s) + ... + zeta^(qs)
    even positions: zeta^(2s) + zeta^(4s) + ... + zeta^((q-1)s)
    both in Z[zeta_{q+1}]; requires 1 <= s <= q and s != (q+1)/2.
    """
    if q < 3 or q % 2 == 0:
        raise ValueError("q must be an odd prime power, q >= 3")
    if not 1 <= s <= q:
        raise ValueError(f"s={s} out of range 1..{q}")
    if 2 * s == q + 1:
        raise ValueError("s = (q+1)/2 is excluded")
    n = q + 1
    odd = [0] * n
    even = [0] * n
    for t in range(1, q + 1, 2):
        odd[(t * s) % n] += 1
    for t in range(2, q, 2):
        even[(t * s) % n] += 1
    return CycloInt(n, odd), CycloInt(n, even)
