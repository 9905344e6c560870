"""Finite fields F_{p^m}: the absolute-trace m-sequence, and Field with
Zech-logarithm tables built from it.

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
x^(M/l) != 1 for every prime l | M, M = p^m - 1.  primitive_modulus is the
one source of a modulus, and trace_sequence checks that the powers of
alpha hit every nonzero element once and close at alpha^M = 1, so a wrong
modulus cannot pass.  Subfields F_{p^d} for ``d | m`` live inside the field
as the exponents divisible by ``(p^m - 1) / (p^d - 1)``; relative traces and
norms between any two nested subfields are supported directly.

Every table that holds elements as F_p digits uses one encoding, the
window code.  t -> Tr(alpha^t) is the m-sequence of the modulus, and its
length-m windows are the coordinates of alpha^t in the dual basis
(Lidl-Niederreiter, ch. 8; Golomb, *Shift Register Sequences*).
trace_sequence builds it from Newton's identities and the modulus's
recurrence, advanced by doubling, in O(M m) work and two int64 arrays.
The window code of a sum is the digit-wise sum of the codes, so relative
traces (relative_trace_codes), trace-zero indicators
(trace_zero_indicator) and subfield elements by index (subfield_element)
follow with no log or Zech table.  Each is cached per field and degree;
the enumeration and closed-form routes read only these.

Field keeps log and Zech tables over the same codes for scalar
arithmetic, Gauss sums and the oracles (Lidl-Niederreiter, ch. 2-3):
alpha_powers is the shared window array, the log table one scatter of
it, and the Zech table one gather of the log table at the digit-wise sum
of each code with the code of 1.  A relative trace table is the log table
gathered at relative_trace_codes, cached per degree pair; the absolute
trace and the trace-zero indicators are the shared sequence arrays.

Every table is a read-only int64 numpy array (the trace-zero indicators
are uint8), and -1 stands for the zero element wherever a table holds
exponents (log, Zech and trace tables).  The scalar methods read single
entries with ``.item()``, so the elements they return are plain Python
``int`` or ``None``.  One size budget, MAX_FIELD_ORDER, bounds every field
and is checked before any table or sequence work.
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


def _companion(modulus, p: int) -> np.ndarray:
    """Matrix C of multiplication by x on coefficient rows (low degree
    first) modulo the monic `modulus`: v·C is the row of x·v.

    Entries are below p, so a product of two such m×m matrices sums to
    less than m·p^2, which int64 holds for every field within the budget.
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
# p^m <= MAX_FIELD_ORDER, written per prime as p -> (codes for m = 2, 3, ...)
# and expanded into PRIMITIVE_CODES = {(p, m): code}; a test re-derives
# every entry.
_CODES_BY_PRIME = {
    2: (3, 3, 3, 5, 3, 3, 29, 17, 9, 5, 83, 27, 43, 3, 45, 9, 39, 39, 9),
    3: (5, 7, 5, 7, 5, 16, 29, 64, 32, 16, 215), 5: (7, 17, 37, 22, 7, 17, 38),
    7: (10, 23, 75, 11, 159, 44), 11: (18, 15, 13, 136), 13: (15, 19, 184, 54),
    17: (20, 20, 28), 19: (21, 23, 48), 23: (30, 26, 34), 29: (32, 40, 48),
    31: (43, 45, 79), 37: (42, 50), 41: (53, 47), 43: (46, 57), 47: (60, 51),
    53: (58, 58), 59: (61, 62), 61: (63, 78), 67: (79, 73), 71: (82, 79),
    73: (84, 86), 79: (82, 88), 83: (85, 90), 89: (95, 108), 97: (102, 104),
    101: (104, 104), 103: (108,), 107: (112,), 109: (115,), 113: (123,),
    127: (130,), 131: (145,), 137: (143,), 139: (141,), 149: (152,),
    151: (163,), 157: (163,), 163: (174,), 167: (172,), 173: (178,),
    179: (186,), 181: (199,), 191: (210,), 193: (198,), 197: (200,),
    199: (205,), 211: (214,), 223: (228,), 227: (232,), 229: (235,),
    233: (236,), 239: (252,), 241: (254,), 251: (270,), 257: (262,),
    263: (270,), 269: (271,), 271: (292,), 277: (288,), 281: (284,),
    283: (286,), 293: (295,), 307: (312,), 311: (328,), 313: (327,),
    317: (322,), 331: (342,), 337: (352,), 347: (354,), 349: (351,),
    353: (366,), 359: (366,), 367: (373,), 373: (379,), 379: (389,),
    383: (388,), 389: (397,), 397: (410,), 401: (418,), 409: (431,),
    419: (421,), 421: (439,), 431: (438,), 433: (438,), 439: (462,),
    443: (450,), 449: (461,), 457: (472,), 461: (463,), 463: (474,),
    467: (473,), 479: (513,), 487: (497,), 491: (499,), 499: (509,),
    503: (522,), 509: (511,), 521: (527,), 523: (525,), 541: (551,),
    547: (552,), 557: (565,), 563: (568,), 569: (572,), 571: (574,),
    577: (587,), 587: (595,), 593: (596,), 599: (606,), 601: (612,),
    607: (610,), 613: (619,), 617: (643,), 619: (621,), 631: (643,),
    641: (647,), 643: (656,), 647: (657,), 653: (667,), 659: (669,),
    661: (663,), 673: (678,), 677: (680,), 683: (688,), 691: (703,),
    701: (704,), 709: (719,), 719: (738,), 727: (758,), 733: (739,),
    739: (761,), 743: (748,), 751: (763,), 757: (763,), 761: (768,),
    769: (790,), 773: (775,), 787: (789,), 797: (805,), 809: (821,),
    811: (821,), 821: (824,), 823: (837,), 827: (833,), 829: (831,),
    839: (850,), 853: (855,), 857: (862,), 859: (861,), 863: (868,),
    877: (882,), 881: (896,), 883: (911,), 887: (897,), 907: (912,),
    911: (948,), 919: (934,), 929: (936,), 937: (948,), 941: (943,),
    947: (966,), 953: (958,), 967: (995,), 971: (977,), 977: (983,),
    983: (994,), 991: (1002,), 997: (1008,), 1009: (1020,), 1013: (1020,),
    1019: (1025,), 1021: (1031,),
}
PRIMITIVE_CODES = {(p, m): code for p, codes in _CODES_BY_PRIME.items()
                   for m, code in enumerate(codes, 2)}


def primitive_modulus(p: int, m: int) -> Tuple[int, ...]:
    """Coefficients, low degree first, of the modulus of F_{p^m}: read from
    PRIMITIVE_CODES when m >= 2, found by least_primitive_code for a prime
    field.  The one place a modulus is chosen."""
    code = PRIMITIVE_CODES[p, m] if m > 1 else least_primitive_code(p, 1)
    return _monic(code, p, m)


@lru_cache(maxsize=None)
def trace_sequence(p: int, m: int) -> Tuple[np.ndarray, np.ndarray]:
    """The absolute-trace m-sequence of F_{p^m} and its window codes, as
    read-only int64 arrays over t < M = p^m - 1:

        seq[t] = Tr(alpha^t),   windows[t] = sum_{i<m} seq[t+i] p^i.

    windows[t] lists the coordinates Tr(alpha^t alpha^i) of alpha^t in the
    dual basis, so t -> windows[t] is an F_p-linear bijection onto the
    nonzero codes: the code of a sum is the digit-wise sum mod p of the
    codes, and the code is 0 only for the zero element.

    Cached per field.  Refused above the budget before any work; raises
    RuntimeError when the M windows are not the codes 1 .. p^m - 1 each
    once, or when the sequence does not return to seq[0] after M steps.
    """
    check_field_budget(p, m)
    if not is_prime(p) or m < 1:
        raise ValueError(f"no field F_{p}^{m}")
    c = primitive_modulus(p, m)
    M = p ** m - 1
    total = M + m  # one full period, the wrapped windows and the closure
    # sums of m products below p fit the dtype of every step
    work = np.min_scalar_type(m * (p - 1) ** 2)
    s = np.zeros(total, dtype=work)
    # the recurrence s[t] = -sum_i c_i s[t-m+i] advances n steps at once
    # through x^n mod modulus = sum_l k_l x^l: s[t+n] = sum_l k_l s[t+l].
    # A first stretch of n + m - 1 values, n >= m - 1 a power of 2, comes
    # term by term: Newton's identities give the power sums s[t], t <= m,
    # of the roots alpha^(p^j), and the recurrence the rest.
    n = 1 << max(m - 2, 0).bit_length()
    first = [m % p]
    for t in range(1, min(n + m - 1, total)):
        acc = t * c[m - t] if t <= m else 0
        for i in range(1, min(t - 1, m) + 1):
            acc += c[m - i] * first[t - i]
        first.append(-acc % p)
    s[:len(first)] = first
    Cn = _companion(c, p)  # row 0 of C^n is x^n mod modulus
    for _ in range(n.bit_length() - 1):
        Cn = Cn @ Cn % p

    def advance(k, start, length):
        # s[start : start + length] from the windows at t < length,
        # start steps back
        acc = np.zeros(length, dtype=work)
        for l, kl in enumerate(k.tolist()):
            if kl:
                acc += s[l:l + length] * kl if kl > 1 else s[l:l + length]
        np.remainder(acc, p, out=s[start:start + length])

    while n + m - 1 < total:
        # known: s[:n + m - 1]; then s[n:2n] at shift n, and the m - 1
        # values past 2n at shift 2n, from windows t < m - 1 <= n
        advance(Cn[0], n, min(n, total - n))
        Cn = Cn @ Cn % p
        if 2 * n < total:
            advance(Cn[0], 2 * n, min(m - 1, total - 2 * n))
        n *= 2
    windows = s[m - 1:m - 1 + M].astype(np.int64)
    for i in range(m - 2, -1, -1):
        windows *= p
        windows += s[i:i + M]
    # M windows fill the M nonzero codes only if none repeats
    seen = np.zeros(M + 1, dtype=bool)
    seen[windows] = True
    if seen[0] or not seen[1:].all():
        raise RuntimeError("modulus is not primitive (cycle repeats)")
    if not np.array_equal(s[M:], s[:m]):
        raise RuntimeError("alpha cycle does not close at order p^m - 1")
    seq = s[:M].astype(np.int64)
    for table in (seq, windows):
        table.flags.writeable = False
    return seq, windows


def _digit_sum(codes: np.ndarray, indices, p: int, m: int) -> np.ndarray:
    """Digit-wise sum mod p of codes[index] over the indices (arrays, ints
    or slices) that `indices` yields, for base-p codes of m digits: the
    window code of a sum of elements, folded in one term at a time.  XOR
    when p = 2.

    Otherwise digit i of each code moves to bits [B i, B i + B), B wide
    enough for a sum of m digits below p, so that integer addition adds
    the codes digit-wise; B m <= 60 for every odd p within the budget.
    Digit i of x is x // p^i - p (x // p^(i+1)), and the sums are read back
    mod p through a table: numpy divides by a scalar and gathers faster
    than it takes a remainder."""
    it = iter(indices)
    if p == 2:
        out = codes[next(it)].copy()
        for index in it:
            out ^= codes[index]
        return out
    B = (m * (p - 1)).bit_length()
    spread = np.zeros_like(codes)
    for i in range(m):
        spread |= (codes // p ** i - codes // p ** (i + 1) * p) << B * i
    sums = spread[next(it)].copy()
    for index in it:
        sums += spread[index]
    out = np.zeros_like(sums)
    residue = np.arange(1 << B) % p
    for i in range(m):
        out += residue[sums >> B * i & (1 << B) - 1] * p ** i
    return out


def _add_code(codes: np.ndarray, code: int, p: int, m: int) -> np.ndarray:
    """Digit-wise sum mod p of every base-p code in `codes` with the one
    code `code`, for codes of m digits.  XOR when p = 2.

    Otherwise the plain integer sum is right but for the carries: where
    digit i of x, x // p^i - p (x // p^(i+1)), reaches p - c_i, the digit
    i + 1 took a carry of p^(i+1), which is taken back.  Only the nonzero
    digits c_i of `code` cost array work."""
    if p == 2:
        return codes ^ code
    out = codes + code
    for i in range(m):
        c = code // p ** i % p
        if c:
            digit = codes // p ** i - codes // p ** (i + 1) * p
            out -= (digit >= p - c) * p ** (i + 1)
    return out


@lru_cache(maxsize=None)
def relative_trace_codes(p: int, m: int, from_deg: int,
                         to_deg: int) -> np.ndarray:
    """Read-only int64 array over c < p^from_deg - 1: the window code of
    Tr_{p^from_deg/p^to_deg}(g^c) in F_{p^m}, g = alpha^((p^m - 1) /
    (p^from_deg - 1)); 0 exactly where the trace vanishes.  Cached.

    The trace is the sum of the conjugates g^(c s^j), s = p^to_deg, so its
    code is the digit-wise sum of theirs, the codes of the g^c at the
    indices c s^j mod (p^from_deg - 1).  No division by from_deg / to_deg
    is needed, so it is exact whether or not p divides it."""
    if from_deg % to_deg or m % from_deg:
        raise ValueError(f"degrees must nest: {to_deg} | {from_deg} | {m}")
    _, windows = trace_sequence(p, m)
    M, Mf = p ** m - 1, p ** from_deg - 1
    c = np.arange(Mf, dtype=np.int64)
    codes = _digit_sum(windows[::M // Mf],
                       (c * pow(p, to_deg * j, Mf) % Mf
                        for j in range(from_deg // to_deg)), p, m)
    codes.flags.writeable = False
    return codes


@lru_cache(maxsize=None)
def trace_zero_indicator(p: int, m: int, to_deg: int) -> np.ndarray:
    """Read-only uint8 array over exponents u < p^m - 1: 1 where the trace
    of alpha^u down to F_{p^to_deg} vanishes.  Cached.

    With g generating F_{p^to_deg}^*, the g^i (i < to_deg) are an F_p-basis
    of F_{p^to_deg}, so Tr_{m/to_deg}(x) = 0 exactly when Tr_{m/1}(g^i x) = 0
    for every i < to_deg.
    """
    if m % to_deg:
        raise ValueError(f"degrees must nest: {to_deg} | {m}")
    seq, _ = trace_sequence(p, m)
    step = (p ** m - 1) // (p ** to_deg - 1)
    zero = seq == 0
    for i in range(1, to_deg):
        zero &= np.roll(seq, -i * step) == 0
    ind = zero.astype(np.uint8)
    ind.flags.writeable = False
    return ind


@lru_cache(maxsize=None)
def subfield_element(p: int, m: int, deg: int, index: int
                     ) -> Tuple[Element, int]:
    """Field(p, m).subfield_element_from_index(index, deg) and its window
    code, from the trace sequence: the element sum_j d_j g^j over the
    base-p digits d_j of index, g = alpha^step generating F_{p^deg}^*,
    step = (p^m - 1) / (p^deg - 1).  Its code is the digit-wise sum of the
    d_j-fold codes of g^j, and its exponent the one multiple of step whose
    window holds that code.  Cached."""
    if m % deg or not 0 <= index < p ** deg:
        raise ValueError(f"index {index} out of range for subfield size "
                         f"{p ** deg}")
    if index == 0:
        return None, 0
    _, windows = trace_sequence(p, m)
    step = (p ** m - 1) // (p ** deg - 1)
    digits = [0] * m
    for j in range(deg):
        d = index // p ** j % p
        if d:
            w = windows.item(j * step)
            for i in range(m):
                digits[i] += d * (w // p ** i % p)
    code = sum(x % p * p ** i for i, x in enumerate(digits))
    return step * int(np.flatnonzero(windows[::step] == code)[0]), code


class Field:
    """F_{p^m} with log and Zech tables over the window codes of its trace
    sequence: alpha_powers[t] is the code of alpha^t, _dlog maps a code
    back to its exponent (-1 at code 0, the zero element), and
    1 + alpha^t = alpha^zech[t]."""

    def __init__(self, p: int, m: int):
        check_field_budget(p, m)
        if not is_prime(p):
            raise ValueError(f"p must be prime, got {p}")
        if m < 1:
            raise ValueError(f"extension degree must be positive, got {m}")
        self.p = p
        self.m = m
        self.order = p ** m
        self.mult_order = M = self.order - 1
        self.modulus = primitive_modulus(p, m)
        # trace_sequence has checked that the windows are the nonzero
        # codes, each once
        seq, windows = trace_sequence(p, m)
        dlog = np.full(self.order, -1, dtype=np.int64)
        dlog[windows] = np.arange(M)
        # the code of 1 + alpha^t is windows[t] plus windows[0], the code
        # of 1, digit-wise; the one t with alpha^t = -1 reaches code 0,
        # where dlog holds -1 for zero
        zech = dlog[_add_code(windows, windows.item(0), p, m)]
        for table in (dlog, zech):
            table.flags.writeable = False
        self.alpha_powers = windows
        self._dlog = dlog
        self.zech = zech
        self._seq = seq
        # Tr(c alpha^u) = c for c in F_p once Tr(alpha^u) = 1
        self._unit = int(np.argmax(seq == 1))
        self._subtables: Dict[Tuple[int, int], np.ndarray] = {}

    # -- elements -------------------------------------------------------

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
        return self._seq.item((x + self._unit) % self.mult_order)

    def element_from_residue(self, c: int) -> Element:
        p = self.p
        c %= p
        if c == 0:
            return None
        # the code of c is c times the code of 1, digit-wise
        one = self.alpha_powers.item(0)
        return self._dlog.item(sum(c * (one // p ** i % p) % p * p ** i
                                   for i in range(self.m)))

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

        The shared relative_trace_codes of the pair, mapped back through
        the log table.
        """
        self._check_degrees(from_deg, to_deg)
        tab = self._subtables.get((from_deg, to_deg))
        if tab is None:
            tab = self._dlog[relative_trace_codes(self.p, self.m, from_deg,
                                                  to_deg)]
            tab.flags.writeable = False
            self._subtables[(from_deg, to_deg)] = tab
        return tab

    def trace_zero_indicator(self, to_deg: int) -> np.ndarray:
        """The shared trace_zero_indicator(p, m, to_deg) of this field."""
        self._check_degrees(self.m, to_deg)
        return trace_zero_indicator(self.p, self.m, to_deg)

    def abs_trace_residues(self) -> np.ndarray:
        """Read-only int64 array over exponents u: Tr_{p^m/p}(alpha^u) as a
        residue; the shared trace_sequence of this field."""
        return self._seq

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
