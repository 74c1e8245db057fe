"""Quadratic Gauss sums G(a, b), the Jacobi symbol and the epsilon factor.

The classical Gauss sum is the case a = 1: G(n) = G(1, n), so the paper's
closed form vol(P) G(n)^d reads quad_gauss_closed(1, n).  Each sum has a
literal evaluation next to its closed form so the two can be cross-checked;
the closed form is what the fast paths use.  The literal sum reduces each
term's argument a*k^2 mod b in exact integer arithmetic before any
trigonometry, which keeps the error at O(b) ulps instead of O(b^3).
"""

from __future__ import annotations

import cmath
import math
import operator
from functools import lru_cache

from .errors import EvenInput, EvenModulus, UndefinedCase

ComplexValue = complex


@lru_cache(maxsize=256)
def _kept_phases(n: int) -> tuple[complex, ...]:
    return tuple(cmath.exp(2j * math.pi * k / n) for k in range(n))


def phase_table(n: int) -> tuple[complex, ...]:
    """e(k/n) = exp(2 pi i k / n) for k = 0..n-1.  A table holds about
    40 n bytes, so only those for n <= 2^10 are kept (at most 10 MB)."""
    return _kept_phases(n) if n <= 1 << 10 else _kept_phases.__wrapped__(n)


phase_table.cache_info, phase_table.cache_clear = _kept_phases.cache_info, _kept_phases.cache_clear


def jacobi_symbol(a: int, b: int) -> int:
    """Jacobi symbol (a/b) for odd positive b, by reciprocity reduction."""
    if b <= 0 or b % 2 == 0:
        raise EvenModulus(f"Jacobi symbol needs odd positive modulus, got {b}")
    a %= b
    sign = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if b % 8 in (3, 5):
                sign = -sign
        a, b = b, a
        if a % 4 == 3 and b % 4 == 3:
            sign = -sign
        a %= b
    return sign if b == 1 else 0


def epsilon(m: int) -> ComplexValue:
    """1 for m = 1 mod 4, i for m = 3 mod 4."""
    if m % 2 == 0:
        raise EvenInput(f"epsilon factor needs an odd argument, got {m}")
    return 1 + 0j if m % 4 == 1 else 1j


def _arguments(a: int, b: int) -> tuple[int, int]:
    """(a, b) as built-in ints with b >= 1, else UndefinedCase; numpy
    integers count, bools and other numbers do not."""
    try:
        if isinstance(a, bool) or isinstance(b, bool):
            raise TypeError
        a, b = operator.index(a), operator.index(b)
    except TypeError:
        raise UndefinedCase(f"G(a, b) needs integers, got a={a!r}, b={b!r}") from None
    if b < 1:
        raise UndefinedCase(f"modulus must be positive, got {b}")
    return a, b


def quad_gauss_direct(a: int, b: int) -> ComplexValue:
    """G(a,b) = sum over k mod b of e(a k^2 / b), summed literally."""
    a, b = _arguments(a, b)
    table = phase_table(b)
    re = math.fsum(table[(a * k * k) % b].real for k in range(b))
    im = math.fsum(table[(a * k * k) % b].imag for k in range(b))
    return complex(re, im)


def quad_gauss_closed(a: int, b: int) -> ComplexValue:
    """Closed form of G(a,b).

    After reducing a mod b and pulling out d = gcd(a,b) via
    G(a,b) = d G(a/d, b/d), the coprime pair falls into one of three cases:
    b = 2 mod 4 gives 0; odd b gives eps_b sqrt(b) (a/b); b = 0 mod 4 gives
    (1+i) eps_a^{-1} sqrt(b) (b/a), with eps odd-only and (./.) the Jacobi
    symbol.  eps^{-1} is the conjugate since eps is 1 or i.
    """
    a, b = _arguments(a, b)
    a %= b
    if a == 0:
        return complex(b, 0.0)
    d = math.gcd(a, b)
    a, b = a // d, b // d
    if b % 4 == 2:
        return 0j
    if b % 2 == 1:
        return d * epsilon(b) * math.sqrt(b) * jacobi_symbol(a, b)
    # b = 0 mod 4, so a, coprime to b, is odd
    return d * (1 + 1j) * epsilon(a).conjugate() * math.sqrt(b) * jacobi_symbol(b, a)
