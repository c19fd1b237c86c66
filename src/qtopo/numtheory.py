"""Exact modular arithmetic, quadratic characters, and scalar Gauss sums.

Every modulus is a ModK, 2 <= k < 3.3e24, and each caller states what it
needs of k: an odd prime power for the Abelian invariant, an odd prime for
the characters and the closed form. A ModK costs one primality test; the
generator search and discrete log take O(sqrt(k)) and the brute sum O(k).
Phases come from an exact integer residue mod k, converted to an angle once.

All functions are pure and all value types immutable; safe for concurrent
use from any number of threads.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

# Witness set making Miller-Rabin deterministic for n < _PROVEN_BELOW (about 3.3e24).
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_PROVEN_BELOW = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test (exact for n < 3.3e24)."""
    if n <= _MR_WITNESSES[-1]:
        return n in _MR_WITNESSES
    if any(n % w == 0 for w in _MR_WITNESSES):
        return False
    if n < 41 * 41:  # no prime factor up to 37, so not composite
        return True
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for w in _MR_WITNESSES:
        x = pow(w, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def require_odd_prime(k: int) -> None:
    """Raise ValueError unless k is an odd prime that ModK.from_modulus accepts."""
    if ModK.from_modulus(k).p != k or k == 2:
        raise ValueError(f"{k} is not an odd prime")


def require_coprime(a: int, k: int) -> None:
    """Raise ValueError unless gcd(a, k) = 1, where the Fourier transform with multiplier a is unitary."""
    if math.gcd(a, k) != 1:
        raise ValueError(f"{a} is not coprime to k={k}")


def _prime_factors(n: int) -> list[int]:
    """Distinct prime factors by trial division (desk-scale n)."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


@dataclass(frozen=True)
class ModK:
    """A modulus 2 <= k < 3.3e24, where is_prime and float roots are exact; k = p**e for a prime p, or p = e = 0."""

    k: int
    p: int = field(init=False)
    e: int = field(init=False)

    def __post_init__(self) -> None:
        k = self.k
        if not 2 <= k < _PROVEN_BELOW:
            raise ValueError(f"modulus {k} must be >= 2 and below {_PROVEN_BELOW:.2g}, where primality is proven")
        p, e = k, 1
        if not is_prime(k):
            for f in range(2, k.bit_length()):  # every f with 2**f <= k; the last exact root is no power
                root = round(k ** (1.0 / f))
                if root**f == k:
                    p, e = root, f
            if e == 1 or not is_prime(p):
                p = e = 0
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "e", e)

    @classmethod
    def from_modulus(cls, k: int) -> "ModK":
        """The modulus k; raises ValueError unless 2 <= k < 3.3e24."""
        return cls(k)

    def require_odd_prime_power(self) -> None:
        """Raise ValueError unless k is a power of an odd prime."""
        if self.p < 3:
            raise ValueError(f"modulus {self.k} is not a power of a single odd prime")

    def valuation(self, n: int) -> int:
        """p-adic valuation of n mod k, capped at e (the valuation of 0); k must be a prime power."""
        n %= self.k
        if n == 0 and self.p:
            return self.e
        v = 0
        try:
            while n % self.p == 0:
                n //= self.p
                v += 1
        except ZeroDivisionError:  # p = 0: k has two prime factors, whatever n is
            raise ValueError(f"modulus {self.k} is not a prime power") from None
        return v


@dataclass(frozen=True)
class Character:
    """Legendre-symbol character table for an odd prime modulus.

    table[n] is +1 on nonzero quadratic residues, -1 on non-residues and
    0 at n = 0.
    """

    k: int
    table: tuple[int, ...]

    @classmethod
    def legendre(cls, k: int) -> "Character":
        require_odd_prime(k)
        table = [-1] * k
        table[0] = 0
        for x in range(1, (k + 1) // 2):  # x and k-x share a square, so half the residues cover them all
            table[x * x % k] = 1
        return cls(k=k, table=tuple(table))


def legendre_chi(n: int, k: int) -> int:
    """Legendre symbol (n/k) for an odd prime k, via Euler's criterion.

    Returns +1 for nonzero quadratic residues, -1 for non-residues, 0 when
    k divides n.
    """
    require_odd_prime(k)
    n %= k
    if n == 0:
        return 0
    r = pow(n, (k - 1) // 2, k)
    return -1 if r == k - 1 else r


def primitive_root(k: int) -> int:
    """Smallest generator of the multiplicative group mod an odd prime k."""
    require_odd_prime(k)
    return next(g for g in range(2, k) if is_generator(g, k))


def is_generator(g: int, k: int) -> bool:
    """Whether g generates the multiplicative group mod the odd prime k."""
    require_odd_prime(k)
    g %= k
    if g == 0:
        return False
    return all(pow(g, (k - 1) // q, k) != 1 for q in _prime_factors(k - 1))


def discrete_log(n: int, g: int, k: int) -> int:
    """Exponent x in [0, k-1) with g**x = n (mod k), by baby-step/giant-step.

    O(sqrt(k)) time and space. g must be a generator of the group; n must
    be nonzero mod k.
    """
    require_odd_prime(k)
    n %= k
    if n == 0:
        raise ValueError("discrete log of 0 is undefined")
    if not is_generator(g, k):
        raise ValueError(f"{g} is not a generator mod {k}")
    order = k - 1
    step = math.isqrt(order) + 1
    baby = {}
    cur = 1
    for j in range(step):
        baby.setdefault(cur, j)
        cur = cur * g % k
    giant = pow(g, -step, k)
    y = n
    for i in range(step + 1):
        if y in baby:
            return (i * step + baby[y]) % order
        y = y * giant % k
    raise ValueError(f"discrete log of {n} base {g} mod {k} not found")  # unreachable


def gauss_sum_brute(k: int, a: int) -> complex:
    """Quadratic Gauss sum over n in [0, k) with negative exponent convention.

    Sums exp(-2*pi*i * a*n**2 / k) by direct enumeration, reducing a*n**2
    modulo k in exact integer arithmetic before the angle conversion. Any
    modulus k >= 2 is accepted so the function can serve as an oracle.
    """
    if k < 2:
        raise ValueError(f"modulus {k} must be >= 2")
    a %= k
    step = -2.0 * math.pi / k
    acc = 0.0 + 0.0j
    for n in range(k):
        acc += cmath.exp(1j * (step * (a * n * n % k)))
    return acc


def gauss_sum_closed(k: int, a: int) -> complex:
    """Closed form of the quadratic Gauss sum for an odd prime modulus.

    Equals chi(a) * conj(eps_k) * sqrt(k), where eps_k is 1 for k = 1 (mod 4)
    and i for k = 3 (mod 4); the conjugate matches the negative exponent
    convention of gauss_sum_brute. Requires gcd(a, k) = 1.
    """
    require_odd_prime(k)
    require_coprime(a, k)
    eps_conj = 1.0 + 0.0j if k % 4 == 1 else -1.0j
    return legendre_chi(a, k) * eps_conj * math.sqrt(k)
