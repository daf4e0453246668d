"""GF(2^m) arithmetic via log/antilog tables.

Everything BCH needs: field element multiply/divide/power, minimal
polynomials of field elements (over GF(2)), and carry-less GF(2)[x]
polynomial arithmetic on int bitmasks (bit i of the mask is the coefficient
of x^i).
"""

from __future__ import annotations

#: Standard primitive polynomials (bitmask includes the x^m term).
PRIMITIVE_POLYS = {
    2: 0b111,
    3: 0b1011,
    4: 0b10011,
    5: 0b100101,
    6: 0b1000011,
    7: 0b10001001,
    8: 0b100011101,
    9: 0b1000010001,
    10: 0b10000001001,
    11: 0b100000000101,
    12: 0b1000001010011,
    13: 0b10000000011011,
    14: 0b100010001000011,
}


class GF2m:
    """The field GF(2^m), constructed from a primitive polynomial.

    Elements are ints in ``[0, 2^m)``.  ``alpha`` (the residue of x) is a
    generator of the multiplicative group; exp/log tables make multiply and
    inverse O(1).
    """

    def __init__(self, m: int):
        if m not in PRIMITIVE_POLYS:
            raise ValueError(
                f"m={m} unsupported; choose one of {sorted(PRIMITIVE_POLYS)}"
            )
        self.m = m
        self.size = 1 << m
        self.order = self.size - 1  # multiplicative group order
        self.primitive_poly = PRIMITIVE_POLYS[m]

        self.exp = [0] * (2 * self.order)
        self.log = [0] * self.size
        value = 1
        for power in range(self.order):
            self.exp[power] = value
            self.log[value] = power
            value <<= 1
            if value & self.size:
                value ^= self.primitive_poly
        if value != 1:
            raise AssertionError(f"polynomial for m={m} is not primitive")
        # Duplicate the table so exp[a + b] never needs a mod.
        for power in range(self.order, 2 * self.order):
            self.exp[power] = self.exp[power - self.order]
        # Per-instance, so a dropped field frees its tables with it.
        self._minimal_polynomials: dict[int, int] = {}

    # -- element arithmetic ------------------------------------------------

    def mul(self, a: int, b: int) -> int:
        """Field product."""
        if a == 0 or b == 0:
            return 0
        return self.exp[self.log[a] + self.log[b]]

    def div(self, a: int, b: int) -> int:
        """Field quotient a / b."""
        if b == 0:
            raise ZeroDivisionError("division by zero in GF(2^m)")
        if a == 0:
            return 0
        return self.exp[(self.log[a] - self.log[b]) % self.order]

    def inv(self, a: int) -> int:
        """Multiplicative inverse."""
        if a == 0:
            raise ZeroDivisionError("zero has no inverse")
        return self.exp[(self.order - self.log[a]) % self.order]

    def pow(self, a: int, exponent: int) -> int:
        """a ** exponent (exponent may be negative)."""
        if a == 0:
            if exponent == 0:
                return 1
            if exponent < 0:
                raise ZeroDivisionError("0 ** negative")
            return 0
        return self.exp[(self.log[a] * exponent) % self.order]

    def alpha_pow(self, exponent: int) -> int:
        """alpha ** exponent, the workhorse of syndrome evaluation."""
        return self.exp[exponent % self.order]

    # -- polynomials with coefficients in this field -------------------------
    # Represented as lists, index = degree.

    def poly_eval(self, coeffs: list[int], x: int) -> int:
        """Evaluate sum(coeffs[i] * x^i) by Horner's rule."""
        acc = 0
        for coeff in reversed(coeffs):
            acc = self.mul(acc, x) ^ coeff
        return acc

    def poly_mul(self, a: list[int], b: list[int]) -> list[int]:
        """Product of two coefficient lists."""
        if not a or not b:
            return []
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca == 0:
                continue
            for j, cb in enumerate(b):
                if cb:
                    out[i + j] ^= self.mul(ca, cb)
        return out

    # -- minimal polynomials -----------------------------------------------------

    def cyclotomic_coset(self, i: int) -> list[int]:
        """The 2-cyclotomic coset of ``i`` modulo 2^m - 1."""
        i %= self.order
        coset = []
        j = i
        while True:
            coset.append(j)
            j = (j * 2) % self.order
            if j == i:
                break
        return coset

    def minimal_polynomial(self, i: int) -> int:
        """Minimal polynomial of alpha^i over GF(2), as an int bitmask.

        Computed as prod_{j in coset(i)} (x - alpha^j); the product has all
        coefficients in GF(2) by Galois theory, which we assert.  Memoized
        on the instance.
        """
        cached = self._minimal_polynomials.get(i)
        if cached is not None:
            return cached
        coset = self.cyclotomic_coset(i)
        poly = [1]  # constant 1
        for j in coset:
            poly = self.poly_mul(poly, [self.alpha_pow(j), 1])  # (alpha^j + x)
        mask = 0
        for degree, coeff in enumerate(poly):
            if coeff not in (0, 1):
                raise AssertionError("minimal polynomial has non-binary coefficient")
            if coeff:
                mask |= 1 << degree
        self._minimal_polynomials[i] = mask
        return mask


# ---------------------------------------------------------------------------
# GF(2)[x] arithmetic on int bitmasks (bit i = coefficient of x^i)
# ---------------------------------------------------------------------------


def poly2_degree(poly: int) -> int:
    """Degree of a GF(2) polynomial bitmask (-1 for the zero polynomial)."""
    return poly.bit_length() - 1


def poly2_mul(a: int, b: int) -> int:
    """Carry-less product of two GF(2) polynomials."""
    out = 0
    while b:
        if b & 1:
            out ^= a
        a <<= 1
        b >>= 1
    return out


def poly2_mod(a: int, b: int) -> int:
    """Remainder of GF(2) polynomial division a mod b."""
    if b == 0:
        raise ZeroDivisionError("polynomial modulo zero")
    deg_b = poly2_degree(b)
    while poly2_degree(a) >= deg_b:
        a ^= b << (poly2_degree(a) - deg_b)
    return a


def poly2_lcm(a: int, b: int) -> int:
    """Least common multiple of two GF(2) polynomials."""
    if a == 0 or b == 0:
        return 0
    quotient, remainder = poly2_divmod(poly2_mul(a, b), poly2_gcd(a, b))
    if remainder:
        raise AssertionError("gcd does not divide product")
    return quotient


def poly2_gcd(a: int, b: int) -> int:
    """Greatest common divisor of two GF(2) polynomials."""
    while b:
        a, b = b, poly2_mod(a, b)
    return a


def poly2_divmod(a: int, b: int) -> tuple[int, int]:
    """Quotient and remainder of GF(2) polynomial division."""
    if b == 0:
        raise ZeroDivisionError("polynomial division by zero")
    deg_b = poly2_degree(b)
    quotient = 0
    while poly2_degree(a) >= deg_b:
        shift = poly2_degree(a) - deg_b
        quotient |= 1 << shift
        a ^= b << shift
    return quotient, a
