"""GF(2^m) field arithmetic: axioms and polynomial helpers."""

from __future__ import annotations

import gc
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ecc.bch import BchCode
from repro.ecc.gf import (
    GF2m,
    PRIMITIVE_POLYS,
    poly2_degree,
    poly2_divmod,
    poly2_gcd,
    poly2_lcm,
    poly2_mod,
    poly2_mul,
)

FIELD = GF2m(8)
elements = st.integers(min_value=0, max_value=FIELD.size - 1)
nonzero = st.integers(min_value=1, max_value=FIELD.size - 1)
polys = st.integers(min_value=0, max_value=(1 << 24) - 1)
nonzero_polys = st.integers(min_value=1, max_value=(1 << 24) - 1)


class TestFieldConstruction:
    @pytest.mark.parametrize("m", sorted(PRIMITIVE_POLYS))
    def test_exp_log_roundtrip(self, m):
        field = GF2m(m)
        for power in range(0, field.order, max(1, field.order // 97)):
            element = field.exp[power]
            assert field.log[element] == power

    @pytest.mark.parametrize("m", [3, 5, 10])
    def test_alpha_generates_whole_group(self, m):
        field = GF2m(m)
        seen = {field.exp[p] for p in range(field.order)}
        assert len(seen) == field.order
        assert 0 not in seen

    def test_unsupported_m_rejected(self):
        with pytest.raises(ValueError):
            GF2m(1)
        with pytest.raises(ValueError):
            GF2m(20)


class TestFieldAxioms:
    @given(a=elements, b=elements)
    def test_mul_commutes(self, a, b):
        assert FIELD.mul(a, b) == FIELD.mul(b, a)

    @given(a=elements, b=elements, c=elements)
    @settings(max_examples=200)
    def test_mul_associates(self, a, b, c):
        assert FIELD.mul(FIELD.mul(a, b), c) == FIELD.mul(a, FIELD.mul(b, c))

    @given(a=elements, b=elements, c=elements)
    @settings(max_examples=200)
    def test_mul_distributes_over_xor(self, a, b, c):
        left = FIELD.mul(a, b ^ c)
        right = FIELD.mul(a, b) ^ FIELD.mul(a, c)
        assert left == right

    @given(a=elements)
    def test_one_is_identity(self, a):
        assert FIELD.mul(a, 1) == a

    @given(a=nonzero)
    def test_inverse(self, a):
        assert FIELD.mul(a, FIELD.inv(a)) == 1

    @given(a=nonzero, b=nonzero)
    def test_div_inverts_mul(self, a, b):
        assert FIELD.div(FIELD.mul(a, b), b) == a

    @given(a=elements)
    def test_mul_by_zero(self, a):
        assert FIELD.mul(a, 0) == 0

    def test_zero_division_raises(self):
        with pytest.raises(ZeroDivisionError):
            FIELD.div(5, 0)
        with pytest.raises(ZeroDivisionError):
            FIELD.inv(0)

    @given(a=nonzero, e=st.integers(min_value=-10, max_value=10))
    def test_pow_matches_repeated_mul(self, a, e):
        expected = 1
        base = a if e >= 0 else FIELD.inv(a)
        for __ in range(abs(e)):
            expected = FIELD.mul(expected, base)
        assert FIELD.pow(a, e) == expected


class TestMinimalPolynomials:
    def test_minimal_poly_annihilates_its_coset(self):
        field = GF2m(6)
        for i in (1, 3, 5, 9):
            mask = field.minimal_polynomial(i)
            coeffs = [(mask >> d) & 1 for d in range(mask.bit_length())]
            for j in field.cyclotomic_coset(i):
                assert field.poly_eval(coeffs, field.alpha_pow(j)) == 0

    def test_coset_closed_under_doubling(self):
        field = GF2m(8)
        coset = field.cyclotomic_coset(3)
        assert sorted((j * 2) % field.order for j in coset) == sorted(coset)

    def test_minimal_poly_degree_equals_coset_size(self):
        field = GF2m(10)
        for i in (1, 5, 33):
            mask = field.minimal_polynomial(i)
            assert poly2_degree(mask) == len(field.cyclotomic_coset(i))



class TestLifetime:
    """The minimal-polynomial memo must not keep fields (and their tables)
    alive: a class-level cache on the method once did, and every scheme a
    provisioning sweep built leaked one."""

    def test_dropped_field_is_collected(self):
        field = GF2m(10)
        field.minimal_polynomial(3)
        ref = weakref.ref(field)
        del field
        gc.collect()
        assert ref() is None

    def test_dropped_code_is_collected(self):
        code = BchCode(512, 4)
        refs = [weakref.ref(code), weakref.ref(code.field)]
        del code
        gc.collect()
        assert all(ref() is None for ref in refs)


class TestPoly2:
    @given(a=polys, b=polys)
    def test_mul_degree(self, a, b):
        product = poly2_mul(a, b)
        if a == 0 or b == 0:
            assert product == 0
        else:
            assert poly2_degree(product) == poly2_degree(a) + poly2_degree(b)

    @given(a=polys, b=nonzero_polys)
    def test_divmod_reconstructs(self, a, b):
        quotient, remainder = poly2_divmod(a, b)
        assert poly2_mul(quotient, b) ^ remainder == a
        assert remainder == poly2_mod(a, b)
        if remainder:
            assert poly2_degree(remainder) < poly2_degree(b)

    @given(a=nonzero_polys, b=nonzero_polys)
    def test_gcd_divides_both(self, a, b):
        g = poly2_gcd(a, b)
        assert poly2_mod(a, g) == 0
        assert poly2_mod(b, g) == 0

    @given(a=nonzero_polys, b=nonzero_polys)
    def test_lcm_is_common_multiple(self, a, b):
        m = poly2_lcm(a, b)
        assert poly2_mod(m, a) == 0
        assert poly2_mod(m, b) == 0
        # lcm * gcd == a * b over GF(2)[x]
        assert poly2_mul(m, poly2_gcd(a, b)) == poly2_mul(a, b)

    def test_divide_by_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            poly2_mod(7, 0)
        with pytest.raises(ZeroDivisionError):
            poly2_divmod(7, 0)
