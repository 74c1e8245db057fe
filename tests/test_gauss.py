import cmath
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from polygauss.errors import EvenInput, EvenModulus, UndefinedCase
from polygauss.gauss import (
    epsilon,
    jacobi_symbol,
    phase_table,
    quad_gauss_closed,
    quad_gauss_direct,
)
from polygauss.polysum import polyhedral_gauss_sum_direct

ODD_PRIMES = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31]


def test_phase_table():
    table = phase_table(12)
    assert len(table) == 12
    assert table[0] == 1
    assert table[3] == pytest.approx(1j, abs=1e-15)
    assert all(abs(abs(z) - 1) < 1e-15 for z in table)


def test_phase_table_keeps_no_large_table(unit_interval):
    # a table of n ~ 5e4 phases holds about 2 MB, and the direct route on
    # the unit segment asks for one per n
    phase_table.cache_clear()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for n in (50_021, 50_023, 50_033):
            assert polyhedral_gauss_sum_direct(unit_interval, n).point_count == n + 1
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained < 1 << 20
    assert phase_table.cache_info().currsize == 0
    assert phase_table(12) is phase_table(12)
    assert phase_table.cache_info().hits == 1


@pytest.mark.parametrize(
    "n,value",
    [
        (1, 1),
        (2, 0),
        (3, 1j * math.sqrt(3)),
        (4, 2 + 2j),
        (5, math.sqrt(5)),
        (6, 0),
        (7, 1j * math.sqrt(7)),
        (8, 2 * math.sqrt(2) * (1 + 1j)),
        (9, 3),
    ],
)
def test_classical_branch_values(n, value):
    assert quad_gauss_closed(1, n) == pytest.approx(value, abs=1e-12)


def test_classical_direct_matches_closed():
    for n in range(1, 101):
        assert abs(quad_gauss_direct(1, n) - quad_gauss_closed(1, n)) < 1e-9


def test_quadratic_direct_matches_closed():
    for b in range(1, 41):
        for a in range(-b, 2 * b + 1):
            assert abs(quad_gauss_direct(a, b) - quad_gauss_closed(a, b)) < 1e-9, (
                a,
                b,
            )


def test_quadratic_zero_numerator():
    assert quad_gauss_closed(0, 7) == 7
    assert quad_gauss_closed(14, 7) == 7


def test_quadratic_gcd_pull_out():
    # G(2,6) = 2 G(1,3)
    assert quad_gauss_closed(2, 6) == pytest.approx(2j * math.sqrt(3), abs=1e-12)
    assert quad_gauss_closed(3, 12) == pytest.approx(
        3 * quad_gauss_closed(1, 4), abs=1e-12
    )


def test_jacobi_matches_euler_criterion():
    for p in ODD_PRIMES:
        for a in range(p):
            ls = pow(a, (p - 1) // 2, p)
            expected = -1 if ls == p - 1 else ls
            assert jacobi_symbol(a, p) == expected


def test_jacobi_known_values():
    assert jacobi_symbol(1, 1) == 1
    assert jacobi_symbol(2, 15) == 1
    assert jacobi_symbol(7, 15) == -1
    assert jacobi_symbol(5, 15) == 0
    assert jacobi_symbol(-1, 3) == -1


odd_modulus = st.integers(min_value=0, max_value=60).map(lambda k: 2 * k + 1)


@given(a1=st.integers(-50, 50), a2=st.integers(-50, 50), b=odd_modulus)
def test_jacobi_multiplicative_in_numerator(a1, a2, b):
    assert jacobi_symbol(a1 * a2, b) == jacobi_symbol(a1, b) * jacobi_symbol(a2, b)


@given(a=st.integers(-50, 50), b1=odd_modulus, b2=odd_modulus)
def test_jacobi_multiplicative_in_denominator(a, b1, b2):
    assert jacobi_symbol(a, b1 * b2) == jacobi_symbol(a, b1) * jacobi_symbol(a, b2)


@given(n=st.integers(1, 300))
def test_classical_magnitude(n):
    got = quad_gauss_closed(1, n)
    if n % 4 == 2:
        assert got == 0
    elif n % 4 == 0:
        assert abs(got) == pytest.approx(math.sqrt(2 * n), rel=1e-12)
    else:
        assert abs(got) == pytest.approx(math.sqrt(n), rel=1e-12)


def test_epsilon_values():
    assert epsilon(1) == 1
    assert epsilon(5) == 1
    assert epsilon(3) == 1j
    assert epsilon(7) == 1j
    assert epsilon(-1) == 1j


def test_error_types():
    with pytest.raises(EvenInput):
        epsilon(2)
    with pytest.raises(EvenModulus):
        jacobi_symbol(3, 4)
    with pytest.raises(EvenModulus):
        jacobi_symbol(3, -5)
    with pytest.raises(UndefinedCase):
        quad_gauss_direct(1, 0)
    with pytest.raises(UndefinedCase):
        quad_gauss_closed(1, -1)
    with pytest.raises(UndefinedCase):
        quad_gauss_closed(2, -4)


def test_direct_sum_term_reduction():
    # arguments reduced mod b exactly: huge a stays accurate
    a = 10**9 + 7
    b = 25
    assert abs(quad_gauss_direct(a, b) - quad_gauss_closed(a, b)) < 1e-9


def test_reference_identity_for_odd_modulus():
    # for odd b and gcd(a,b)=1: G(a,b) = (a/b) eps_b sqrt(b)
    for b in (3, 5, 7, 9, 15, 21):
        for a in range(1, b):
            if math.gcd(a, b) != 1:
                continue
            want = jacobi_symbol(a, b) * epsilon(b) * math.sqrt(b)
            assert quad_gauss_closed(a, b) == pytest.approx(want, abs=1e-12)


def test_arguments_must_be_integers():
    for f in (quad_gauss_closed, quad_gauss_direct):
        for a, b in [(1, 2.5), (1, 3.0), (1, True), (True, 5), (1.5, 5), (1, "3")]:
            with pytest.raises(UndefinedCase):
                f(a, b)
        # numpy integers count and still give a built-in complex
        got = f(np.int32(3), np.int64(8))
        assert type(got) is complex and got == f(3, 8)
