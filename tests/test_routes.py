"""The two G_P(n) routes agree on random volume-1/6 tetrahedra.

Direct enumeration is the ground truth.  Its agreement with a point-by-point
sum on general lattice polytopes is tests/test_polysum.py's property test.
"""

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from polygauss.geometry import build_polytope
from polygauss.polysum import (
    polyhedral_gauss_sum_direct,
    tetra_gauss_sum_formula,
)

TOL = 1e-10
SEED = 20150417


@st.composite
def unimodular_tetrahedra(draw):
    """conv{t, t + m_1, t + m_2, t + m_3} for the rows m_i of a product of
    elementary integer row operations, so det(m) = +-1."""
    rows = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    ops = draw(
        st.lists(
            st.tuples(st.integers(0, 2), st.integers(0, 2), st.sampled_from((-1, 1))),
            max_size=5,
        )
    )
    for i, j, s in ops:
        if i != j:
            rows[i] = [a + s * b for a, b in zip(rows[i], rows[j])]
    if draw(st.booleans()):
        rows[0] = [-a for a in rows[0]]
    t = draw(st.tuples(st.integers(-2, 2), st.integers(-2, 2), st.integers(-2, 2)))
    return (t,) + tuple(tuple(a + b for a, b in zip(t, r)) for r in rows)


@seed(SEED)
@settings(max_examples=100, derandomize=False)
@given(T=unimodular_tetrahedra(), n=st.integers(1, 12))
def test_direct_equals_tetra(T, n):
    P = build_polytope(T)
    direct = polyhedral_gauss_sum_direct(P, n).value
    assert abs(direct - tetra_gauss_sum_formula(T, n).value) < TOL


@pytest.mark.parametrize("K, L", [(3 * 2**59, -(2**61) + 5), (2**32 + 3, 0)])
def test_routes_agree_on_needles(K, L):
    # conv{0, (1,0,K), (0,1,L), (0,0,1)} is unimodular but nearly flat; an
    # arctan cone formula cancels on it, while every weight built from the
    # edge dihedrals keeps a few ulp of absolute accuracy.
    T = ((0, 0, 0), (1, 0, K), (0, 1, L), (0, 0, 1))
    P = build_polytope(T)
    for n in (1, 2, 3):
        direct = polyhedral_gauss_sum_direct(P, n).value
        assert abs(direct - tetra_gauss_sum_formula(T, n).value) < 1e-12
