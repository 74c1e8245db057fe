"""The library against theorems, not goldens.

Each property holds for every lattice polytope of its kind, so it checks
volume, the face angles and the direct route's counts together on random
inputs, with no reference values.
"""

import itertools

from hypothesis import assume, given
from hypothesis import strategies as st

from polygauss.errors import DegenerateInput
from polygauss.gauss import quad_gauss_closed
from polygauss.geometry import build_polytope, dilate, volume
from polygauss.polysum import polyhedral_gauss_sums_direct
from polygauss.weyl import weyl_elements
from tests.test_geometry import polytopes


@st.composite
def lattice_polytopes(draw, dims, bound):
    """Hulls of d + 1 to d + 4 integer points of [-bound, bound]^d, d drawn
    from dims."""
    d = draw(st.sampled_from(dims))
    coord = st.integers(-bound, bound)
    pts = draw(st.lists(st.tuples(*[coord] * d), min_size=d + 1, max_size=d + 4))
    try:
        return build_polytope(pts)
    except DegenerateInput:
        assume(False)


@given(P=lattice_polytopes((1, 2), 3))
def test_segments_and_polygons_satisfy_the_closed_form(P):
    # in d <= 2 every lattice polytope multi-tiles under G, so the paper's
    # forward theorem gives G_P(n) = vol(P) G(n)^d: P is a union of unit
    # segments or unimodular triangles, and such a triangle with its point
    # reflection (-I is in W) is a fundamental parallelogram of Z^2; 600
    # random draws at n = 1..12 stayed within 2.2e-13 of it
    vol = float(volume(P))
    for report in polyhedral_gauss_sums_direct(P, range(1, 13)):
        assert abs(report.value - vol * quad_gauss_closed(1, report.n) ** P.dim) < 1e-9


vector = st.tuples(*[st.integers(-2, 2)] * 3)


@given(corner=vector, edges=st.tuples(vector, vector, vector))
def test_lattice_parallelepipeds_satisfy_the_closed_form(corner, edges):
    # a lattice parallelepiped P tiles R^3 by the lattice its edges span,
    # so by all of Z^3 with multiplicity vol(P), and by G with |W| vol(P),
    # and the forward theorem holds; 200 random draws at n = 1..6 stayed
    # within 3.8e-13 of it.  It sees the dihedral angles, which the parity
    # below does not: an error in an edge's angle, carried to its vertices
    # by Girard's relation, adds a multiple of t to A(t)
    pts = [
        tuple(c + sum(e[i] for e, on in zip(edges, pick) if on) for i, c in enumerate(corner))
        for pick in itertools.product((0, 1), repeat=3)
    ]
    try:
        P = build_polytope(pts)
    except DegenerateInput:
        assume(False)
    vol = float(volume(P))
    for report in polyhedral_gauss_sums_direct(P, range(1, 7)):
        assert abs(report.value - vol * quad_gauss_closed(1, report.n) ** 3) < 1e-9


@given(P=lattice_polytopes((3,), 2))
def test_macdonald_parity_in_three_dimensions(P):
    # the solid-angle sum A(t) = G_{tP}(1) of a lattice 3-polytope is
    # vol(P) t^3 + a_1 t (Macdonald, J. London Math. Soc. (2) 4 (1971)), so
    # A(t) - t A(1) = (t^3 - t) vol(P) whatever a_1 is; 600 random draws
    # stayed within 1.2e-13 of it at t = 2 and 3
    a = [polyhedral_gauss_sums_direct(dilate(P, t), (1,))[0].value for t in (1, 2, 3)]
    for t in (2, 3):
        assert abs(a[t - 1] - t * a[0] - (t**3 - t) * volume(P)) < 1e-9


@given(P=polytopes(), pick=st.integers(0, 47), shift=st.lists(st.integers(-(10**6), 10**6), min_size=3, max_size=3))
def test_gauss_sums_are_invariant_under_the_group(P, pick, shift):
    """G_{gP}(n) = G_P(n) for g x = w x + t, w a signed permutation and t
    an integer vector.

    Proof: x -> w x + n t maps the lattice points of nP onto those of
    n gP, and each face of nP onto the face of n gP it spans; being an
    isometry, it keeps every solid angle.  And |w x + n t|^2 = |x|^2 +
    2n (w x . t) + n^2 |t|^2 = |x|^2 mod n, so every term e(|x|^2 / n) is
    kept too.  G is defined on lattice polytopes, so p/q draws are skipped.
    """
    assume(P.denominator == 1)
    d = P.dim
    w = weyl_elements(d)[pick % len(weyl_elements(d))].tolist()
    image = build_polytope(
        [tuple(sum(r * c for r, c in zip(row, v)) + t for row, t in zip(w, shift)) for v in P.numerators]
    )
    ns = range(1, 7)
    for a, b in zip(polyhedral_gauss_sums_direct(P, ns), polyhedral_gauss_sums_direct(image, ns)):
        assert a.point_count == b.point_count
        assert abs(a.value - b.value) < 1e-9 * max(1.0, abs(a.value))
