import json
import math
import pathlib

import pytest
from hypothesis import HealthCheck, settings

from polygauss.geometry import Polytope, RationalVector, build_polytope

settings.register_profile(
    "suite",
    max_examples=40,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")

DATA = pathlib.Path(__file__).resolve().parent.parent / "data" / "polytopes"

FUND_TET = ((0, 0, 0), (1, 0, 0), (1, 1, 0), (1, 1, 1))
STD_SIMPLEX = ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1))
# the other orbit of minimal tetrahedra satisfying the closed form: it
# multi-tiles with multiplicity 8 just like the reference one
SECOND_TILE_TET = ((0, 0, 0), (1, 0, 0), (0, 0, -1), (1, 1, 1))
# vertices on more than three facets: the pyramid's apex lies on four, and
# so does every vertex of the octahedron conv{+-e_i}
SQUARE_PYRAMID = ((0, 0, 0), (2, 0, 0), (0, 2, 0), (2, 2, 0), (1, 1, 1))
OCTAHEDRON = ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1))
# 70 points of the circle of radius 1000, rounded to integers: over the
# denominator 1000 a p/q polygon with more facets than a tight-set bitmask
# (a signed int64) holds, and as it stands a lattice one
CIRCLE_70 = tuple(
    (round(1000 * math.cos(math.tau * k / 70)), round(1000 * math.sin(math.tau * k / 70)))
    for k in range(70)
)


def make(points) -> Polytope:
    return build_polytope([RationalVector(p) for p in points])


@pytest.fixture(scope="session")
def fund_tet() -> Polytope:
    return make(FUND_TET)


@pytest.fixture(scope="session")
def std_simplex() -> Polytope:
    return make(STD_SIMPLEX)


@pytest.fixture(scope="session")
def second_tile_tet() -> Polytope:
    return make(SECOND_TILE_TET)


@pytest.fixture(scope="session")
def unit_interval() -> Polytope:
    return make([(0,), (1,)])


@pytest.fixture(scope="session")
def unit_square() -> Polytope:
    return make([(0, 0), (1, 0), (0, 1), (1, 1)])


@pytest.fixture(scope="session")
def unit_triangle() -> Polytope:
    return make([(0, 0), (1, 0), (0, 1)])


@pytest.fixture(scope="session")
def unit_cube() -> Polytope:
    return make([(i, j, k) for i in (0, 1) for j in (0, 1) for k in (0, 1)])


def load_bundled(name: str) -> dict:
    with open(DATA / f"{name}.json", encoding="utf-8") as fh:
        return json.load(fh)
