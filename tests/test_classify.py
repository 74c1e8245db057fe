import json
import re
from fractions import Fraction

import numpy as np
import pytest

from polygauss import classify
from polygauss.classify import (
    DEFAULT_NS,
    FUNDAMENTAL_TETRAHEDRON,
    _candidate_triples,
    _canonical_keys,
    _class_minima,
    _decode_key,
    _enumerate,
    enumerate_minimal_tetrahedra,
    gauss_relation_test,
    run_theorem2_experiment,
)
from polygauss.errors import MalformedInput, VolumeNotMinimal
from polygauss.geometry import build_polytope
from polygauss.polysum import (
    polyhedral_gauss_sum_direct,
    tetra_gauss_sum_formula,
)
from polygauss.weyl import canonical_form, weyl_elements
from tests.conftest import SECOND_TILE_TET, STD_SIMPLEX
from tests.oracles import (
    all_candidate_orbits,
    four_code_canonical_keys,
    index_triple_candidates,
)
from tests.test_weyl import FT_CANONICAL, SECOND_CANONICAL


@pytest.fixture(scope="module")
def report_b1():
    return run_theorem2_experiment(1)


@pytest.fixture(scope="module")
def orbits_by_bound():
    return {B: _enumerate(B) for B in (1, 2, 3)}


def _vertices(vecs, triples):
    """(m, 4, 3) vertices of the candidates conv{0, v_i, v_j, v_k}."""
    pts = np.zeros((len(triples), 4, 3), dtype=np.int64)
    pts[:, 1:] = vecs[triples]
    return pts


def test_enumeration_counts_bound_one():
    scanned, orbits = _enumerate(1)
    assert scanned == 1160
    assert len(orbits) == 21
    keys = [k for k, _ in orbits]
    assert len(set(keys)) == 21


def test_enumeration_contains_known_orbits():
    orbits = set()
    for rep in enumerate_minimal_tetrahedra(1):
        orbits.add(canonical_form(rep))
    assert len(orbits) == 21
    assert canonical_form(FUNDAMENTAL_TETRAHEDRON) in orbits
    assert canonical_form(STD_SIMPLEX) in orbits
    assert canonical_form(SECOND_TILE_TET) in orbits


def test_enumeration_reps_are_minimal_and_in_range():
    for rep in enumerate_minimal_tetrahedra(1):
        assert len(rep) == 4
        assert all(-1 <= c <= 1 for v in rep for c in v)
        # volume check: determinant of edge vectors is +-1
        a, b, c = (
            tuple(x - y for x, y in zip(rep[k], rep[0])) for k in (1, 2, 3)
        )
        det = (
            a[0] * (b[1] * c[2] - b[2] * c[1])
            - a[1] * (b[0] * c[2] - b[2] * c[0])
            + a[2] * (b[0] * c[1] - b[1] * c[0])
        )
        assert abs(det) == 1


def _orbit_images(vecs):
    """(|W|, N) index of the image of each vector under each signed
    permutation, by looking every image up."""
    index = {v: i for i, v in enumerate(map(tuple, vecs.tolist()))}
    images = np.einsum("wij,vj->wvi", weyl_elements(3), vecs.astype(np.int64))
    return np.array([[index[v] for v in map(tuple, img)] for img in images.tolist()])


@pytest.mark.parametrize("B", [1, 2])
def test_candidates_match_index_triple_oracle(B):
    # the oracle's triples whose first vector is the least of its W-orbit,
    # in the same order, so first-seen representatives agree
    vecs, triples = _candidate_triples(B)
    assert vecs.dtype == triples.dtype == np.int16
    want_vecs, want_triples = index_triple_candidates(B)
    least = np.flatnonzero(_orbit_images(want_vecs).min(axis=0) == np.arange(len(want_vecs)))
    assert len(least) == {1: 3, 2: 9}[B]
    assert np.array_equal(vecs, want_vecs)
    assert np.array_equal(triples, want_triples[np.isin(want_triples[:, 0], least)])


@pytest.mark.parametrize("B", [1, 2])
def test_class_minima_and_stabilisers_match_oracle_classes(B):
    # group every candidate into its W-class, named by the least index
    # triple among its images; the flagged triples are exactly the classes'
    # least members, and 48 / |Stab| is the size of each one's class
    vecs, triples = _candidate_triples(B)
    least, stab = _class_minima(vecs, triples, B)
    _, every = index_triple_candidates(B)
    n = len(vecs)
    images = np.sort(_orbit_images(vecs)[:, every], axis=2)  # (|W|, m, 3)
    name = ((images[..., 0] * n + images[..., 1]) * n + images[..., 2]).min(axis=0)
    classes, sizes = np.unique(name, return_counts=True)
    own = (triples[:, 0].astype(np.int64) * n + triples[:, 1]) * n + triples[:, 2]
    assert np.array_equal(own[least], classes)
    assert np.array_equal(48 // stab[least], sizes)
    assert np.all(48 % stab == 0)
    assert sizes.sum() == len(every)


@pytest.mark.parametrize("B", [1, 2, 3])
def test_enumeration_matches_all_candidate_oracle(orbits_by_bound, B):
    # one key per W-class gives the count, the keys and the first-seen
    # representatives of keying every candidate
    assert orbits_by_bound[B] == all_candidate_orbits(B)


def test_enumeration_counts_bound_three(orbits_by_bound):
    scanned, orbits = orbits_by_bound[3]
    assert scanned == 213608
    assert len(orbits) == 3027
    assert all(max(map(abs, sum(rep, ()))) <= 3 for _, rep in orbits)


def test_enumeration_counts_bound_four():
    scanned, orbits = _enumerate(4)
    assert scanned == 865736
    assert len(orbits) == 12207
    assert all(max(map(abs, sum(rep, ()))) <= 4 for _, rep in orbits)


@pytest.mark.parametrize("B, candidates, orbits", [(5, 3475496, 48836), (6, 7842440, 110173)])
def test_enumeration_counts_bounds_five_and_six(B, candidates, orbits):
    # both were checked once against tests.oracles.all_candidate_orbits
    scanned, found = _enumerate(B)
    assert (scanned, len(found)) == (candidates, orbits)


def test_packed_key_decodes_to_canonical_form(orbits_by_bound):
    # np.unique sorts the keys, so the orbits come in canonical order
    for B, (_, orbits) in orbits_by_bound.items():
        canonical = [_decode_key(key, B) for key, _ in orbits]
        assert canonical == [canonical_form(rep) for _, rep in orbits]
        assert all(a < b for a, b in zip(canonical, canonical[1:]))


@pytest.mark.parametrize("B", [1, 2])
def test_canonical_keys_order_candidates_as_four_code_oracle(B):
    # the keys differ in value, but not in order: the same orbits, in the
    # same order, with the same first-seen representatives
    vecs, triples = index_triple_candidates(B)
    keys = _canonical_keys(vecs, triples, B)
    want = four_code_canonical_keys(_vertices(vecs, triples), B)
    assert np.array_equal(
        np.unique(keys, return_index=True)[1], np.unique(want, return_index=True)[1]
    )
    assert np.array_equal(np.argsort(keys, kind="stable"), np.argsort(want, kind="stable"))


def _assert_keys_match_oracle(vecs, triples, B):
    keys = _canonical_keys(vecs, triples, B)
    for key, tetra in zip(keys.tolist(), _vertices(vecs, triples).tolist()):
        assert _decode_key(key, B) == canonical_form(tetra)


def test_canonical_keys_match_oracle_on_every_bound_one_candidate():
    vecs, triples = index_triple_candidates(1)
    assert len(triples) == 1160
    _assert_keys_match_oracle(vecs, triples, 1)


def test_canonical_keys_match_oracle_on_bound_two_sample():
    vecs, triples = index_triple_candidates(2)
    pick = np.random.default_rng(20150807).choice(len(triples), size=500, replace=False)
    _assert_keys_match_oracle(vecs, triples[pick], 2)


def test_canonical_key_round_trips_at_largest_bound():
    # translated coordinates reach +-18 = 2B on every axis, the packed
    # key's extreme
    vecs = np.array([(9, 9, 9), (-9, -8, 0), (0, -9, -9)])
    _assert_keys_match_oracle(vecs, np.array([[0, 1, 2]]), 9)


@pytest.mark.parametrize("route", ["direct", "tetra"])
@pytest.mark.parametrize("n", [2.5, 2.0, True], ids=["fraction", "float", "bool"])
def test_search_rejects_non_integer_modulus(route, n):
    with pytest.raises(MalformedInput, match="integer"):
        run_theorem2_experiment(1, ns=(n,), route=route)


def test_enumeration_bound_validation():
    with pytest.raises(MalformedInput):
        _enumerate(0)
    with pytest.raises(MalformedInput):
        _enumerate(10)
    for B in (-3, 0, 1.5, 10):  # at the call, before a representative is asked for
        with pytest.raises(MalformedInput):
            enumerate_minimal_tetrahedra(B)


def test_relation_test_accepts_reference_tetrahedron():
    res = gauss_relation_test(FUNDAMENTAL_TETRAHEDRON)
    assert res.passed
    assert set(res.residuals) == set(DEFAULT_NS)
    assert max(res.residuals.values()) < 1e-12


def test_relation_test_accepts_second_tiler():
    res = gauss_relation_test(SECOND_TILE_TET, ns=range(1, 9))
    assert res.passed
    assert max(res.residuals.values()) < 1e-12


def test_relation_test_rejects_standard_simplex():
    res = gauss_relation_test(STD_SIMPLEX)
    assert not res.passed
    assert res.residuals[3] > 1.2
    assert res.residuals[1] < 0.05


def test_relation_test_routes_match():
    for tetra in (FUNDAMENTAL_TETRAHEDRON, STD_SIMPLEX, SECOND_TILE_TET):
        a = gauss_relation_test(tetra, route="direct")
        b = gauss_relation_test(tetra, route="tetra")
        assert a.passed == b.passed
        for n in DEFAULT_NS:
            assert a.residuals[n] == pytest.approx(b.residuals[n], abs=1e-9)


def test_relation_test_input_validation():
    with pytest.raises(MalformedInput):
        gauss_relation_test(FUNDAMENTAL_TETRAHEDRON, route="nope")
    for route in ("direct", "tetra"):
        with pytest.raises(MalformedInput, match="modulus must be >= 1, got -3"):
            gauss_relation_test(FUNDAMENTAL_TETRAHEDRON, ns=(1, -3), route=route)
    with pytest.raises(VolumeNotMinimal):
        gauss_relation_test(
            [(0, 0, 0), (2, 0, 0), (0, 1, 0), (0, 0, 1)], route="tetra"
        )


def test_routes_agree_on_all_orbits_bound_one():
    reps = list(enumerate_minimal_tetrahedra(1))
    assert len(reps) == 21
    for rep in reps:
        P = build_polytope(rep)
        for n in DEFAULT_NS:
            d = polyhedral_gauss_sum_direct(P, n).value
            t = tetra_gauss_sum_formula(rep, n).value
            assert abs(d - t) <= 1e-8, (rep, n)


def test_classification_bound_one(report_b1):
    rep = report_b1
    assert rep.bound == 1
    assert rep.ns == (1, 2, 3, 4)
    assert rep.candidates_scanned == 1160
    assert rep.distinct_orbits == 21
    assert len(rep.orbit_outcomes) == 21
    assert len(rep.passing_orbits) == 2
    got = {o.canonical for o in rep.passing_orbits}
    assert got == {FT_CANONICAL, SECOND_CANONICAL}
    # a second equivalence class passes every relation, so the search
    # refutes the single-orbit expectation rather than confirming it
    assert rep.theorem_confirmed is False
    assert rep.min_rejection_residual == pytest.approx(0.5767897808416121, abs=1e-9)
    assert rep.pure_weyl_match is True


def test_classification_passer_residuals_are_tiny(report_b1):
    for o in report_b1.passing_orbits:
        assert max(o.residuals.values()) < 1e-12
        assert o.passed


def test_classification_report_to_dict(report_b1):
    d = report_b1.to_dict()
    assert d["candidates_scanned"] == 1160
    assert d["distinct_orbits"] == 21
    assert len(d["passing_orbits"]) == 2
    entry = d["passing_orbits"][0]
    assert set(entry) == {"canonical", "representative", "residuals"}
    assert sorted(entry["residuals"]) == ["1", "2", "3", "4"]
    assert "orbit_outcomes" not in d
    assert d["theorem_confirmed"] is False


def test_classification_tetra_route_matches(report_b1):
    via_formula = run_theorem2_experiment(1, route="tetra")
    assert {o.canonical for o in via_formula.passing_orbits} == {
        o.canonical for o in report_b1.passing_orbits
    }
    assert via_formula.candidates_scanned == report_b1.candidates_scanned


def test_classification_workers_equivalent(report_b1):
    par = run_theorem2_experiment(1, workers=2)
    assert {o.canonical for o in par.passing_orbits} == {
        o.canonical for o in report_b1.passing_orbits
    }
    assert par.min_rejection_residual == report_b1.min_rejection_residual


@pytest.mark.parametrize("cpus,workers,pool", [(2, 100000, 2), (4, 3, 3), (1, 2, None), (None, 2, None)])
def test_search_pool_holds_at_most_one_process_per_cpu(monkeypatch, report_b1, cpus, workers, pool):
    # a recording pool that maps in this process, so no process starts
    import multiprocessing

    sizes = []

    class InProcessPool:
        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, func, jobs, chunksize=1):
            return [func(j) for j in jobs]

    monkeypatch.setattr(multiprocessing, "Pool", InProcessPool)
    monkeypatch.setattr(classify.os, "cpu_count", lambda: cpus)
    assert run_theorem2_experiment(1, workers=workers) == report_b1
    assert sizes == ([] if pool is None else [pool])


def test_classification_restricted_ns_admits_more_orbits(report_b1):
    # with only n = 1, 2 the relations are much weaker
    weak = run_theorem2_experiment(1, ns=(1, 2))
    assert len(weak.passing_orbits) >= len(report_b1.passing_orbits)
    strong_passers = {o.canonical for o in report_b1.passing_orbits}
    assert strong_passers <= {o.canonical for o in weak.passing_orbits}


def test_classification_bad_bound():
    with pytest.raises(MalformedInput):
        run_theorem2_experiment(0)


def test_classification_refuses_empty_ns():
    # all() over no residuals would pass every orbit
    with pytest.raises(MalformedInput, match="ns"):
        run_theorem2_experiment(1, ns=())


def test_numpy_moduli_become_built_in_ints():
    # the report's ns and residual keys are built-in ints, so its dict
    # serialises as JSON
    report = run_theorem2_experiment(1, ns=[np.int64(3), 4])
    assert report.ns == (3, 4) and all(type(n) is int for n in report.ns)
    assert json.loads(json.dumps(report.to_dict()))["ns"] == [3, 4]
    for route in ("direct", "tetra"):
        res = gauss_relation_test(FUNDAMENTAL_TETRAHEDRON, ns=(np.int32(2), np.int64(3)), route=route)
        assert [type(n) for n in res.residuals] == [int, int]


@pytest.mark.parametrize(
    "kwargs, tolerance",
    [
        ({"B": np.int64(1)}, 1e-6),
        ({"B": 1, "tol": np.float32(1e-6)}, float(np.float32(1e-6))),
        ({"B": 1, "tol": Fraction(1, 10**6)}, 1e-6),
    ],
    ids=["numpy-bound", "float32-tol", "fraction-tol"],
)
def test_report_of_a_numpy_or_fraction_argument_serialises(report_b1, kwargs, tolerance):
    # the report held the bound or the tolerance as given, so json.dumps
    # refused its dict; now it holds a built-in int and float
    report = run_theorem2_experiment(**kwargs)
    assert type(report.bound) is int and type(report.tolerance) is float
    d = json.loads(json.dumps(report.to_dict()))
    assert d == {**report_b1.to_dict(), "tolerance": tolerance}


def test_repeated_modulus_is_refused():
    # one residual per modulus: (2, 2) would write the CSV's rows twice
    with pytest.raises(MalformedInput, match="repeated"):
        run_theorem2_experiment(1, ns=(2, 2))
    for route in ("direct", "tetra"):
        with pytest.raises(MalformedInput, match="repeated"):
            gauss_relation_test(FUNDAMENTAL_TETRAHEDRON, ns=(1, np.int64(3), 3), route=route)


def test_relation_test_refuses_empty_ns():
    # all() over no residuals passed the corner simplex, which fails the
    # relation at n = 3
    for route in ("direct", "tetra"):
        with pytest.raises(MalformedInput, match="at least one modulus"):
            gauss_relation_test(STD_SIMPLEX, ns=(), route=route)


def _unreachable(B):
    raise AssertionError("candidates enumerated before the arguments were checked")


@pytest.mark.parametrize("workers", [1, 2])
def test_search_refuses_an_unknown_route_before_enumerating(monkeypatch, workers):
    monkeypatch.setattr(classify, "_enumerate", _unreachable)
    with pytest.raises(MalformedInput, match="unknown route 'bogus'"):
        run_theorem2_experiment(3, route="bogus", workers=workers)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("route", ["direct", "tetra"])
@pytest.mark.parametrize(
    "ns, message",
    [
        ((0,), "modulus must be >= 1, got 0"),
        ((2.5,), "modulus must be an integer, got 2.5"),
        ((1, -3), "modulus must be >= 1, got -3"),
    ],
    ids=["zero", "fraction", "negative"],
)
def test_search_checks_every_modulus_before_enumerating(monkeypatch, workers, route, ns, message):
    monkeypatch.setattr(classify, "_enumerate", _unreachable)
    with pytest.raises(MalformedInput, match=message):
        run_theorem2_experiment(3, ns=ns, route=route, workers=workers)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"B": 1.5}, "coordinate bound must be an integer, got 1.5"),
        ({"B": True}, "coordinate bound must be an integer, got True"),
        ({"B": 0}, "coordinate bound must be >= 1, got 0"),
        ({"B": 1, "workers": 1.5}, "workers must be an integer, got 1.5"),
        ({"B": 1, "workers": "2"}, "workers must be an integer, got 2"),
    ],
    ids=["fractional-bound", "bool-bound", "zero-bound", "fractional-workers", "string-workers"],
)
def test_search_refuses_a_bound_or_worker_count_that_is_not_a_positive_int(kwargs, message):
    # a float or a string raised a bare TypeError, and B = True ran as B = 1
    with pytest.raises(MalformedInput, match=message):
        run_theorem2_experiment(**kwargs)


@pytest.mark.parametrize(
    "tol",
    [-1.0, 0, float("nan"), float("inf"), "1e-6", None, True],
    ids=["negative", "zero", "nan", "inf", "string", "none", "bool"],
)
def test_a_tolerance_that_is_not_a_finite_positive_real_is_refused(monkeypatch, tol):
    # a negative or nan tol reported T as failing, a string or None raised a
    # bare TypeError, and the search ran tol = True as 1.0
    message = f"tolerance must be finite and positive, got {tol!r}"
    with pytest.raises(MalformedInput, match=re.escape(message)):
        gauss_relation_test(FUNDAMENTAL_TETRAHEDRON, tol=tol)
    monkeypatch.setattr(classify, "_enumerate", _unreachable)
    with pytest.raises(MalformedInput, match=re.escape(message)):
        run_theorem2_experiment(1, tol=tol)
