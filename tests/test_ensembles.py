"""Set families: frozen small oracles, brute-force cross-checks,
constructor validation."""

import numpy as np
import pytest

from ffrestrict import ensembles, families
from ffrestrict.field import VectorSpace
from ffrestrict.ensembles import (
    PointSet,
    SetDescriptor,
    _product_on,
    cutoff_cylinder,
    full_space,
    hamming_variety,
    is_sidon,
    product,
    random_set,
    sidon_parabola,
    sphere,
    sphere_product,
    surface_measure,
)
from ffrestrict.spectral import FFMeasure, fourier_forward


def _space(p, d, cap=None):
    if cap is None:
        return VectorSpace(p, d)
    return VectorSpace(p, d, max_points=cap)


def _points(e):
    return {e.space.decode(int(i)) for i in e.support_indices()}


# ------------------------------------------------------------- spheres

def test_sphere_frozen_oracle():
    # x^2 + y^2 = 1 over F_5: squares are {0,1,4}; solutions enumerated
    # by hand
    e = sphere(_space(5, 2), 1)
    assert _points(e) == {(1, 0), (4, 0), (0, 1), (0, 4)}
    assert e.cardinality == 4


def test_sphere_brute_force():
    for p, k, r in [(7, 2, 1), (7, 3, 2), (5, 3, 0), (11, 2, 3)]:
        space = _space(p, k)
        e = sphere(space, r)
        for idx in range(space.size):
            coords = space.decode(idx)
            on = sum(c * c for c in coords) % p == r % p
            assert e.membership[idx] == on


def test_sphere_count_near_main_term():
    # |S_r| = p^(k-1) + O(p^((k-1)/2)) for r != 0
    for p, k in [(7, 2), (11, 3), (13, 2)]:
        e = sphere(_space(p, k), 1)
        main = p ** (k - 1)
        assert abs(e.cardinality - main) <= 2 * p ** ((k - 1) / 2 + 0.5)


def test_sphere_requires_odd_characteristic():
    with pytest.raises(ValueError):
        sphere(_space(2, 3), 1)


def test_sphere_requires_k_at_least_2():
    with pytest.raises(ValueError):
        sphere(_space(5, 1), 1)


def test_sphere_product_is_cartesian_power():
    space = _space(5, 4)
    e = sphere_product(space, 2, 2, 1)
    circle = {(1, 0), (4, 0), (0, 1), (0, 4)}
    want = {(a + b) for a in [c for c in circle]
            for b in [c for c in circle]}
    want = {a + b for a in circle for b in circle}
    assert _points(e) == want
    assert e.cardinality == 16


def test_products_keep_their_factors():
    pa = sphere(_space(5, 2), 1)
    pb = sphere(_space(5, 3), 2)
    e = product(pa, pb)
    assert e.factors == (pa, pb)
    # a product of products keeps the flat list of its factors
    ee = product(e, pa)
    assert ee.factors == (pa, pb, pa)
    assert sphere_product(_space(5, 6), 3, 2).factors[0].descriptor \
        == SetDescriptor.make("sphere", k=3, r=1)
    zsp = families.builder("zero-sphere-product")(5)
    assert [f.descriptor.params_dict()["r"] for f in zsp.factors] == [0, 1]
    # a set with no product structure is its own single factor, and so
    # is a copy of a product's membership
    h = hamming_variety(_space(5, 2), 1)
    assert h.factors == (h,)
    flat = PointSet(e.space, e.membership)
    assert flat.factors == (flat,)


def test_cylinder_factors_are_slab_and_sphere():
    p, n, m, k = 5, 2, 1, 3
    e = cutoff_cylinder(_space(p, n + k + 1), n, m, k)
    slab, cap = e.factors
    assert slab.space.dimension == n and cap.space.dimension == k + 1
    # the slab is F^m x (F^{n-m} minus 0)
    assert _points(slab) == {x for x in np.ndindex(*(p,) * n)
                             if any(x[m:])}
    assert np.array_equal(cap.membership,
                          sphere(_space(p, k + 1), 1).membership)
    assert e.cardinality == slab.cardinality * cap.cardinality


def test_factors_must_tile_the_space():
    a = sphere(_space(5, 2), 1)
    desc = SetDescriptor.make("product", da=2, db=2)
    with pytest.raises(ValueError, match="tile"):
        PointSet._product(_space(5, 5), (a, a), desc)
    with pytest.raises(ValueError, match="tile"):
        PointSet._product(_space(7, 4), (a, a), desc)
    e = PointSet._product(_space(5, 4), (a, a), desc)
    assert e.factors == (a, a)
    assert np.array_equal(e.membership,
                          np.outer(a.membership, a.membership).reshape(-1))


def test_product_flat_index_order():
    # product(a, b) lives on the concatenated space with a's coordinates
    # in the low positions
    pa = sphere(_space(5, 2), 1)
    pb = sphere(_space(5, 2), 2)
    e = product(pa, pb)
    assert e.space.dimension == 4
    want = {a + b for a in _points(pa) for b in _points(pb)}
    assert _points(e) == want
    assert e.cardinality == pa.cardinality * pb.cardinality


def test_product_cardinality_is_the_count_of_its_bitmap():
    products = set()
    for name in families.names():
        for p in (3, 5, 7):
            e = families.builder(name)(p)
            if len(e.factors) > 1:
                products.add(name)
                assert e.cardinality == int(e.membership.sum()), (name, p)
    assert products == {"cutoff-cylinder", "sidon-embedded",
                        "sphere-product", "zero-sphere-product"}


# ------------------------------------------------------------- hamming

def test_hamming_frozen_oracle():
    # x*y = 1 over F_3: (1,1) and (2,2)
    e = hamming_variety(_space(3, 2), 1)
    assert _points(e) == {(1, 1), (2, 2)}


def test_hamming_cardinality_closed_form():
    for p in [3, 5, 7, 11]:
        for d in [2, 3, 4]:
            for j in [1, p - 1]:
                e = hamming_variety(_space(p, d), j)
                assert e.cardinality == (p - 1) ** (d - 1)


def test_hamming_brute_force():
    for p, d, j in [(5, 3, 2), (3, 4, 1), (7, 2, 3)]:
        space = _space(p, d)
        e = hamming_variety(space, j)
        for idx in range(space.size):
            coords = space.decode(idx)
            prod = 1
            for c in coords:
                prod = (prod * c) % p
            assert e.membership[idx] == (prod == j)


def test_hamming_rejects_j_zero():
    with pytest.raises(ValueError):
        hamming_variety(_space(5, 2), 0)


# --------------------------------------------------------------- sidon

def test_parabola_frozen_oracle():
    e = sidon_parabola(_space(5, 2))
    assert _points(e) == {(x, (x * x) % 5) for x in range(5)}
    assert e.cardinality == 5


def test_sidon_parabola_brute_force():
    for p in [3, 7, 11]:
        space = _space(p, 2)
        e = sidon_parabola(space)
        for idx in range(space.size):
            x, y = space.decode(idx)
            assert e.membership[idx] == (y == x * x % p)
        assert e.cardinality == p


def test_parabola_is_sidon_all_odd_p_to_31():
    for p in [3, 5, 7, 11, 13, 17, 19, 23, 29, 31]:
        assert is_sidon(sidon_parabola(_space(p, 2)))


def test_is_sidon_rejects_progression():
    space = _space(13, 1)
    memb = np.zeros(13, dtype=bool)
    memb[[0, 1, 2, 3]] = True  # 0 + 3 = 1 + 2
    assert not is_sidon(PointSet(space, memb, SetDescriptor.make("adhoc")))


def test_is_sidon_accepts_tiny_sets():
    space = _space(13, 1)
    memb = np.zeros(13, dtype=bool)
    memb[[0, 1]] = True
    assert is_sidon(PointSet(space, memb, SetDescriptor.make("adhoc")))


# ------------------------------------------------------------ cylinder

def test_cutoff_cylinder_brute_force():
    # (F^n minus F^m) x S_1^k inside F^(n+k+1)
    for p, n, m, k in [(3, 2, 1, 3), (3, 3, 1, 5), (3, 3, 2, 3)]:
        space = _space(p, n + k + 1)
        e = cutoff_cylinder(space, n, m, k)
        ball = sphere(_space(p, k + 1), 1)
        count = 0
        for idx in range(space.size):
            coords = space.decode(idx)
            slab, cap = coords[:n], coords[n:]
            punctured = any(c != 0 for c in slab[m:])
            on_sphere = sum(c * c for c in cap) % p == 1
            inside = punctured and on_sphere
            assert e.membership[idx] == inside
            count += inside
        assert e.cardinality == count
        assert e.cardinality == (p ** n - p ** m) * ball.cardinality


def test_cutoff_cylinder_validation():
    with pytest.raises(ValueError):
        cutoff_cylinder(_space(5, 5), 2, 1, 2)  # k = 2(n-m) not allowed
    with pytest.raises(ValueError):
        cutoff_cylinder(_space(5, 6), 1, 1, 4)  # need n > m
    with pytest.raises(ValueError):
        cutoff_cylinder(_space(5, 7), 2, 1, 3)  # dimension mismatch


# ----------------------------------------------------- embed and misc

def test_embed_preserves_points():
    # sidon-embedded is the parabola times the origin {0} of F_p^1
    e = sidon_parabola(_space(7, 2))
    big = families.builder("sidon-embedded")(7)
    assert big.cardinality == e.cardinality
    assert _points(big) == {pt + (0,) for pt in _points(e)}
    assert big.descriptor.family == "sidon-parabola-embedded"
    assert is_sidon(big)
    plane, origin = big.factors
    assert np.array_equal(plane.membership, e.membership)
    assert _points(origin) == {(0,)}


def test_embed_requires_room():
    # the embedded parabola's factors must tile the space they build on
    parts = families.builder("sidon-embedded")(7).factors
    desc = SetDescriptor.make("embedded")
    with pytest.raises(ValueError, match="tile"):
        _product_on(_space(7, 1), parts, desc)
    with pytest.raises(ValueError, match="tile"):
        _product_on(_space(5, 3), parts, desc)


def test_full_space_and_alpha():
    space = _space(5, 2)
    e = full_space(space)
    assert e.cardinality == 25
    assert e.alpha() == pytest.approx(2.0)
    circle = sphere(space, 1)
    assert circle.alpha() == pytest.approx(np.log(4) / np.log(5))


def test_surface_measure_uniform_on_support():
    e = sphere(_space(7, 2), 1)
    mu = surface_measure(e)
    assert np.array_equal(mu.support_indices(), e.support_indices())
    w = mu.weights[e.support_indices()]
    assert np.allclose(w, 1.0 / e.cardinality)
    assert mu.weights.sum() == pytest.approx(1.0)


def test_surface_measure_makes_its_weights_once_and_checks_them(
        monkeypatch):
    e = sphere(_space(7, 2), 1)
    checked = []
    check = FFMeasure._check
    monkeypatch.setattr(FFMeasure, "_check",
                        lambda self, w: (checked.append(w), check(self, w)))
    mu = surface_measure(e)
    fourier_forward(mu)
    assert checked == []
    w = mu.weights
    assert len(checked) == 1 and checked[0] is w
    assert mu.weights is w
    assert not w.flags.writeable
    assert np.array_equal(w, e.membership / e.cardinality)


def test_surface_measure_of_a_product_with_a_dropped_factor_is_rejected(
        monkeypatch):
    original = ensembles._product_cardinality
    monkeypatch.setattr(ensembles, "_product_cardinality",
                        lambda factors: original(factors[:-1]))
    e = product(sphere(_space(5, 2), 1), sphere(_space(5, 2), 1))
    with pytest.raises(ValueError, match="weights must sum to 1"):
        surface_measure(e)


def test_surface_measure_empty_set_rejected():
    space = _space(5, 1)
    memb = np.zeros(5, dtype=bool)
    with pytest.raises(ValueError):
        surface_measure(PointSet(space, memb, SetDescriptor.make("adhoc")))


def test_random_set_determinism_and_density():
    space = _space(11, 2)
    a = random_set(space, 25, seed=3)
    b = random_set(space, 25, seed=3)
    c = random_set(space, 25, seed=4)
    assert np.array_equal(a.membership, b.membership)
    assert not np.array_equal(a.membership, c.membership)
    assert 0 < a.cardinality < space.size
    # binomial concentration: 121 draws at 1/4
    assert abs(a.cardinality - 121 * 0.25) < 25


def test_random_descriptor_carries_density():
    low = families.builder("random", {"percent": 20})(5)
    high = families.builder("random", {"percent": 60})(5)
    assert low.descriptor != high.descriptor
    assert high.descriptor.params_dict() == {"d": 2, "percent": 60,
                                             "seed": 0}
    assert random_set(_space(5, 1), 30, seed=1).descriptor.params_dict() \
        == {"d": 1, "percent": 30, "seed": 1}


def test_random_set_descriptor_is_exact_and_percent_whole():
    space = _space(5, 2)
    seen = {random_set(space, percent, seed=1).descriptor
            for percent in (12, 13, 99, 100)}
    assert len(seen) == 4
    # the family path builds the same set under the same descriptor
    direct = random_set(space, 13, seed=1)
    built = families.builder("random", {"percent": 13, "seed": 1})(5)
    assert built.descriptor == direct.descriptor
    assert np.array_equal(built.membership, direct.membership)
    for bad in (0, 101, 12.5, 0.25, True):
        with pytest.raises(ValueError, match="percent"):
            random_set(space, bad, seed=1)


@pytest.mark.parametrize("name", families.names())
def test_family_memberships_are_frozen(name):
    e = families.builder(name)(5)
    assert not e.membership.flags.writeable
    with pytest.raises(ValueError):
        e.membership[0] = True


@pytest.mark.parametrize("name, params, p, message", [
    ("sphere-product", {"r": 5}, 5, "p not dividing r = 5"),
    ("hamming", {"j": 7}, 7, "p not dividing j = 7"),
    ("sidon-embedded", {}, 2, "odd field size"),
])
def test_builder_rejects_a_field_size_the_family_excludes(name, params, p,
                                                          message):
    with pytest.raises(ValueError, match=message):
        families.builder(name, params)(p)


@pytest.mark.parametrize("name, params, message", [
    ("hamming", {"d": 1, "j": 0}, "hamming requires d >= 2"),
    ("hamming", {"j": 0}, "hamming requires j != 0"),
    ("sphere", {"k": 1}, "sphere requires k >= 2"),
    ("sphere-product", {"k": 1, "m": 0, "r": 0}, "need k >= 2"),
    ("sphere-product", {"m": 0, "r": 0}, "need m >= 1"),
    ("sphere-product", {"r": 0}, "need r != 0"),
    ("cutoff-cylinder", {"n": 1, "k": 0}, "need n > m >= 1"),
    ("cutoff-cylinder", {"k": 2}, "need k > 2(n-m)"),
    ("sidon-parabola", {"d": 3}, "the parabola construction is planar (d=2)"),
    ("full-space", {"d": 0}, "need d >= 1"),
    ("random", {"d": 0, "percent": 0}, "need d >= 1"),
    ("random", {"percent": 101}, "percent must lie in (0, 100]"),
])
def test_family_rules_report_the_first_broken_rule(name, params, message):
    with pytest.raises(ValueError) as exc:
        families.get(name).resolve_params(params)
    assert str(exc.value) == message


def test_zero_sphere_is_valid_at_every_odd_field_size():
    for p in (3, 5, 7):
        assert families.builder("sphere", {"r": 0})(p).cardinality > 0


def test_descriptor_json_stable():
    d = SetDescriptor.make("hamming", j=1, d=3)
    assert d.params_json() == '{"d":3,"j":1}'
    assert d.params_dict() == {"d": 3, "j": 1}
