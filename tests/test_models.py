"""Model families: crossing lines, random instances, block-aligned products,
convex combinations, and reproducible instance specs."""

import numpy as np
import pytest

from altproj import (
    BlockAlignedModel,
    CapacityError,
    InstanceSpec,
    block_aligned,
    build_cyclic,
    convex_combination,
    friedrichs_number,
    iterate,
    random_instance,
    slow_vector,
    two_lines,
)


def test_two_lines_angle_domain():
    assert len(two_lines(np.pi / 2)) == 2
    with pytest.raises(ValueError):
        two_lines(0.0)
    with pytest.raises(ValueError):
        two_lines(np.pi)


def test_random_instance_is_reproducible_and_validated():
    a = random_instance(5, (2, 3), seed=7)
    b = random_instance(5, (2, 3), seed=7)
    for s, t in zip(a, b):
        assert np.array_equal(s.basis, t.basis)
    assert [s.dim for s in a] == [2, 3]
    with pytest.raises(ValueError):
        random_instance(4, (2,), seed=0)
    with pytest.raises(ValueError):
        random_instance(4, (2, 5), seed=0)
    with pytest.raises(ValueError):
        random_instance(3, (3, 3), seed=0)  # nothing left to project


def test_block_aligned_angle_rules():
    m = block_aligned(5, "1/k")
    assert m.k_blocks == 5
    assert m.ambient_dim == 10
    assert np.allclose(m.angles, [1.0, 0.5, 1.0 / 3.0, 0.25, 0.2], atol=1e-15)
    assert m.angle_rule == "1/k"
    ms = block_aligned(4, "1/sqrt(k)")
    assert np.allclose(ms.angles, 1.0 / np.sqrt([1.0, 2.0, 3.0, 4.0]), atol=1e-15)
    custom = block_aligned(3, [1.2, 0.7, 0.1])
    assert np.allclose(custom.angles, [1.2, 0.7, 0.1], atol=1e-15)
    assert custom.angle_rule is None


def test_block_aligned_validation():
    with pytest.raises(ValueError):
        block_aligned(0, "1/k")
    with pytest.raises(ValueError):
        block_aligned(3, "bogus")
    with pytest.raises(ValueError):
        block_aligned(3, [0.5, 0.7, 0.1])  # not decreasing
    with pytest.raises(ValueError):
        block_aligned(2, [2.0, 0.1])  # above pi/2
    with pytest.raises(ValueError):
        block_aligned(3, [0.9, 0.5])  # one angle per block
    for angles in ([np.nan, 0.1], [0.5, np.nan]):
        with pytest.raises(ValueError):
            BlockAlignedModel(angles=np.array(angles))


def test_block_model_friedrichs_is_cos_of_the_smallest_angle():
    m = block_aligned(6, "1/k")
    c = friedrichs_number(m.subspaces)
    assert c == pytest.approx(np.cos(m.angles[-1]), abs=1e-10)


def test_block_model_error_norm_matches_direct_iteration():
    model = block_aligned(8, "1/sqrt(k)")
    coeffs = 1.0 / np.arange(1.0, 9.0)
    trace = iterate(model.cyclic(), model.m1_vector(coeffs), 30)
    for n in (1, 5, 30):
        assert trace.errors[n] == pytest.approx(model.error_norm(coeffs, n), rel=1e-10)
    with pytest.raises(ValueError):
        model.m1_vector(coeffs[:3])
    with pytest.raises(ValueError):
        model.error_norm(coeffs, -1)
    for bad in ([1.0], coeffs[:3], np.ones((8, 1))):
        with pytest.raises(ValueError, match="one coefficient per block"):
            model.error_norm(bad, 3)


def test_block_model_builds_its_bases_on_first_use():
    model = block_aligned(3, [1.2, 0.7, 0.1])
    cp = model.cyclic()
    assert [b.shape for b in cp._blocks] == [(3, 2, 2)] * 2
    assert not {"m1", "m2"} & set(vars(model))
    b1 = np.zeros((6, 3))
    b2 = np.zeros((6, 3))
    for k, theta in enumerate(model.angles):
        b1[2 * k, k] = 1.0
        b2[2 * k:2 * k + 2, k] = np.cos(theta), np.sin(theta)
    assert np.array_equal(model.m1.basis, b1)
    assert np.allclose(model.m2.basis, b2, rtol=0.0, atol=1e-16)
    assert model.subspaces[0] is model.m1 and model.subspaces[1] is model.m2
    inst = InstanceSpec("block_aligned", {"k_blocks": 3, "angle_rule": "1/k"}).realize()
    assert [b.shape for b in inst.cyclic()._blocks] == [(3, 2, 2)] * 2
    assert not {"m1", "m2"} & set(vars(inst.model))
    assert inst.subspaces[0] is inst.model.m1 and inst.subspaces[1] is inst.model.m2


def test_slow_vector_at_horizon_zero():
    model = block_aligned(4, "1/k")
    x = slow_vector(model, np.array([2.0]), 0, 0.5)
    expected = np.zeros(8)
    expected[0] = 3.0  # (1 + eps) r_0 on the first aligned coordinate
    assert np.allclose(x, expected, atol=1e-12)


def test_slow_vector_frozen_allocation_and_guarantee():
    model = block_aligned(400, "1/k")
    r = 1.0 / np.log(np.arange(1001.0) + 2.0)
    x = slow_vector(model, r, 1000, 0.5)
    # greedy construction touches exactly these blocks for these targets
    assert np.nonzero(x[0::2])[0].tolist() == [2, 4, 8, 16, 40, 66]
    assert np.all(x[1::2] == 0.0)
    assert np.linalg.norm(x) <= 1.5 * r[0] * (1.0 + 1e-12)
    trace = iterate(model.cyclic(), x, 1000)
    assert np.all(trace.errors >= r - 1e-12)


def test_slow_vector_capacity_error_names_the_smallest_sufficient_k():
    model = block_aligned(66, "1/k")
    r = 1.0 / np.log(np.arange(1001.0) + 2.0)
    with pytest.raises(CapacityError, match="smallest sufficient K: 67"):
        slow_vector(model, r, 1000, 0.5)


def test_slow_vector_target_validation():
    model = block_aligned(10, "1/k")
    with pytest.raises(ValueError):
        slow_vector(model, np.array([1.0, 2.0]), 1, 0.5)  # increasing targets
    with pytest.raises(ValueError):
        slow_vector(model, np.array([1.0]), 3, 0.5)  # horizon beyond targets
    with pytest.raises(ValueError):
        slow_vector(model, np.array([1.0, 0.5]), 1, 0.0)  # eps must be positive
    with pytest.raises(ValueError):
        slow_vector(model, np.array([0.0, 0.0]), 1, 0.5)  # positive targets
    with pytest.raises(ValueError):
        slow_vector(model, np.array([1.0, 0.5]), 1, np.nan)
    with pytest.raises(ValueError):
        slow_vector(model, np.array([1.0, np.nan]), 1, 0.5)
    for bad in ([np.inf, 1.0], [np.inf, np.inf]):
        with pytest.raises(ValueError, match="positive and finite"):
            slow_vector(block_aligned(12, "1/k"), np.array(bad), 1, 0.5)
    r = 1.0 / np.log(np.arange(101.0) + 2.0)
    with pytest.raises(ValueError, match="finite"):
        slow_vector(model, r, 100, np.inf)  # not a CapacityError naming K = 1
    with pytest.raises(ValueError, match="overflows"):
        slow_vector(model, r, 100, 1e300)


def test_convex_combination_mixes_matrices():
    a = build_cyclic(two_lines(0.9))
    b = build_cyclic(two_lines(1.3))
    t = convex_combination([a, b], [0.25, 0.75])
    assert np.allclose(t, 0.25 * a.matrix + 0.75 * b.matrix, atol=1e-15)
    with pytest.raises(ValueError):
        convex_combination([a, b], [0.5, 0.6])  # weights must sum to 1
    with pytest.raises(ValueError):
        convex_combination([a, b], [1.5, -0.5])  # and be positive
    with pytest.raises(ValueError):
        convex_combination([a], [0.5, 0.5])  # one weight per product
    with pytest.raises(ValueError, match="finite"):
        convex_combination([a, b], [np.nan, 0.5])  # nan passes both tests above


def test_instance_spec_realizes_every_kind():
    rnd = InstanceSpec("random", {"d": 5, "dims": (2, 2)}, seed=3).realize()
    assert rnd.cyclic().dim == 5
    lines = InstanceSpec("two_lines", {"theta": 0.8}).realize()
    assert lines.cyclic().N == 2
    blocks = InstanceSpec("block_aligned", {"k_blocks": 4, "angle_rule": "1/k"}).realize()
    assert blocks.cyclic().dim == 8
    mix = InstanceSpec(
        "convex_combination",
        {
            "components": (
                {"kind": "two_lines", "parameters": {"theta": 0.8}},
                {"kind": "two_lines", "parameters": {"theta": 1.2}},
            ),
            "weights": (0.5, 0.5),
        },
    ).realize()
    assert mix.matrix.shape == (2, 2)
    assert np.array_equal(mix.matrix, convex_combination(
        [c.cyclic() for c in mix.components], [0.5, 0.5]))


def test_instance_keeps_what_it_realized():
    spec = InstanceSpec(
        "convex_combination",
        {
            "components": (
                {"kind": "block_aligned", "parameters": {"k_blocks": 2, "angle_rule": "1/k"}},
                InstanceSpec("block_aligned", {"k_blocks": 2, "angle_rule": "1/sqrt(k)"}),
            ),
            "weights": (0.5, 0.5),
        },
    )
    comps = spec.parameters["components"]
    assert all(isinstance(c, InstanceSpec) for c in comps)  # dicts become specs
    mix = spec.realize()
    assert [c.spec for c in mix.components] == list(comps)
    assert all(c.model.k_blocks == 2 for c in mix.components)
    cp = mix.components[0].cyclic()
    assert mix.components[0].cyclic() is cp  # built once
    assert np.array_equal(mix.matrix, 0.5 * cp.matrix + 0.5 * mix.components[1].cyclic().matrix)


def test_instance_spec_refuses_missing_and_unknown_parameters():
    with pytest.raises(ValueError, match="missing 'dims'"):
        InstanceSpec("random", {"d": 6}, seed=1)
    with pytest.raises(ValueError, match="missing 'theta'"):
        InstanceSpec("two_lines", {})
    with pytest.raises(ValueError, match="unknown 'bogus'"):
        InstanceSpec("random", {"d": 6, "dims": (2, 3), "bogus": 1}, seed=1)
    with pytest.raises(ValueError, match="missing 'weights'"):  # checked in components too
        InstanceSpec("convex_combination", {"components": (
            {"kind": "convex_combination", "parameters": {"components": ()}},), "weights": (1.0,)})


def test_instance_spec_validation():
    with pytest.raises(ValueError):
        InstanceSpec("bogus", {})
    with pytest.raises(ValueError):
        InstanceSpec("random", {"d": 4, "dims": (2, 2)}).realize()  # seed required
    mix = InstanceSpec(
        "convex_combination",
        {
            "components": ({"kind": "two_lines", "parameters": {"theta": 0.8}},),
            "weights": (1.0,),
        },
    ).realize()
    with pytest.raises(ValueError):
        mix.cyclic()  # no subspace family behind a mixed operator
    # a nested mix is refused when the spec is built, so serialize_instance
    # never meets one
    with pytest.raises(ValueError, match="do not nest"):
        InstanceSpec(
            "convex_combination",
            {
                "components": (
                    {
                        "kind": "convex_combination",
                        "parameters": {
                            "components": ({"kind": "two_lines", "parameters": {"theta": 1.0}},),
                            "weights": (1.0,),
                        },
                    },
                ),
                "weights": (1.0,),
            },
        )
