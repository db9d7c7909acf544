import math

import numpy as np
import pytest

import fokas_heat as fh
from fokas_heat.core import LayerSpec, ProblemConfig, Geometry, shift_to_canonical
from fokas_heat.errors import ConfigValidationError, DomainMismatch


def test_valid_two_semi_infinite():
    cfg = fh.two_semi_infinite(0.02, 0.06)
    assert cfg.geometry == Geometry.TWO_SEMI_INFINITE
    assert cfg.sigmas == (0.02, 0.06)
    # validate is idempotent and returns the config unchanged
    assert fh.validate(fh.validate(cfg)) is cfg


def test_nonpositive_sigma_rejected():
    with pytest.raises(ConfigValidationError) as err:
        fh.two_semi_infinite(-1.0, 2.0)
    assert any(v.code == "NonPositiveSigma" for v in err.value.violations)


def test_non_abutting_layers_rejected():
    cfg = ProblemConfig(
        Geometry.TWO_SEMI_INFINITE,
        (LayerSpec(1.0, -math.inf, 0.0), LayerSpec(1.0, 0.5, math.inf)),
        (None, None),
        far_field=(0.0, 0.0),
    )
    errs = fh.collect_violations(cfg)
    assert any(v.code == "NonAbuttingLayers" for v in errs)


def test_robin_end_rejected_for_two_finite():
    cfg = ProblemConfig(
        Geometry.TWO_FINITE,
        (LayerSpec(1.0, -1.0, 0.0), LayerSpec(2.0, 0.0, 1.0)),
        (None, None),
        end_left=fh.EndCondition(1.0, 1.0, fh.BoundaryData.constant(0.0)),
        end_right=fh.EndCondition.dirichlet(1.0),
    )
    errs = fh.collect_violations(cfg)
    assert any(v.code == "UnsupportedBoundaryOperator" for v in errs)


def test_three_finite_requires_insulated_ends():
    cfg = ProblemConfig(
        Geometry.THREE_FINITE,
        (LayerSpec(1.0, -1.0, 0.0), LayerSpec(1.0, 0.0, 1.0), LayerSpec(1.0, 1.0, 2.0)),
        (None, None, None),
        end_left=fh.EndCondition.dirichlet(0.0),
        end_right=fh.EndCondition.neumann_zero(),
    )
    errs = fh.collect_violations(cfg)
    assert any(v.code == "UnsupportedBoundaryOperator" for v in errs)


def test_layer_index_and_domain_mismatch(steady_slab_config):
    cfg = steady_slab_config
    assert cfg.layer_index(-0.5) == 0
    assert cfg.layer_index(0.5) == 1
    assert cfg.layer_index(0.0) == 0  # ties go left
    with pytest.raises(DomainMismatch):
        cfg.layer_index(5.0)


@pytest.mark.parametrize(
    "cfg",
    [
        fh.two_semi_infinite(1.0, 2.0),
        fh.two_finite(1.0, 2.0, 1.0, 1.5),
        fh.three_infinite(1.0, 2.0, 3.0, 0.5),
        fh.three_finite(1.0, 2.0, 3.0, 1.0, 1.5, 2.5),
    ],
    ids=lambda cfg: cfg.geometry.value,
)
def test_layer_indices_ties_left_and_domain(cfg):
    n = len(cfg.layers)
    inside = [lay.x_hi - 0.25 if math.isfinite(lay.x_hi) else lay.x_lo + 0.25 for lay in cfg.layers]
    faces = [lay.x_hi for lay in cfg.layers[:-1]]
    ends = [x for x in (cfg.x_min, cfg.x_max) if math.isfinite(x)]
    xs = np.array(inside + faces + ends)
    expected = list(range(n)) + list(range(n - 1)) + [0 if x == cfg.x_min else n - 1 for x in ends]
    np.testing.assert_array_equal(cfg.layer_indices(xs), expected)
    assert [cfg.layer_index(float(x)) for x in xs] == expected
    beyond = [x for x in (cfg.x_min - 1.0, cfg.x_max + 1.0) if math.isfinite(x)]
    for x in beyond + [math.nan, math.inf, -math.inf]:
        with pytest.raises(DomainMismatch):
            cfg.layer_index(x)
        with pytest.raises(DomainMismatch):
            cfg.layer_indices(np.array([inside[0], x]))


def test_shift_to_canonical_two_layers():
    layers = [LayerSpec(1.0, 2.0, 5.0), LayerSpec(2.0, 5.0, 9.0)]
    shifted, offset = shift_to_canonical(layers)
    assert offset == 5.0
    assert shifted[0].x_lo == -3.0 and shifted[0].x_hi == 0.0
    assert shifted[1].x_hi == 4.0


def test_shift_to_canonical_three_infinite():
    layers = [
        LayerSpec(1.0, -math.inf, 1.0),
        LayerSpec(1.0, 1.0, 3.0),
        LayerSpec(1.0, 3.0, math.inf),
    ]
    shifted, offset = shift_to_canonical(layers)
    assert offset == 2.0
    assert shifted[1].x_lo == -1.0 and shifted[1].x_hi == 1.0


def test_every_valid_config_dispatches_to_one_solver(
    generic_two_semi, slab_config, three_infinite_config, three_finite_config
):
    for cfg in (generic_two_semi, slab_config, three_infinite_config, three_finite_config):
        sol = fh.solve(cfg)
        assert np.isfinite(sol.value(0.5 * (max(cfg.x_min, -1.0) + min(cfg.x_max, 1.0)), 0.2))


def test_mirrored_round_trip(three_finite_full_config):
    cfg = three_finite_full_config
    mm = fh.mirrored(fh.mirrored(cfg))
    assert mm.sigmas == cfg.sigmas
    xs = np.linspace(cfg.x_min, cfg.x_max, 7)
    for src_a, src_b, layer in zip(mm.initial_data, cfg.initial_data, cfg.layers):
        sel = (xs >= layer.x_lo) & (xs <= layer.x_hi)
        np.testing.assert_allclose(
            np.real(src_a(xs[sel])), np.real(src_b(xs[sel])), atol=1e-12
        )


def test_sampled_data_rejected_on_infinite_extent():
    import fokas_heat as fh

    src = fh.SampledInterval(lambda x: np.exp(x), -3.0, 0.0)
    cfg = ProblemConfig(
        Geometry.TWO_SEMI_INFINITE,
        (LayerSpec(1.0, -math.inf, 0.0), LayerSpec(1.0, 0.0, math.inf)),
        (src, None),
        far_field=(0.0, 0.0),
    )
    errs = fh.collect_violations(cfg)
    assert any(v.code == "UnsupportedInitialData" for v in errs)


@pytest.mark.parametrize(
    "term",
    [
        fh.ExpPolyTerm(1.0 + 0.5j, 1, 2.0),  # complex coefficient
        fh.ExpPolyTerm(1.0, 0, 2.0 + 1.0j),  # complex rate (a decaying cosine)
    ],
)
def test_nonreal_initial_data_rejected(term):
    # half contours rely on f(-conj k) = conj f(k), which complex data breaks
    left = fh.ExpPolynomial((term,), side="left")
    with pytest.raises(ConfigValidationError) as err:
        fh.two_semi_infinite(1.0, 2.0, left_initial=left)
    assert [v.code for v in err.value.violations] == ["NonRealData"]
    assert err.value.violations[0].field == "initial_data[0]"


def test_nonreal_boundary_data_rejected():
    with pytest.raises(ConfigValidationError) as err:
        fh.two_finite(1.0, 2.0, 1.0, 1.0, left_value=fh.BoundaryData(((1.0, 0, -1.0 + 2.0j),)))
    assert [(v.code, v.field) for v in err.value.violations] == [("NonRealData", "end_left.data")]
