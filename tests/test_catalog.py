import ast
import math

import numpy as np
import pytest

from entroflow import DynamicsError, euler_maruyama, time_grid
from entroflow.catalog import (
    constant_drift_field,
    constant_drift_spec,
    dini_power_drift_field,
    heat_field,
    make_field,
    make_linear_spec,
    make_mv_field,
    mean_field_ou,
    ou_field,
    ou_spec,
)
from entroflow.oracles import _coefficients


class TestCatalog:
    def test_static_lookups(self):
        for name in ("heat", "ou", "drift-gap", "dini-power-drift"):
            f = make_field(name, d=2)
            assert f.dim == 2

    def test_linear_lookups(self):
        for name in ("heat", "ou", "drift-gap"):
            s = make_linear_spec(name, d=1)
            assert s.dim == 1

    def test_mv_lookups(self):
        assert make_mv_field("mean-field-ou", d=1).dim == 1
        assert make_mv_field("ou", d=2).w2_lipschitz == 0.0

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            make_field("nope")
        with pytest.raises(KeyError):
            make_linear_spec("mean-field-ou")
        # the message offers only names the same lookup accepts
        for lookup, name in (
            (make_field, "diffusion-gap"),
            (make_field, "mean-field-ou"),
            (make_linear_spec, "dini-power-drift"),
            (make_mv_field, "diffusion-gap"),
        ):
            with pytest.raises(KeyError) as exc:
                lookup(name)
            offered = ast.literal_eval(exc.value.args[0].split("choose from ")[1])
            assert offered and name not in offered
            for other in offered:
                lookup(other)

    def test_dini_field_validates_and_integrates(self):
        f = dini_power_drift_field(1, alpha=0.5, gamma=0.5)
        f.validate(seed=4)
        ens = euler_maruyama(f, [0.2], time_grid(0.5, 64), seed=5, n_paths=200)
        assert not ens.aborted
        # drift is bounded, so the cloud stays near the heat scale
        assert abs(ens.terminal_measure().mean()[0]) < 1.0

    @pytest.mark.parametrize("alpha", [0.0, 1.5, float("nan")])
    def test_dini_alpha_outside_unit_interval_rejected(self, alpha):
        with pytest.raises(DynamicsError, match="alpha"):
            dini_power_drift_field(1, alpha=alpha)

    @pytest.mark.parametrize(
        "build, name",
        [
            (lambda: ou_field(1, rate=math.nan), "rate"),
            (lambda: ou_spec(1, rate=math.nan), "rate"),
            (lambda: constant_drift_field(1, c=math.inf), "c"),
            (lambda: constant_drift_spec(1, c=math.inf), "c"),
            (lambda: constant_drift_field(2, c=[0.0, math.nan]), "c"),
            (lambda: dini_power_drift_field(1, gamma=math.nan), "gamma"),
            (lambda: mean_field_ou(1, rate=math.nan), "rate"),
            (lambda: heat_field(1, True), "a_scale"),
        ],
        ids=["ou-field", "ou-spec", "drift-field", "drift-spec", "drift-vector", "dini", "mean-field-ou", "bool-scale"],
    )
    def test_nonfinite_parameter_rejected_in_every_view(self, build, name):
        # unchecked, max() hides a NaN in a static field's bound and the
        # field builds while its spec view fails
        with pytest.raises(DynamicsError, match=f"{name} must be"):
            build()

    def test_field_and_spec_views_agree(self):
        rng = np.random.default_rng(12)
        params = {"rate": 0.7, "a": 1.6, "c": -0.4}
        for name in ("heat", "ou", "drift-gap"):
            for d in (1, 3):
                field = make_field(name, d, **params)
                spec = make_linear_spec(name, d, **params)
                assert field.dim == spec.dim == d
                (a,), (c,), (q,) = _coefficients(spec, [0.3])
                x = rng.normal(scale=2.0, size=(6, d))
                np.testing.assert_allclose(field.drift(0.3, x), x @ a.T + c, rtol=1e-14, atol=1e-14)
                two_a = np.broadcast_to(2.0 * params["a"] * np.eye(d), (6, d, d))
                sig = field.sigma(0.3, x)
                np.testing.assert_allclose(sig @ sig.transpose(0, 2, 1), two_a, rtol=1e-14, atol=1e-14)
                np.testing.assert_allclose(q, two_a[0], rtol=1e-14, atol=1e-14)
                np.testing.assert_array_equal(field.diffusion(0.3, x), two_a / 2.0)
