import ast

import numpy as np
import pytest

from entroflow import euler_maruyama, time_grid
from entroflow.catalog import (
    FIELD_NAMES,
    dini_power_drift_field,
    make_field,
    make_linear_spec,
    make_mv_field,
)


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

    def test_names_catalog_complete(self):
        assert set(FIELD_NAMES) == {
            "heat",
            "ou",
            "drift-gap",
            "diffusion-gap",
            "mean-field-ou",
            "dini-power-drift",
        }

    def test_dini_field_validates_and_integrates(self):
        f = dini_power_drift_field(1, alpha=0.5, gamma=0.5)
        f.validate(seed=4)
        f.modulus.validate()
        ens = euler_maruyama(f, [0.2], time_grid(0.5, 64), seed=5, n_paths=200)
        assert not ens.aborted
        # drift is bounded, so the cloud stays near the heat scale
        assert abs(ens.terminal_measure().mean()[0]) < 1.0

    def test_field_and_spec_views_agree(self):
        rng = np.random.default_rng(12)
        params = {"rate": 0.7, "a": 1.6, "c": -0.4}
        for name in ("heat", "ou", "drift-gap"):
            for d in (1, 3):
                field = make_field(name, d, **params)
                spec = make_linear_spec(name, d, **params)
                assert field.dim == spec.dim == d
                a_fn, c_fn, s_fn, _ = spec.parts()
                x = rng.normal(scale=2.0, size=(6, d))
                np.testing.assert_allclose(field.drift(0.3, x), x @ a_fn(0.3).T + c_fn(0.3), rtol=1e-14, atol=1e-14)
                two_a = np.broadcast_to(2.0 * params["a"] * np.eye(d), (6, d, d))
                sig = field.sigma(0.3, x)
                np.testing.assert_allclose(sig @ sig.transpose(0, 2, 1), two_a, rtol=1e-14, atol=1e-14)
                np.testing.assert_allclose(s_fn(0.3) @ s_fn(0.3).T, two_a[0], rtol=1e-14, atol=1e-14)
                np.testing.assert_array_equal(field.diffusion(0.3, x), two_a / 2.0)
