"""Built-in coefficient fields for the experiment runner.

Arbitrary user code injection is out of scope for a reproducibility tool, so
the CLI selects dynamics from this catalog by name with numeric parameters:

    heat(a)                            driftless, diffusion a*I
    ou(rate, a)                        linear drift -rate*x, diffusion a*I
    drift-gap(c, a)                    constant drift c, diffusion a*I
    dini-power-drift(alpha, gamma, a)  bounded Dini drift gamma*phi(|x|), diffusion a*I
    mean-field-ou(rate, a)             drift rate*(mean(mu) - x), diffusion a*I

The linear entries share one description, dX = (c - rate*X) dt + sqrt(2a) dW,
that gives both the simulation view (CoefficientField) and the closed-form
view (LinearSDESpec); the other two reuse its constant diffusion.  A static
field declares one constant, `bound`, and a mean-field entry one, `w2_lipschitz`.
The "diffusion-gap" of mismatch_singularity is the heat pair a1*I vs a2*I.
"""

import numpy as np

from .dynamics import CoefficientField, DynamicsError
from .meanfield import MVCoefficientField
from .measures import _is_count, _is_positive
from .oracles import LinearSDESpec

__all__ = [
    "heat_field",
    "ou_field",
    "constant_drift_field",
    "heat_spec",
    "ou_spec",
    "constant_drift_spec",
    "mean_field_ou",
    "dini_power_drift_field",
    "LINEAR_NAMES",
    "INTERACTING_NAMES",
    "MEAN_FIELD_NAMES",
    "make_field",
    "make_linear_spec",
    "make_mv_field",
    "param_names",
]

#: catalog defaults by builder keyword; the builder signatures read them here
_HEAT = {"a_scale": 1.0}
_OU = {"rate": 1.0, "a_scale": 0.5}
_GAP = {"c": 1.0, "a_scale": 1.0}
_DINI = {"alpha": 0.5, "gamma": 0.5, "a_scale": 1.0}


def _zero_drift(t, x):
    return np.zeros_like(x)


def _constant_diffusion(d, a_scale, **finite):
    """diffusion, sigma and div_a callables of a = a_scale*I on R^d.

    They also take the measure argument of a mean-field field and ignore it.
    An out-of-range d or a_scale, or a non-finite value among the entry's other
    parameters `finite`, raises DynamicsError: once, for every view of the entry.
    """
    if not _is_count(d):
        raise DynamicsError(f"d must be a positive integer, got {d!r}")
    if not _is_positive(a_scale):
        raise DynamicsError(f"diffusion scale a_scale must be positive and finite, got {a_scale!r}")
    for name, value in finite.items():
        if not np.all(np.isfinite(value)):
            raise DynamicsError(f"{name} must be finite, got {value!r}")
    a = a_scale * np.eye(d)
    sig = np.sqrt(2.0 * a_scale) * np.eye(d)

    def diffusion(t, x, mu=None):
        return np.broadcast_to(a, (x.shape[0], d, d))

    def sigma(t, x, mu=None):
        return np.broadcast_to(sig, (x.shape[0], d, d))

    def div_a(t, x, mu=None):
        return np.zeros_like(x)

    return diffusion, sigma, div_a


class _Linear:
    """dX = (c - rate*X) dt + sqrt(2a) dW on R^d with a = a_scale*I."""

    def __init__(self, d, a_scale, rate=0.0, c=0.0):
        self.diffusion, self.sigma, self.div_a = _constant_diffusion(d, a_scale, rate=rate, c=c)
        self.d, self.a_scale, self.rate = d, a_scale, rate
        self.c = np.full(d, float(c)) if np.ndim(c) == 0 else np.asarray(c, dtype=float)

    def field(self, label, horizon):
        rate, c = self.rate, self.c
        return CoefficientField(
            dim=self.d,
            # c is the bounded part and -rate*x the Lipschitz part; a zero part costs one zeros_like
            drift_dini=(lambda t, x: np.broadcast_to(c, x.shape)) if np.any(c) else _zero_drift,
            drift_lipschitz=(lambda t, x: -rate * x) if rate else _zero_drift,
            diffusion=self.diffusion,
            sigma_fn=self.sigma,
            div_a_fn=self.div_a,
            bound=max(self.a_scale, 1.0 / self.a_scale, abs(rate), float(np.linalg.norm(c))) + 1.0,
            horizon=horizon,
            label=label,
        )

    def spec(self, x0, horizon):
        eye = np.eye(self.d)
        x0 = np.zeros(self.d) if x0 is None else x0
        drift_matrix = -self.rate * eye if self.rate else np.zeros_like(eye)
        return LinearSDESpec.from_point(x0, drift_matrix, self.c, np.sqrt(2.0 * self.a_scale) * eye, horizon=horizon)


def heat_field(d=1, a_scale=_HEAT["a_scale"], horizon=1.0):
    return _Linear(d, a_scale).field(f"heat(a={a_scale})", horizon)


def heat_spec(d=1, a_scale=_HEAT["a_scale"], x0=None, horizon=1.0):
    return _Linear(d, a_scale).spec(x0, horizon)


def ou_field(d=1, rate=_OU["rate"], a_scale=_OU["a_scale"], horizon=1.0):
    return _Linear(d, a_scale, rate=rate).field(f"ou(rate={rate},a={a_scale})", horizon)


def ou_spec(d=1, rate=_OU["rate"], a_scale=_OU["a_scale"], x0=None, horizon=1.0):
    return _Linear(d, a_scale, rate=rate).spec(x0, horizon)


def constant_drift_field(d=1, c=_GAP["c"], a_scale=_GAP["a_scale"], horizon=1.0):
    return _Linear(d, a_scale, c=c).field(f"drift(c={c},a={a_scale})", horizon)


def constant_drift_spec(d=1, c=_GAP["c"], a_scale=_GAP["a_scale"], x0=None, horizon=1.0):
    return _Linear(d, a_scale, c=c).spec(x0, horizon)


def mean_field_ou(d=1, rate=_OU["rate"], a_scale=_OU["a_scale"]):
    """Drift rate*(mean(mu) - x), |rate|-Lipschitz in W2: the cloud mean is conserved in expectation."""
    diffusion, sigma, div_a = _constant_diffusion(d, a_scale, rate=rate)
    return MVCoefficientField(
        dim=d,
        drift=lambda t, x, mu: rate * (mu.mean() - x),
        diffusion=diffusion,
        sigma_fn=sigma,
        div_a_fn=div_a,
        w2_lipschitz=abs(rate),
        label=f"mean-field-ou(rate={rate},a={a_scale})",
    )


def dini_power_drift_field(
    d=1, alpha=_DINI["alpha"], gamma=_DINI["gamma"], a_scale=_DINI["a_scale"], horizon=1.0
):
    """Bounded drift gamma * |x|^alpha * sign(x) per coordinate, capped at |x|=1.

    The coordinatewise map r -> min(|r|,1)^alpha sign(r) has modulus
    2 phi(|dx|) for phi(r) = r^alpha, so the field sits in the Dini class
    without being Lipschitz at the origin; alpha outside (0, 1] raises DynamicsError.
    """
    if not 0 < alpha <= 1:
        raise DynamicsError(f"dini-power-drift needs alpha in (0, 1], got {alpha!r}")
    diffusion, sigma, div_a = _constant_diffusion(d, a_scale, gamma=gamma)

    def drift0(t, x):
        capped = np.minimum(np.abs(x), 1.0)
        return gamma * np.sign(x) * capped**alpha

    return CoefficientField(
        dim=d,
        drift_dini=drift0,
        drift_lipschitz=_zero_drift,
        diffusion=diffusion,
        sigma_fn=sigma,
        div_a_fn=div_a,
        bound=max(a_scale, 1.0 / a_scale, gamma * np.sqrt(d) * 2.0) + 1.0,
        horizon=horizon,
        label=f"dini(alpha={alpha},gamma={gamma})",
    )


_FIELD, _SPEC, _MEAN_FIELD = 0, 1, 2
_VIEWS = ("static field", "linear spec", "mean-field entry")

#: name -> (static-field builder, linear-spec builder, mean-field builder,
#: defaults); None where the entry has no such view of its own
_TABLE = {
    "heat": (heat_field, heat_spec, None, _HEAT),
    "ou": (ou_field, ou_spec, None, _OU),
    "drift-gap": (constant_drift_field, constant_drift_spec, None, _GAP),
    "dini-power-drift": (dini_power_drift_field, None, None, _DINI),
    "mean-field-ou": (None, None, mean_field_ou, _OU),
}


def _names(view):
    return tuple(name for name, entry in _TABLE.items() if entry[view] is not None)


LINEAR_NAMES = _names(_SPEC)
INTERACTING_NAMES = _names(_MEAN_FIELD)
#: every name make_mv_field builds: the interacting entries and the static fields it wraps
MEAN_FIELD_NAMES = INTERACTING_NAMES + _names(_FIELD)


def param_names(name):
    """The parameters the named entry takes; the catalog parameter "a" is the builders' a_scale."""
    return tuple("a" if kw == "a_scale" else kw for kw in _TABLE[name][-1])


def _build(name, view, d, params, names=None, **extra):
    """One view of a named entry, its parameters read from params by param_names."""
    names = names or _names(view)
    if name not in names:
        raise KeyError(f"no {_VIEWS[view]} named {name!r}; choose from {names}")
    *builders, defaults = _TABLE[name]
    kwargs = {kw: params.get(p, value) for p, (kw, value) in zip(param_names(name), defaults.items())}
    return builders[view](d, **kwargs, **extra)


def make_field(name, d=1, horizon=1.0, **params):
    """Catalog lookup for the simulation view of a named static field."""
    return _build(name, _FIELD, d, params, horizon=horizon)


def make_linear_spec(name, d=1, horizon=1.0, **params):
    """Catalog lookup for the closed-form view of a named linear field."""
    return _build(name, _SPEC, d, params, horizon=horizon)


def make_mv_field(name, d=1, **params):
    """Catalog lookup for the mean-field view; a static field ignores the measure."""
    if name in _names(_FIELD):
        return MVCoefficientField.from_static(make_field(name, d, **params))
    return _build(name, _MEAN_FIELD, d, params, names=MEAN_FIELD_NAMES)
