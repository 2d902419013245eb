"""Model parameters for parametric down-conversion (PDC) coupled to cascaded
up-conversion (CUpC) in a finite nonlinear crystal.

Three second-order processes run simultaneously inside the crystal, pumped by
a strong classical wave: PDC into signal/idler modes, up-conversion of the
signal, and up-conversion of the idler.  Each process carries a complex
coupling constant (the effective susceptibility and pump amplitude are
absorbed into it) and a real wavevector mismatch:

    kappa   [cm^-1]  PDC coupling
    eta_s   [cm^-1]  signal up-conversion coupling
    eta_i   [cm^-1]  idler up-conversion coupling
    delta_tilde [cm^-1]  PDC mismatch        k_p - k_as - k_ai
    delta_s     [cm^-1]  signal CUpC mismatch k_bs - k_as - k_p
    delta_i     [cm^-1]  idler CUpC mismatch  k_bi - k_ai - k_p
    length      [cm]     crystal length

Units are fixed: cm^-1 for couplings and mismatches, cm for lengths.  There
is no unit-system abstraction.  The degenerate two-mode configuration is not
a separate type; it is the constraint eta_i = eta_s, delta_i = delta_s (see
:func:`degenerate_params`).

This module is the one that knows a point's fields: FIELDS lists them in
the order above and COUPLINGS the complex ones, and every other module
reads the names from here.  It also owns the batch form of a point, a
ModelParams whose fields are arrays over many points (:func:`stack`,
:func:`unstack`, :func:`broadcast`, :func:`select`), and the failure of a
value beyond double precision (:func:`beyond_double`).
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, replace

import numpy as np


@dataclass(frozen=True)
class ModelParams:
    """Immutable coupling constants, mismatches and crystal length.

    Complex couplings are accepted with arbitrary phase; only magnitudes and
    relative phases affect the observables, but phases propagate exactly
    through the solvers.
    """

    kappa: complex
    eta_s: complex
    eta_i: complex
    delta_tilde: float
    delta_s: float
    delta_i: float
    length: float

    def swapped(self) -> "ModelParams":
        """Exchange the signal and idler roles: (eta_s, delta_s) <-> (eta_i, delta_i)."""
        return replace(self, eta_s=self.eta_i, eta_i=self.eta_s,
                       delta_s=self.delta_i, delta_i=self.delta_s)


#: a point's fields in declaration order: three complex couplings, three
#: real mismatches, the crystal length
FIELDS = tuple(ModelParams.__dataclass_fields__)
COUPLINGS = FIELDS[:3]


@dataclass(frozen=True)
class DerivedParams:
    """Scalar quantities derived from :class:`ModelParams`.

    g_s_sq, g_i_sq [cm^-2]   g^2 = |eta|^2 + delta^2/4 per up-conversion arm
    phi            [cm^-1]   phi = delta_tilde - (delta_s + delta_i)/2
    p_coef         [cm^-2]   quartic coefficient P
    q_coef         [cm^-3]   real value Q; the characteristic equation is
                             lambda^4 + P lambda^2 + i Q lambda + R = 0
    r_coef         [cm^-4]   quartic coefficient R
    phi_cas_*      [cm^-1]   cascaded mismatches: a two-step process can be
                             phase matched even when each step is not
    """

    g_s_sq: float
    g_i_sq: float
    phi: float
    p_coef: float
    q_coef: float
    r_coef: float
    phi_cas_s: float
    phi_cas_i: float
    phi_cas_si: float


def validate(params: ModelParams) -> ModelParams:
    """Check invariants on raw input; return the params unchanged if valid.

    Raises ValueError naming the offending field for non-finite entries or a
    negative crystal length.
    """
    for name in FIELDS:
        if not cmath.isfinite(getattr(params, name)):
            raise ValueError(f"non-finite parameter: {name}")
    if params.length < 0:
        raise ValueError("length must be nonnegative")
    return params


def _abs_sq(z):
    """|z|^2 of a complex scalar or array, as re^2 + im^2."""
    return z.real * z.real + z.imag * z.imag


def validate_batch(params: ModelParams) -> list:
    """:func:`validate` of every point of a batch, a ModelParams whose fields
    are arrays of one shape (n,): for each point None, or the ValueError
    validate raises for it."""
    checks = [(~np.isfinite(getattr(params, name)), f"non-finite parameter: {name}")
              for name in FIELDS]
    checks.append((params.length < 0, "length must be nonnegative"))
    errors: list = [None] * len(params.length)
    for bad, message in checks:
        record_first(errors, bad, lambda: ValueError(message))
    return errors


def stack(points: list) -> ModelParams:
    """One ModelParams whose fields are arrays over the points."""
    return ModelParams(*(np.array([getattr(p, f) for p in points]) for f in FIELDS))


def unstack(batch: ModelParams) -> list:
    """The points of a batch as ModelParams of Python numbers."""
    return [ModelParams(*values)
            for values in zip(*(getattr(batch, f).tolist() for f in FIELDS))]


def broadcast(batch: ModelParams) -> ModelParams:
    """A batch whose fields are scalars or arrays that broadcast to one
    shape, as one whose fields are flat arrays (n,): complex couplings, the
    rest real."""
    fields = np.broadcast_arrays(*(
        np.asarray(getattr(batch, f), dtype=complex if f in COUPLINGS else float)
        for f in FIELDS))
    return ModelParams(*(np.ravel(f) for f in fields))


def select(batch, mask: np.ndarray):
    """The points of a batch where mask holds, as a batch (n,) of the same
    dataclass: a ModelParams or a DerivedParams whose fields are arrays."""
    return type(batch)(*(getattr(batch, f)[mask] for f in batch.__dataclass_fields__))


def unit_phase(z: complex) -> complex:
    """e^{i arg z}, and 1 at z = 0: the phase a coupling keeps when a scan
    axis or a command-line flag sets only its magnitude."""
    return cmath.exp(1j * cmath.phase(z)) if z != 0 else 1.0 + 0j


def beyond_double(what: str) -> OverflowError:
    """The failure of a value beyond double precision, named by what, for
    one point and for a batch's failure rows."""
    return OverflowError(f"{what} exceeds double precision")


def record_first(errors: list, mask, make) -> None:
    """Record make() as the failure of every point in mask that has none:
    the first failure of a point is the one it keeps."""
    if not np.count_nonzero(mask):  # most masks are empty
        return
    for i in np.flatnonzero(mask):
        if errors[i] is None:
            errors[i] = make()


def derive(params: ModelParams) -> DerivedParams:
    """Compute the characteristic-quartic coefficients and cascaded mismatches;
    for a batch (fields that are arrays of one shape) every field is an array.

    P = g_s^2 + g_i^2 + phi^2/2 - |kappa|^2
    Q = phi (g_i^2 - g_s^2) - |kappa|^2 (delta_i - delta_s)/2
    R = (g_s^2 - phi^2/4)(g_i^2 - phi^2/4)
        - |kappa|^2/4 (phi - delta_s)(phi - delta_i)
    """
    # squares as products: Python's ** and abs() and numpy's can round
    # differently, and a batch must get the coefficients of single points
    a2 = _abs_sq(params.kappa)
    gs2 = _abs_sq(params.eta_s) + params.delta_s * params.delta_s / 4
    gi2 = _abs_sq(params.eta_i) + params.delta_i * params.delta_i / 4
    phi = params.delta_tilde - (params.delta_s + params.delta_i) / 2
    p = gs2 + gi2 + phi * phi / 2 - a2
    q = phi * (gi2 - gs2) - a2 * (params.delta_i - params.delta_s) / 2
    r = (gs2 - phi * phi / 4) * (gi2 - phi * phi / 4) \
        - a2 / 4 * (phi - params.delta_s) * (phi - params.delta_i)
    return DerivedParams(
        g_s_sq=gs2, g_i_sq=gi2, phi=phi,
        p_coef=p, q_coef=q, r_coef=r,
        phi_cas_s=params.delta_tilde - params.delta_s,
        phi_cas_i=params.delta_tilde - params.delta_i,
        phi_cas_si=params.delta_tilde - params.delta_s - params.delta_i,
    )


#: the degenerate configuration: each idler-arm field takes the value of its
#: signal-arm field (:func:`is_degenerate` is its test)
DEGENERATE_LOCK = {"eta_i": "eta_s", "delta_i": "delta_s"}
#: the three-mode configuration: the idler up-conversion arm's values
#: (:func:`is_three_mode` is its test)
THREE_MODE = {"eta_i": 0j, "delta_i": 0.0}


def degenerate_params(kappa: complex, eta: complex, delta_tilde: float,
                      delta_s: float, length: float) -> ModelParams:
    """Frequency-degenerate configuration: one PDC mode and one up-converted
    mode, realized by DEGENERATE_LOCK: eta_i = eta_s and delta_i = delta_s."""
    fields = dict(kappa=complex(kappa), eta_s=complex(eta), delta_tilde=delta_tilde,
                  delta_s=delta_s, length=length)
    fields.update({idler: fields[signal] for idler, signal in DEGENERATE_LOCK.items()})
    return validate(ModelParams(**fields))


def three_mode_params(kappa: complex, eta_s: complex, delta_tilde: float,
                      delta_s: float, length: float) -> ModelParams:
    """Three-mode configuration: only the signal is up-converted
    (THREE_MODE, eta_i = 0, delta_i = 0)."""
    return validate(ModelParams(kappa=complex(kappa), eta_s=complex(eta_s),
                                delta_tilde=delta_tilde, delta_s=delta_s,
                                length=length, **THREE_MODE))


def is_degenerate(params: ModelParams):
    """True when eta_i = eta_s and delta_i = delta_s exactly: the one rule
    for the degenerate configuration, which the regime labels, the growth
    rate, the rows form of the propagator and the squeezing metrics all
    read.  A boolean array for a batch (fields that are arrays)."""
    return (params.eta_i == params.eta_s) & (params.delta_i == params.delta_s)


def is_three_mode(params: ModelParams):
    """True when eta_i = 0 and delta_i = 0 exactly; a boolean array for a
    batch (fields that are arrays)."""
    return (params.eta_i == 0) & (params.delta_i == 0)


# JSON wire format: complex numbers as [re, im] pairs, field names fixed.

def params_to_dict(params: ModelParams) -> dict:
    values = {name: getattr(params, name) for name in FIELDS}
    return {name: [v.real, v.imag] if name in COUPLINGS else v
            for name, v in values.items()}


def _object(data, keys, what: str) -> dict:
    """data, a decoded JSON object whose keys are all among keys; ValueError
    when data is not an object, or naming the first key it does not know."""
    if not isinstance(data, dict):
        raise ValueError(f"{what} must be a JSON object, got {type(data).__name__}")
    for key in data:
        if key not in keys:
            raise ValueError(f"{what}: unknown key {key!r}")
    return data


def _entry(data: dict, key: str, what: str):
    """data[key] of a decoded JSON object; ValueError naming the key when
    data lacks it."""
    if key not in data:
        raise ValueError(f"{what}: missing key {key!r}")
    return data[key]


def _convert(kind, value, key: str):
    """kind(value) for a JSON value; ValueError naming the key when it does
    not convert."""
    try:
        if kind is complex and isinstance(value, (list, tuple)):
            return complex(value[0], value[1])
        return kind(value)
    except (TypeError, ValueError, IndexError, OverflowError):
        raise ValueError(f"{key}: cannot read {value!r} as {kind.__name__}") from None


def params_from_dict(data: dict) -> ModelParams:
    """ModelParams from the JSON wire format; ValueError naming a missing,
    malformed or unknown key."""
    _object(data, FIELDS, "parameters")
    return validate(ModelParams(**{
        name: _convert(complex if name in COUPLINGS else float,
                       _entry(data, name, "parameters"), name)
        for name in FIELDS}))
