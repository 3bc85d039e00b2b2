"""The frozen value types with hand-written __init__: they must behave
exactly as the generated dataclass __init__ did."""

import copy
import dataclasses
import inspect
import math
import pickle

import pytest

from fluctforce.circuits import PlanarCapacitor, SpherePlate
from fluctforce.errors import DomainError
from fluctforce.forces import ForceResult
from fluctforce.oscillator import (Drude, Eigenfrequencies, Ohmic,
                                   OscillatorParams)

# one valid instance per type, its repr, and a valid field change
SAMPLES = [
    (Ohmic, (0.3,), "Ohmic(gamma0=0.3)", {"gamma0": 0.5}),
    (Drude, (0.2, 40.0), "Drude(gamma0=0.2, omega_d=40.0)",
     {"omega_d": 50.0}),
    (OscillatorParams, (1.5, Ohmic(0.1), 0.25),
     "OscillatorParams(omega0=1.5, damping=Ohmic(gamma0=0.1), "
     "temperature=0.25, mass=None)", {"mass": 2.0}),
    (OscillatorParams, (1.5, Drude(0.1, 30.0), 0.0, 3.0),
     "OscillatorParams(omega0=1.5, damping=Drude(gamma0=0.1, omega_d=30.0), "
     "temperature=0.0, mass=3.0)", {"temperature": 1.0}),
    (ForceResult, (-0.25, "exact"),
     "ForceResult(value=-0.25, regime='exact', warnings=(), "
     "components=None, im_residual=0.0)", {"regime": "low-T"}),
    (ForceResult, (-0.25, "exact", ("w",), {"f_omega": -0.25}, 1e-17),
     "ForceResult(value=-0.25, regime='exact', warnings=('w',), "
     "components={'f_omega': -0.25}, im_residual=1e-17)",
     {"value": 0.5}),
    (Eigenfrequencies, (1 - 0.5j, -1 - 0.5j, None, "ohmic"),
     "Eigenfrequencies(omega1=(1-0.5j), omega2=(-1-0.5j), omega3=None, "
     "method='ohmic', warnings=())", {"method": "approx"}),
    (PlanarCapacitor, (1e-4, 1e-6), "PlanarCapacitor(area=0.0001, "
     "gap=1e-06, epsilon=1.0)", {"gap": 2e-6}),
    (SpherePlate, (1e-4, 2e-5), "SpherePlate(radius=0.0001, gap=2e-05)",
     {"gap": 3e-5}),
]
IDS = [f"{cls.__name__}-{i}" for i, (cls, *_) in enumerate(SAMPLES)]


@pytest.mark.parametrize("cls, args, text, change", SAMPLES, ids=IDS)
def test_init_matches_the_fields(cls, args, text, change):
    fields = dataclasses.fields(cls)
    params = list(inspect.signature(cls).parameters.values())
    assert [p.name for p in params] == [f.name for f in fields]
    for p, f in zip(params, fields):
        default = inspect.Parameter.empty if f.default is dataclasses.MISSING \
            else f.default
        assert p.default == default, p.name
    obj = cls(*args)
    assert [getattr(obj, f.name) for f in fields] \
        == list(args) + [f.default for f in fields[len(args):]]
    assert vars(obj) == {f.name: getattr(obj, f.name) for f in fields}


@pytest.mark.parametrize("cls, args, text, change", SAMPLES, ids=IDS)
def test_frozen_eq_hash_repr(cls, args, text, change):
    obj = cls(*args)
    assert repr(obj) == text
    twin = cls(*args)
    assert obj == twin and obj is not twin
    assert obj != dataclasses.replace(obj, **change)
    if isinstance(getattr(obj, "components", None), dict):
        with pytest.raises(TypeError):     # a dict field is unhashable
            hash(obj)
    else:
        assert hash(obj) == hash(twin) \
            == hash(tuple(getattr(obj, f.name)
                          for f in dataclasses.fields(cls)))
    for f in dataclasses.fields(cls):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, f.name, getattr(obj, f.name))
    with pytest.raises(dataclasses.FrozenInstanceError):
        obj.extra = 1
    assert obj == twin


@pytest.mark.parametrize("cls, args, text, change", SAMPLES, ids=IDS)
def test_pickle_and_copy_round_trip(cls, args, text, change):
    obj = cls(*args)
    for back in (pickle.loads(pickle.dumps(obj, protocol=p))
                 for p in range(pickle.HIGHEST_PROTOCOL + 1)):
        assert back == obj and repr(back) == text
    assert copy.copy(obj) == obj and repr(copy.deepcopy(obj)) == text
    changed = dataclasses.replace(obj, **change)
    assert {k: v for k, v in vars(changed).items() if k not in change} \
        == {k: v for k, v in vars(obj).items() if k not in change}


# constructor, arguments, exception type and message
BAD = [
    (Ohmic, (-0.1,), DomainError, "gamma0 must be finite and >= 0"),
    (Ohmic, (math.nan,), DomainError, "gamma0 must be finite and >= 0"),
    (Drude, (math.inf, 1.0), DomainError, "gamma0 must be finite and >= 0"),
    (Drude, (0.1, 0.0), DomainError, "omega_d must be finite and > 0"),
    (Drude, (-1.0, -1.0), DomainError, "gamma0 must be finite and >= 0"),
    (OscillatorParams, (0.0, Ohmic(0.1), 1.0), DomainError,
     "omega0 must be finite and > 0"),
    (OscillatorParams, (1.0, Ohmic(0.1), -1.0), DomainError,
     "temperature must be finite and >= 0"),
    (OscillatorParams, (1.0, Ohmic(0.1), 1.0, math.inf), DomainError,
     "mass must be finite and > 0"),
    (OscillatorParams, (-1.0, Ohmic(0.1), -1.0, -1.0), DomainError,
     "omega0 must be finite and > 0"),
    (PlanarCapacitor, (1e-4, 0.0), DomainError,
     "area, gap and epsilon must be positive"),
    (PlanarCapacitor, (1e-4, 1e-6, -2.0), DomainError,
     "area, gap and epsilon must be positive"),
    (SpherePlate, (0.0, 1e-6), DomainError,
     "radius and gap must be positive"),
]


@pytest.mark.parametrize("cls, args, exc, message", BAD)
def test_checks_and_messages(cls, args, exc, message):
    with pytest.raises(exc) as info:
        cls(*args)
    assert type(info.value) is exc and str(info.value) == message


@pytest.mark.parametrize("obj, change, message", [
    (Ohmic(0.3), {"gamma0": -1.0}, "gamma0 must be finite and >= 0"),
    (Drude(0.3, 9.0), {"omega_d": math.nan}, "omega_d must be finite and > 0"),
    (OscillatorParams(1.0, Ohmic(0.1), 0.5), {"temperature": math.inf},
     "temperature must be finite and >= 0"),
    (PlanarCapacitor(1e-4, 1e-6), {"epsilon": 0.0},
     "area, gap and epsilon must be positive"),
    (SpherePlate(1e-4, 1e-6), {"radius": -1.0},
     "radius and gap must be positive"),
])
def test_replace_checks_again(obj, change, message):
    with pytest.raises(ValueError, match=message):
        dataclasses.replace(obj, **change)
