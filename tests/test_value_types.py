"""The frozen value types: each must behave exactly as a
@dataclass(frozen=True) with the same fields does, with its hand-written
__init__ and the dataclass metadata built on first use."""

import copy
import dataclasses
import inspect
import math
import pickle

import pytest

from fluctforce import (_value, circuits, forces, matsubara, oscillator,
                        validation)
from fluctforce.circuits import (ElementLaw, ParallelRLC, PlanarCapacitor,
                                 SeriesRLC, SpherePlate)
from fluctforce.errors import DomainError
from fluctforce.forces import ForceResult
from fluctforce.matsubara import OracleResult, PerParameterSums, SumSpec
from fluctforce.oscillator import (Drude, Eigenfrequencies, Ohmic,
                                   OscillatorParams, ParametricModel)
from fluctforce.validation import CriterionReport

# field values of the samples below: picklable, with a stable repr
_ORACLES = (OracleResult(-0.5, 1e-9, 4096), OracleResult(0.25, 0.0, 8))
_ORACLE_TEXT = ("OracleResult(value=-0.5, truncation_estimate=1e-09, "
                "n_used=4096)",
                "OracleResult(value=0.25, truncation_estimate=0.0, n_used=8)")
_LAWS = (ElementLaw(abs, abs), ElementLaw(math.exp, math.exp))
_LAW_TEXT = ("ElementLaw(value=<built-in function abs>, derivative=<built-in "
             "function abs>)",
             "ElementLaw(value=<built-in function exp>, derivative=<built-in "
             "function exp>)")

# one valid instance per type, its repr, and a valid field change
SAMPLES = [
    (Ohmic, (0.3,), "Ohmic(gamma0=0.3)", {"gamma0": 0.5}),
    (Drude, (0.2, 40.0), "Drude(gamma0=0.2, omega_d=40.0)",
     {"omega_d": 50.0}),
    (OscillatorParams, (1.5, Ohmic(0.1), 0.25),
     "OscillatorParams(omega0=1.5, damping=Ohmic(gamma0=0.1), "
     "temperature=0.25)", {"omega0": 2.0}),
    (OscillatorParams, (1.5, Drude(0.1, 30.0), 0.0),
     "OscillatorParams(omega0=1.5, damping=Drude(gamma0=0.1, omega_d=30.0), "
     "temperature=0.0)", {"temperature": 1.0}),
    (ForceResult, (-0.25, "exact"),
     "ForceResult(value=-0.25, regime='exact', warnings=(), "
     "components=None)", {"regime": "low-T"}),
    (ForceResult, (-0.25, "exact", ("w",), {"f_omega": -0.25}),
     "ForceResult(value=-0.25, regime='exact', warnings=('w',), "
     "components={'f_omega': -0.25})",
     {"value": 0.5}),
    (Eigenfrequencies, (1 - 0.5j, -1 - 0.5j, None, "ohmic"),
     "Eigenfrequencies(omega1=(1-0.5j), omega2=(-1-0.5j), omega3=None, "
     "method='ohmic', warnings=())", {"method": "approx"}),
    (PlanarCapacitor, (1e-4, 1e-6), "PlanarCapacitor(area=0.0001, "
     "gap=1e-06, epsilon=1.0)", {"gap": 2e-6}),
    (SpherePlate, (1e-4, 2e-5), "SpherePlate(radius=0.0001, gap=2e-05)",
     {"gap": 3e-5}),
    (ParametricModel, (math.sqrt, math.cos, math.exp, math.sin),
     "ParametricModel(omega=<built-in function sqrt>, d_omega=<built-in "
     "function cos>, gamma0=<built-in function exp>, d_gamma0=<built-in "
     "function sin>, omega_d=None, d_omega_d=None)",
     {"omega_d": math.tan, "d_omega_d": math.tanh}),
    (SumSpec, (), "SumSpec(n_max=100000)", {"n_max": 5}),
    (SumSpec, (20_000,), "SumSpec(n_max=20000)", {"n_max": 32}),
    (OracleResult, (-0.5, 1e-9, 4096), _ORACLE_TEXT[0], {"n_used": 8}),
    (PerParameterSums, _ORACLES + _ORACLES,
     f"PerParameterSums(f_omega={_ORACLE_TEXT[0]}, "
     f"f_gamma0={_ORACLE_TEXT[1]}, f_omega_d_1={_ORACLE_TEXT[0]}, "
     f"f_omega_d_2={_ORACLE_TEXT[1]})", {"f_omega": _ORACLES[1]}),
    (ElementLaw, (math.exp, math.exp), _LAW_TEXT[1], {"value": abs}),
    (SeriesRLC, _LAWS + _LAWS[:1],
     f"SeriesRLC(resistance={_LAW_TEXT[0]}, inductance={_LAW_TEXT[1]}, "
     f"capacitance={_LAW_TEXT[0]}, element_size=None)",
     {"element_size": 0.01}),
    (ParallelRLC, _LAWS[::-1] + (_LAWS[0], 0.5),
     f"ParallelRLC(resistance={_LAW_TEXT[1]}, inductance={_LAW_TEXT[0]}, "
     f"capacitance={_LAW_TEXT[0]}, element_size=0.5)",
     {"inductance": _LAWS[1]}),
    (CriterionReport, ("sign-laws", True, 0.0, 0.0),
     "CriterionReport(name='sign-laws', passed=True, worst=0.0, "
     "tolerance=0.0, detail='')", {"passed": False}),
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
    assert obj.__replace__(**change) == changed      # as copy.replace calls it


def _decay(lam):
    return math.exp(-lam)


def _minus_decay(lam):
    return -math.exp(-lam)


# laws pickled by name; gamma is 1 in both loops, Omega e^-lam and e^lam
_EXP, _DECAY = ElementLaw(math.exp, math.exp), ElementLaw(_decay, _minus_decay)
_LOOPS = [(SeriesRLC, (_EXP, _EXP, _EXP)),
          (ParallelRLC, (_EXP, _DECAY, _DECAY, 0.5))]


@pytest.mark.parametrize("cls, args", _LOOPS, ids=["series", "parallel"])
def test_a_loop_is_the_same_value_after_force_calls(cls, args):
    # a force call leaves the loop a plain value: it holds its fields
    # only, and pickles, copies, compares, hashes and shows as a loop no
    # call has seen
    loop, fresh = cls(*args), cls(*args)
    for force in (circuits.force_series_rlc, circuits.force_parallel_rlc):
        for regime in ("exact", "high-T"):
            res = force(loop, 0.3, 0.5, regime, "reduced")
            assert res.value == force(fresh, 0.3, 0.5, regime, "reduced").value
    fresh = cls(*args)
    assert list(vars(loop)) == list(loop.__match_args__)
    assert vars(loop) == vars(fresh)
    for p in range(pickle.HIGHEST_PROTOCOL + 1):
        data = pickle.dumps(loop, protocol=p)
        assert data == pickle.dumps(fresh, protocol=p)
        assert pickle.loads(data) == loop
    for copied in (copy.copy(loop), copy.deepcopy(loop)):
        assert copied == loop and repr(copied) == repr(fresh)
        assert vars(copied) == vars(fresh)
    assert loop == fresh and hash(loop) == hash(fresh)
    assert repr(loop) == repr(fresh)


# constructor, arguments, exception type and message
BAD = [
    (Ohmic, (-0.1,), DomainError,
     "gamma0 must be finite and >= 0 and < 2**511"),
    (Ohmic, (math.nan,), DomainError,
     "gamma0 must be finite and >= 0 and < 2**511"),
    (Drude, (math.inf, 1.0), DomainError,
     "gamma0 must be finite and >= 0 and < 2**511"),
    (Drude, (0.1, 0.0), DomainError, "omega_d must be finite and > 0"),
    (Drude, (-1.0, -1.0), DomainError,
     "gamma0 must be finite and >= 0 and < 2**511"),
    (OscillatorParams, (0.0, Ohmic(0.1), 1.0), DomainError,
     "omega0 must be finite and > 0 and < 2**511"),
    (OscillatorParams, (1.0, Ohmic(0.1), -1.0), DomainError,
     "temperature must be finite and >= 0"),
    (OscillatorParams, (1.0, Ohmic(0.1), math.nan), DomainError,
     "temperature must be finite and >= 0"),
    (OscillatorParams, (-1.0, Ohmic(0.1), -1.0), DomainError,
     "omega0 must be finite and > 0 and < 2**511"),
    (PlanarCapacitor, (1e-4, 0.0), DomainError,
     "area, gap and epsilon must be positive"),
    (PlanarCapacitor, (1e-4, 1e-6, -2.0), DomainError,
     "area, gap and epsilon must be positive"),
    (SpherePlate, (0.0, 1e-6), DomainError,
     "radius and gap must be positive"),
    (SpherePlate, (1e-4, 1e-320), DomainError, "radius / gap must be finite"),
    (SumSpec, (0,), DomainError, "n_max must be >= 1"),
    (SumSpec, (-5,), DomainError, "n_max must be >= 1"),
    (SeriesRLC, _LAWS + (_LAWS[0], 0.0), DomainError,
     "element_size must be positive, got 0.0"),
    (ParallelRLC, _LAWS + (_LAWS[0], -1.0), DomainError,
     "element_size must be positive, got -1.0"),
    (SumSpec, (100.0,), DomainError, "n_max must be an int"),
    (SumSpec, (True,), DomainError, "n_max must be an int"),
    (Ohmic, (2.0 ** 511,), DomainError,
     "gamma0 must be finite and >= 0 and < 2**511"),
    (OscillatorParams, (1e200, Ohmic(0.3), 1.0), DomainError,
     "omega0 must be finite and > 0 and < 2**511"),
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
    (SumSpec(), {"n_max": 0}, "n_max must be >= 1"),
    (SeriesRLC(*_LAWS, _LAWS[0]), {"element_size": -2.0},
     "element_size must be positive"),
    (ParallelRLC(*_LAWS, _LAWS[0]), {"element_size": 0.0},
     "element_size must be positive"),
    (SumSpec(), {"n_max": 1.5}, "n_max must be an int"),
])
def test_replace_checks_again(obj, change, message):
    with pytest.raises(ValueError, match=message):
        dataclasses.replace(obj, **change)


_FIELD_ATTRS = ("name", "type", "default", "default_factory", "init", "repr",
                "hash", "compare", "metadata", "kw_only")


def _twin(cls):
    """What @dataclass(frozen=True) generates for cls's fields, under
    cls's name."""
    return dataclasses.make_dataclass(cls.__name__, [
        (f.name, f.type, dataclasses.field(
            default=f.default, default_factory=f.default_factory,
            init=f.init, repr=f.repr, hash=f.hash, compare=f.compare,
            metadata=f.metadata, kw_only=f.kw_only))
        for f in dataclasses.fields(cls)], frozen=True)


def _outcome(fn, *args):
    """fn(*args), or the type and message of what it raised."""
    try:
        return fn(*args)
    except Exception as exc:  # noqa: BLE001 - compared, not handled
        return type(exc), str(exc)


@pytest.mark.parametrize("cls, args, text, change", SAMPLES, ids=IDS)
def test_matches_a_generated_frozen_twin(cls, args, text, change):
    twin = _twin(cls)
    assert [[getattr(f, a) for a in _FIELD_ATTRS]
            for f in dataclasses.fields(cls)] \
        == [[getattr(f, a) for a in _FIELD_ATTRS]
            for f in dataclasses.fields(twin)]
    assert list(inspect.signature(cls).parameters.values()) \
        == list(inspect.signature(twin).parameters.values())
    obj, tw = cls(*args), twin(*args)
    changed = dataclasses.replace(obj, **change)
    tw_changed = dataclasses.replace(tw, **change)
    assert repr(obj) == repr(tw) == text
    assert repr(changed) == repr(tw_changed)
    for a, b, ta, tb in ((obj, cls(*args), tw, twin(*args)),
                         (obj, changed, tw, tw_changed), (obj, obj, tw, tw)):
        assert (a == b, a != b) == (ta == tb, ta != tb)
    assert obj.__eq__(tw) is NotImplemented and obj != tw
    assert _outcome(hash, obj) == _outcome(hash, tw)
    assert _outcome(hash, changed) == _outcome(hash, tw_changed)
    for name in [f.name for f in dataclasses.fields(cls)] + ["extra"]:
        for target in (obj, tw):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(target, name, 1)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(target, name)
        assert _outcome(setattr, obj, name, 1) == _outcome(setattr, tw, name, 1)
        assert _outcome(delattr, obj, name) == _outcome(delattr, tw, name)
    assert repr(obj) == text


def test_every_value_type_is_sampled():
    types = {obj for mod in (circuits, forces, matsubara, oscillator,
                             validation)
             for obj in vars(mod).values()
             if isinstance(obj, type) and issubclass(obj, _value.Frozen)
             and obj is not _value.Frozen}
    assert types == {cls for cls, *_ in SAMPLES} and len(types) == 15


@pytest.mark.parametrize("cls", sorted({cls for cls, *_ in SAMPLES},
                                       key=lambda c: c.__name__))
def test_dataclass_generates_no_more_than_init(cls):
    # repr, eq, hash, setattr and delattr come from the shared base, and
    # every __init__ is hand-written
    assert {"__repr__", "__eq__", "__hash__", "__setattr__",
            "__delattr__"}.isdisjoint(vars(cls))
    assert vars(cls)["__init__"].__code__.co_filename == inspect.getfile(cls)


def test_each_field_is_set_once():
    obj = object.__new__(SumSpec)
    obj.n_max = 5
    with pytest.raises(dataclasses.FrozenInstanceError,
                       match="cannot assign to field 'n_max'"):
        obj.n_max = 6
    with pytest.raises(dataclasses.FrozenInstanceError):
        obj.extra = 1
    assert vars(obj) == {"n_max": 5}


def test_recursive_repr_is_cut():
    law = ElementLaw(abs, abs)
    law.__dict__["value"] = law            # a cycle no real value holds
    assert repr(law) == ("ElementLaw(value=..., derivative=<built-in "
                         "function abs>)")


def _annotated():
    """Every function and class the package's modules define, and the
    methods of each class."""
    from fluctforce import cli, specfun
    for module in (_value, circuits, cli, forces, matsubara, oscillator,
                   specfun, validation):
        for name, obj in sorted(vars(module).items()):
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                yield f"{module.__name__}.{name}", obj
            elif inspect.isclass(obj):
                yield f"{module.__name__}.{name}", obj
                for attr, member in vars(obj).items():
                    if inspect.isfunction(member):
                        yield f"{module.__name__}.{name}.{attr}", member


def test_type_hints_resolve():
    # every annotation is a string, so a name it uses must be a global
    # of its module when typing.get_type_hints evaluates it
    import typing
    names = []
    for name, obj in _annotated():
        typing.get_type_hints(obj)
        names.append(name)
    for name in ("fluctforce.oscillator.ParametricModel",
                 "fluctforce.circuits.ElementLaw",
                 "fluctforce.matsubara.finite_difference_force"):
        assert name in names
    from collections.abc import Callable
    assert typing.get_type_hints(oscillator.ParametricModel)["d_omega_d"] \
        == Callable[[float], float] | None
