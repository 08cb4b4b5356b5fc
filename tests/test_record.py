"""The Record base against its stdlib oracle, a frozen dataclass of the same fields."""

import dataclasses
import pickle

import numpy as np
import pytest

from fluiddem.delegation_graph import DelegationGraph
from fluiddem.distributions import Uniform
from fluiddem.harness import ExactGainMode, ExperimentConfig
from fluiddem.mechanisms import ExpInY, RowNormalizedPhi, TabulatedPhi, Upward
from fluiddem.tally import GainReport

UPWARD = Upward(0.5)
UNIT = Uniform(0.0, 1.0)


def twin(cls, eq=True):
    """A frozen dataclass with cls's fields, defaults and __post_init__."""
    spec = [(f, object, cls._defaults[f]) if f in cls._defaults else (f, object) for f in cls._fields]
    return dataclasses.make_dataclass(
        cls.__name__, spec, frozen=True, eq=eq, namespace={"__post_init__": cls.__post_init__}
    )


# (class, arguments of one record, arguments of a record that differs from it)
VALUE_CASES = [
    (ExactGainMode, (), None),
    (ExperimentConfig, (UPWARD, UNIT, (10, 20), 3, 7), (UPWARD, UNIT, (10, 20), 3, 8)),
    (ExpInY, (2.0,), (2.0, 3.0)),
    (GainReport, (0.6, 0.7, 0.1, "exact"), (0.6, 0.7, 0.1, "monte_carlo", 0.01, 738)),
    (Uniform, (0.0, 0.98), (0.0, 1.0)),
]


@pytest.mark.parametrize("cls, args, other", VALUE_CASES, ids=[c[0].__name__ for c in VALUE_CASES])
def test_value_records_match_a_frozen_dataclass(cls, args, other):
    Twin = twin(cls)
    record, copy, oracle = cls(*args), cls(*args), Twin(*args)
    assert repr(record) == repr(oracle)
    assert hash(record) == hash(oracle) == hash(copy)
    assert record == copy and (record != copy) is False
    assert record.__eq__(oracle) is NotImplemented and record != oracle
    if other is not None:
        assert (cls(*other) == record) is (Twin(*other) == oracle) is False
        assert repr(cls(*other)) == repr(Twin(*other))


def test_validation_runs_as_in_the_dataclass():
    for cls in (Uniform, twin(Uniform)):
        with pytest.raises(ValueError, match="0 <= lo < hi <= 1"):
            cls(0.5, 0.2)
    with pytest.raises(ValueError, match="'sizes'"):
        twin(ExperimentConfig)(UPWARD, UNIT, (3, 2), 1, 1)


def test_array_records_keep_identity_equality():
    out = np.array([-1, 0, 0])
    graph, oracle = DelegationGraph(3, out), twin(DelegationGraph, eq=False)(3, out)
    assert repr(graph) == repr(oracle) == "DelegationGraph(n=3, out=array([-1,  0,  0]))"
    assert graph == graph and graph != DelegationGraph(3, out)
    assert oracle == oracle and oracle != twin(DelegationGraph, eq=False)(3, out)
    assert hash(graph) == object.__hash__(graph)
    assert hash(oracle) == object.__hash__(oracle)


def test_arguments_are_checked_like_a_signature():
    assert ExpInY(2.0) == ExpInY(lam=2.0) == ExpInY(2.0, scale=1.0) == ExpInY(scale=1.0, lam=2.0)
    for args, kwargs, message in [
        ((), {}, "missing required arguments: lam"),
        ((1.0, 2.0, 3.0), {}, "takes 2 arguments but 3 were given"),
        ((1.0,), {"lam": 2.0}, "multiple values for argument 'lam'"),
        ((1.0,), {"shape": 2.0}, "unexpected keyword argument 'shape'"),
    ]:
        with pytest.raises(TypeError, match=message):
            ExpInY(*args, **kwargs)


def test_records_are_frozen():
    cfg = ExperimentConfig(UPWARD, UNIT, (10,), 1, 1)
    with pytest.raises(AttributeError, match="cannot assign to field 'seed'"):
        cfg.seed = 2
    with pytest.raises(AttributeError, match="cannot delete field 'seed'"):
        del cfg.seed
    with pytest.raises(AttributeError):
        DelegationGraph(1, [-1]).n = 2


def test_replace_checks_the_new_record():
    cfg = ExperimentConfig(UPWARD, UNIT, (10,), 1, 1)
    assert cfg.replace(seed=5) == ExperimentConfig(UPWARD, UNIT, (10,), 1, 5)
    assert cfg.replace(sizes=[30, 40.0]).sizes == (30, 40)  # __post_init__ normalizes again
    with pytest.raises(ValueError, match="'sizes'"):
        cfg.replace(sizes=(3, 2))
    with pytest.raises(TypeError, match="unexpected keyword argument 'size'"):
        cfg.replace(size=(3,))


def test_pickle_round_trip_keeps_equality():
    cfg = ExperimentConfig(UPWARD, UNIT, (10, 20), 3, 7, alpha=0.5)
    assert pickle.loads(pickle.dumps(cfg)) == cfg
    phi = TabulatedPhi(((1.0, 2.0), (1.5, 3.0)))
    back = pickle.loads(pickle.dumps(phi))
    assert back == phi and hash(back) == hash(phi)
    assert back(0.5, 0.5) == phi(0.5, 0.5)  # the grid set in __post_init__ travels too


def test_cached_properties_still_cache():
    phi = RowNormalizedPhi(ExpInY(1.0), UNIT)
    assert phi._means is phi._means
