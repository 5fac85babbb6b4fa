"""Record semantics of the shapes, ChannelSystem, CapacityResult and EnumerationReport.

These are plain immutable classes: construction by position or keyword,
fields in constructor order, equality by type and fields, and the repr a
frozen dataclass would print.
"""

import copy
import pickle

import pytest

from colorcap import (
    CapacityResult,
    ChannelSystem,
    Cycle,
    EnumerationReport,
    FullClique,
    General,
    Path,
    Reducible,
    Separable,
    SingleChannel,
    Sunflower,
    SystemClass,
    TwoSets,
    classify,
    max_clique,
)

PAIR = ChannelSystem(3, [[1, 2]])
SINGLE = ChannelSystem(3, [[3]])

# (class, field names, field values, repr)
RECORDS = [
    (SingleChannel, ("size",), (2,), "SingleChannel(size=2)"),
    (FullClique, (), (), "FullClique()"),
    (Sunflower, ("k", "p", "t"), (1, 1, 2), "Sunflower(k=1, p=1, t=2)"),
    (TwoSets, ("k", "p1", "p2"), (1, 2, 1), "TwoSets(k=1, p1=2, p2=1)"),
    (Path, ("t",), (3,), "Path(t=3)"),
    (Cycle, ("t",), (4,), "Cycle(t=4)"),
    (Separable, ("components",), ((PAIR, SINGLE),),
     "Separable(components=(ChannelSystem(q=3, channels=(frozenset({1, 2}),)), "
     "ChannelSystem(q=3, channels=(frozenset({3}),))))"),
    (Reducible, ("reduced",), (PAIR,),
     "Reducible(reduced=ChannelSystem(q=3, channels=(frozenset({1, 2}),)))"),
    (General, (), (), "General()"),
    (ChannelSystem, ("q", "channels"), (3, (frozenset({1, 2}),)),
     "ChannelSystem(q=3, channels=(frozenset({1, 2}),))"),
    (CapacityResult, ("kind", "method", "value", "lower", "upper", "witness"),
     ("bounds", "m", None, 0.25, 0.5, {"t": 2}),
     "CapacityResult(kind='bounds', method='m', value=None, lower=0.25, upper=0.5, "
     "witness={'t': 2})"),
    (EnumerationReport, ("n", "count", "rate", "elapsed"), (2, 9, 1.0, 0.0),
     "EnumerationReport(n=2, count=9, rate=1.0, elapsed=0.0)"),
]
SHAPES = RECORDS[:9]
IDS = [cls.__name__ for cls, *_ in RECORDS]


@pytest.mark.parametrize("cls, names, values, text", RECORDS, ids=IDS)
def test_positional_and_keyword_construction_agree(cls, names, values, text):
    by_position = cls(*values)
    by_keyword = cls(**dict(reversed(list(zip(names, values)))))
    assert by_position == by_keyword
    assert list(vars(by_position)) == list(vars(by_keyword)) == list(names)
    assert tuple(vars(by_position).values()) == values


@pytest.mark.parametrize("cls, names, values, text", RECORDS, ids=IDS)
def test_missing_or_unknown_field_is_a_type_error(cls, names, values, text):
    if names:
        with pytest.raises(TypeError):
            cls(*values[:1 if cls is CapacityResult else -1])
    with pytest.raises(TypeError):
        cls(*values, unknown=1)
    with pytest.raises(TypeError):
        cls(*values, 0)


@pytest.mark.parametrize("cls, names, values, text", RECORDS, ids=IDS)
def test_records_are_immutable(cls, names, values, text):
    record = cls(*values)
    for name in (*names, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, name, 0)
    for name in names:
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert tuple(vars(record).values()) == values


@pytest.mark.parametrize("cls, names, values, text", RECORDS, ids=IDS)
def test_repr_matches_the_dataclass_form(cls, names, values, text):
    assert repr(cls(*values)) == text


@pytest.mark.parametrize("cls, names, values, text", RECORDS, ids=IDS)
def test_equal_records_hash_equally(cls, names, values, text):
    a, b = cls(*values), cls(*values)
    assert a == b and not a != b
    if cls is CapacityResult:  # the witness is a dict, as in the dataclass
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
        assert len({a, b}) == 1


def test_unequal_fields_or_types_are_unequal():
    assert Path(3) != Path(4)
    assert Path(3) != Cycle(3)
    assert FullClique() != General()
    assert Sunflower(1, 1, 2) != TwoSets(1, 1, 2)
    assert Sunflower(1, 1, 2) != (1, 1, 2)
    assert ChannelSystem(3, [[1, 2]]) != ChannelSystem(4, [[1, 2]])


@pytest.mark.parametrize("cls, names, values, text", SHAPES, ids=IDS[:9])
def test_every_shape_is_a_system_class(cls, names, values, text):
    assert isinstance(cls(*values), SystemClass)


def test_other_records_are_not_system_classes():
    for cls, names, values, text in RECORDS[9:]:
        assert not isinstance(cls(*values), SystemClass)


def test_capacity_result_defaults():
    result = CapacityResult("exact", "m", value=0.5)
    assert (result.lower, result.upper, result.witness) == (None, None, {})
    assert CapacityResult("exact", "m", value=0.5).witness is not result.witness


def _copies(record):
    yield copy.copy(record)
    yield copy.deepcopy(record)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        yield pickle.loads(pickle.dumps(record, protocol))


@pytest.mark.parametrize("cls, names, values, text", RECORDS, ids=IDS)
def test_copy_and_pickle_give_equal_records(cls, names, values, text):
    record = cls(*values)
    if cls is ChannelSystem:  # fill the memo before copying
        classify(record)
        max_clique(record)
        assert set(record._known) == {"classify", "max_clique"}
    for duplicate in _copies(record):
        assert type(duplicate) is cls
        assert duplicate == record
        assert vars(duplicate) == vars(record)
        if cls is ChannelSystem:
            assert duplicate._known == {}  # a copy computes its own results
            assert classify(duplicate) == classify(record)
