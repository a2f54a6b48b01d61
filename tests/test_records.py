"""Every public record is immutable, hashes by value, and runs its
checks however it is built: by the class, by _make and _replace, and by
unpickling."""

import pickle
import typing

import numpy as np
import pytest

from shearlab.algebra import (FormVector, GroupElement, IntGroupElement,
                              IwasawaCoords, UTBPoint)
from shearlab.counting import CountResult, FitResult, OrbitQuery
from shearlab.eisenstein import EisensteinEvaluator, EisensteinSample
from shearlab import groups
from shearlab.groups import PSL2Z, CosetLabel, GroupSpec, WordBudget
from shearlab.measures import RegressionResult, ShearSample
from shearlab.modforms import LSeriesValue, QExpansion
from shearlab.quadrature import QuadResult

# name: (a factory of one valid record, fields that make it invalid or
# None where the record checks nothing, the error they raise)
RECORDS = {
    "GroupElement": (lambda: GroupElement(2.0, 1.0, 1.0, 1.0),
                     {"d": -1.0}, ValueError),
    "IntGroupElement": (lambda: IntGroupElement(1, 1, 0, 1), {"a": 2},
                        ValueError),
    "UTBPoint": (lambda: UTBPoint(0.0, 1.0, 0.5), {"y": -1.0}, ValueError),
    "IwasawaCoords": (lambda: IwasawaCoords(0.0, 1.0, 0.0), None, None),
    "FormVector": (lambda: FormVector(0, 1, 0), None, None),
    "GroupSpec": (lambda: GroupSpec("psl2z", 1), {"omega": 0}, ValueError),
    "WordBudget": (lambda: WordBudget(64, 1000), {"max_nodes": -1},
                   ValueError),
    "CosetLabel": (lambda: CosetLabel(3, (1, 0, 0, 1)), None, None),
    # imported by its module: pytest would try to collect a Test* name
    "TestFunction": (lambda: groups.TestFunction("f", PSL2Z, np.hypot),
                     {"spec": "psl2z"}, TypeError),
    "OrbitQuery": (lambda: OrbitQuery(PSL2Z, FormVector(0, 1, 0), (4, 8)),
                   {"t_list": (8.0, 4.0)}, ValueError),
    "CountResult": (lambda: CountResult((4.0, 8.0), (34, 98), (True, True)),
                    {"counts": (98, 34)}, ValueError),
    "FitResult": (lambda: FitResult("linear", (1.0,), 0.0, 0.0), None, None),
    "ShearSample": (lambda: ShearSample(10.0, 0.5, 1e-9, 100, True,
                                        "unfolded"), None, None),
    "RegressionResult": (lambda: RegressionResult(0.1, 0.2, 1.0, (1.0,),
                                                  (0.5,), (0.0,)),
                         None, None),
    "EisensteinEvaluator": (lambda: EisensteinEvaluator(route="coset"),
                            {"route": "nowhere"}, ValueError),
    "EisensteinSample": (lambda: EisensteinSample(1.0, "fourier", 1e-12),
                         None, None),
    "QExpansion": (lambda: QExpansion(12, [1, -24, 252]), {"weight": 3},
                   ValueError),
    "LSeriesValue": (lambda: LSeriesValue(1.0, 0.6, 0.1, 1e-12, 100.0),
                     None, None),
    "QuadResult": (lambda: QuadResult(1.0, 1e-12, True, 15, 1), None, None),
}


def fields(rec):
    return rec._fields if isinstance(rec, tuple) else rec.__slots__


def forge(rec, bad):
    """rec with the fields in bad, built past the checks."""
    if isinstance(rec, tuple):
        return tuple.__new__(type(rec), (bad.get(k, v) for k, v in
                                         zip(rec._fields, rec)))
    forged = object.__new__(type(rec))
    for k in fields(rec):
        object.__setattr__(forged, k, bad.get(k, getattr(rec, k)))
    return forged


def test_every_public_record_is_listed():
    import shearlab
    records = {name for name in shearlab.__all__
               if isinstance(getattr(shearlab, name), type)
               and not issubclass(getattr(shearlab, name), Exception)}
    assert records == set(RECORDS) - {"CosetLabel", "QuadResult"}


@pytest.mark.parametrize("name", RECORDS)
def test_record_cannot_be_assigned(name):
    rec = RECORDS[name][0]()
    for field in fields(rec):
        with pytest.raises(AttributeError):
            setattr(rec, field, 0)
    with pytest.raises(AttributeError):
        rec.extra = 0


@pytest.mark.parametrize("name", RECORDS)
def test_replace_runs_the_checks(name):
    make, bad, error = RECORDS[name]
    rec = make()
    first = fields(rec)[0]
    same = rec._replace(**{first: getattr(rec, first)})
    assert type(same) is type(rec) and same == rec
    if bad is None:
        return
    with pytest.raises(error):
        rec._replace(**bad)
    if isinstance(rec, tuple):
        with pytest.raises(error):
            type(rec)._make(forge(rec, bad))


@pytest.mark.parametrize("name", RECORDS)
def test_field_annotations_are_evaluated(name):
    # a postponed annotation (from __future__ import annotations) reaches a
    # NamedTuple as a string, which it compiles into a ForwardRef on every
    # import
    for cls in type(RECORDS[name][0]()).__mro__:
        for field, ann in vars(cls).get("__annotations__", {}).items():
            assert not isinstance(ann, (str, typing.ForwardRef)), \
                (cls.__name__, field, ann)


@pytest.mark.parametrize("name", RECORDS)
def test_equal_records_hash_equal(name):
    a, b = RECORDS[name][0](), RECORDS[name][0]()
    assert a is not b and a == b and hash(a) == hash(b)


@pytest.mark.parametrize("name", RECORDS)
def test_pickle_round_trips_through_the_checks(name):
    make, bad, error = RECORDS[name]
    rec = make()
    back = pickle.loads(pickle.dumps(rec))
    assert type(back) is type(rec) and back == rec
    if bad is not None:
        with pytest.raises(error):
            pickle.loads(pickle.dumps(forge(rec, bad)))


def test_records_normalize_their_fields():
    # the checks also normalize: the sign, the angle, the radii, the
    # coefficients, whichever way the record is built
    g = GroupElement(-2.0, -1.0, -1.0, -1.0)
    assert g == g._replace() == pickle.loads(pickle.dumps(g))
    assert g.entries() == (2.0, 1.0, 1.0, 1.0)
    p = UTBPoint(0.0, 1.0)._replace(theta=7.0)
    assert p.theta == pytest.approx(7.0 - 2.0 * np.pi)
    q = RECORDS["OrbitQuery"][0]()._replace(t_list=[2, 3])
    assert q.t_list == (2.0, 3.0) and type(q.t_list[0]) is float
    assert QExpansion(12, [1, -24]).coeffs == (1, -24)


class _Counted(int):
    """An int that counts the calls of its hash."""
    calls = 0

    def __hash__(self):
        _Counted.calls += 1
        return int.__hash__(self)


def test_qexpansion_hashes_its_coefficients_once():
    f = QExpansion(12, (1, _Counted(-24), _Counted(252)))
    built = _Counted.calls
    assert built == 2
    assert len({hash(f) for _ in range(5)}) == 1
    assert _Counted.calls == built
    assert len(f) == 3 and f.a(2) == -24
