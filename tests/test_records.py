"""The value semantics of the public record types.

Each record is built by keyword with its defaults, equals only a record of
its own class with equal fields, hashes by its fields, refuses assignment and
deletion, reads back as ``Name(field=value, ...)`` and survives copy and
pickle.
"""

import copy
import pickle
from fractions import Fraction

import pytest

from multisums.core import ExplicitSequence, IndexPower, SumProblem
from multisums.exact_arith import PiPolynomial
from multisums.identities import IdentityId, VerificationReport
from multisums.polynomials import Polynomial


def _report(**changes) -> VerificationReport:
    fields = {"identity": IdentityId.LEMMA_3_1, "params": {"m": 2}, "lhs": Fraction(1, 2), "rhs": Fraction(1, 2),
              "equal": True}
    return VerificationReport(**{**fields, **changes})


# (record, an equal record built another way, a record differing in one field, its fields as a tuple)
CASES = [
    (ExplicitSequence(values=["1/2", 3]), ExplicitSequence((Fraction(1, 2), Fraction(3)), 1),
     ExplicitSequence(["1/2", 3], base=0), ((Fraction(1, 2), Fraction(3)), 1)),
    (IndexPower(exponent=-1), IndexPower(-1), IndexPower(1), (-1,)),
    (SumProblem(specs=[IndexPower(1)], q=1, n=3), SumProblem((IndexPower(1),), 1, 3),
     SumProblem([IndexPower(1)], 1, 4), ((IndexPower(1),), 1, 3)),
    (Polynomial(coeffs=[-1, 1, 0]), Polynomial((Fraction(-1), Fraction(1))), Polynomial([1, 1]),
     ((Fraction(-1), Fraction(1)),)),
    (_report(), _report(note=""), _report(equal=False), None),
    (PiPolynomial(exponent=2, coefficient="1/6"), PiPolynomial(2, Fraction(1, 6)), PiPolynomial(4, Fraction(1, 6)),
     (2, Fraction(1, 6))),
]
IDS = ["ExplicitSequence", "IndexPower", "SumProblem", "Polynomial", "VerificationReport", "PiPolynomial"]


@pytest.mark.parametrize("record,same,other,fields", CASES, ids=IDS)
def test_records_compare_by_value_within_their_class(record, same, other, fields):
    assert record == same and not record != same
    assert record != other
    if fields is not None:
        assert record != fields  # IndexPower(-1) != (-1,): no record equals a plain tuple
        assert hash(record) == hash(same)


def test_records_hash_by_their_field_tuple():
    assert hash(IndexPower(2)) == hash((2,))
    assert hash(PiPolynomial(2, 3)) == hash((2, Fraction(3)))
    assert {IndexPower(2), IndexPower(2), IndexPower(3)} == {IndexPower(2), IndexPower(3)}
    with pytest.raises(TypeError):
        hash(_report())  # params is a dict, so a report is unhashable


@pytest.mark.parametrize("record,field", [
    (ExplicitSequence([1]), "values"),
    (IndexPower(1), "exponent"),
    (SumProblem((IndexPower(1),), 1, 2), "q"),
    (Polynomial([1]), "coeffs"),
    (_report(), "equal"),
    (PiPolynomial(2, 1), "coefficient"),
], ids=IDS)
def test_records_refuse_assignment(record, field):
    before = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, before)
    with pytest.raises(AttributeError):
        delattr(record, field)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert getattr(record, field) == before


def test_records_take_keywords_and_defaults():
    assert ExplicitSequence(values=[1]).base == 1
    assert ExplicitSequence(values=("1/3",), base=4) == ExplicitSequence([Fraction(1, 3)], 4)
    assert IndexPower(exponent=0).exponent == 0
    problem = SumProblem(q=0, n=2, specs=[IndexPower(1), IndexPower(2)])
    assert problem.specs == (IndexPower(1), IndexPower(2)) and problem.m == 2
    assert Polynomial(coeffs=[0, 0]).coeffs == (Fraction(0),)
    report = _report()
    assert report.note == ""
    assert VerificationReport(IdentityId.LEMMA_3_1, {}, 1, 1, True, "n").note == "n"
    assert PiPolynomial(4, 0) == PiPolynomial()
    assert PiPolynomial().to_json_dict() == {}
    with pytest.raises(TypeError):
        IndexPower()
    with pytest.raises(TypeError):
        SumProblem((IndexPower(1),), 1)


def test_records_repr():
    assert repr(ExplicitSequence(["1/2", 3], base=0)) == (
        "ExplicitSequence(values=(Fraction(1, 2), Fraction(3, 1)), base=0)")
    assert repr(IndexPower(-2)) == "IndexPower(exponent=-2)"
    assert repr(SumProblem([IndexPower(1)], 1, 3)) == "SumProblem(specs=(IndexPower(exponent=1),), q=1, n=3)"
    assert repr(Polynomial([-1, 1])) == "Polynomial(coeffs=(Fraction(-1, 1), Fraction(1, 1)))"
    assert repr(_report(note="ok")) == (
        "VerificationReport(identity=<IdentityId.LEMMA_3_1: 'LEMMA_3_1'>, params={'m': 2}, "
        "lhs=Fraction(1, 2), rhs=Fraction(1, 2), equal=True, note='ok')")
    assert repr(PiPolynomial(2, "1/6")) == "PiPolynomial(exponent=2, coefficient=Fraction(1, 6))"
    assert repr(PiPolynomial()) == "PiPolynomial(exponent=0, coefficient=Fraction(0, 1))"


@pytest.mark.parametrize("record", [case[0] for case in CASES], ids=IDS)
def test_records_survive_copy_and_pickle(record):
    assert copy.copy(record) == record
    assert copy.deepcopy(record) == record
    assert pickle.loads(pickle.dumps(record)) == record
