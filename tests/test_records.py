"""The package's records: immutable, picklable (worker chunks send them
between processes), and equal field by field, with two exceptions kept
from their first form: a RationalPoly equals another by its
coefficients, and a CurvePointCertificate's equality leaves out its
stage timings."""

import inspect
import pickle
from fractions import Fraction

import pytest

from tnlab import constructor, distribution, heights, intervals, runge, sieve, tn
from tnlab.constructor import CurvePointCertificate
from tnlab.distribution import ConjectureRow, ConjectureScanReport, DistributionTable, DistRow
from tnlab.heights import HeightBoundReport, LowOmegaSelection, PellEntry, PellSystem, UnionCheck
from tnlab.intervals import IntervalReport, SquareSubsetEnumeration
from tnlab.runge import BoundChecks, NearSquareDecomposition, RationalPoly
from tnlab.sieve import FactorizationRecord
from tnlab.tn import TnResult

POLY = RationalPoly.from_coeffs([Fraction(1, 4), 0, 3])
CERTIFICATE = dict(J=12, offsets=(2, 5), n=1000, N=2, c=0.5, target=3, meets_target=False,
                   x=1000, y=30.0, length=500, seed=1, interval=(990, 1490),
                   smooth_count=40, prime_count=10, kernel_dim=30, family_size=16)
DIST_ROW = DistRow(0.5, 316, 120, 118, 2, 0.01, 0.3)
UNION = UnionCheck(r=2, union_size=3, lower_bound=1.5, ok=True)
PELL = PellEntry(offset=1, squarefree_part=2, root=3)

SAMPLES = [
    TnResult(6, 4, (2, 3, 4)),
    FactorizationRecord(12, ((2, 2), (3, 1))),
    DIST_ROW,
    DistributionTable(10 ** 5, (DIST_ROW,), 0, 7, 0.2),
    ConjectureRow(10, 5, 0.9),
    ConjectureScanReport(100, 0.5, 90, 0.8, 10, 5, (ConjectureRow(10, 5, 0.9),)),
    HeightBoundReport("few-offsets", 3.5, {"count": 4}, "default"),
    UNION,
    LowOmegaSelection((0, 1, 2), (1, 1, 2), (UNION,)),
    PELL,
    PellSystem(x=17, entries=(PELL,)),
    SquareSubsetEnumeration(10, 20, "brute", 2, subsets=((), (12, 18))),
    IntervalReport(10, 20, 5, 1, 2, 3, 3, True, True),
    POLY,
    BoundChecks(True, True, None),
    NearSquareDecomposition(POLY, POLY, POLY, 1, None, BoundChecks(True, None, None)),
    CurvePointCertificate(**CERTIFICATE, stage_seconds={"kernel": 0.25}),
]


def test_every_record_class_has_a_sample():
    records = {cls for module in (constructor, distribution, heights, intervals, runge, sieve, tn)
               for _, cls in inspect.getmembers(module, inspect.isclass)
               if cls.__module__ == module.__name__ and hasattr(cls, "_fields")}
    assert records | {RationalPoly, CurvePointCertificate} == {type(s) for s in SAMPLES}
    assert len(SAMPLES) == 17


@pytest.mark.parametrize("record", SAMPLES, ids=lambda r: type(r).__name__)
def test_a_record_is_immutable(record):
    name = next(iter(inspect.signature(type(record)).parameters))  # its first field
    with pytest.raises(AttributeError):
        setattr(record, name, None)
    with pytest.raises(AttributeError):
        record.unknown = None


@pytest.mark.parametrize("record", SAMPLES, ids=lambda r: type(r).__name__)
def test_a_record_survives_a_pickle_round_trip(record):
    back = pickle.loads(pickle.dumps(record))
    assert back == record and type(back) is type(record)
    assert repr(back) == repr(record)


def test_tn_result_compares_field_by_field():
    row = TnResult(6, 4, (2, 3, 4))
    assert row == TnResult(n=6, t=4, witness=(2, 3, 4), shortcut_used=False, cap_exceeded=False)
    assert hash(row) == hash(TnResult(6, 4, (2, 3, 4)))
    for changed in (TnResult(7, 4, (2, 3, 4)), TnResult(6, 4, None),
                    TnResult(6, 4, (2, 3, 4), shortcut_used=True),
                    TnResult(6, None, None, cap_exceeded=True)):
        assert row != changed


def test_tn_result_repr_is_pinned():
    assert repr(TnResult(6, 4, (2, 3, 4))) == (
        "TnResult(n=6, t=4, witness=(2, 3, 4), shortcut_used=False, cap_exceeded=False)")
    assert repr(TnResult(3, None, None, cap_exceeded=True)) == (
        "TnResult(n=3, t=None, witness=None, shortcut_used=False, cap_exceeded=True)")


def test_rational_poly_compares_by_its_coefficients():
    assert POLY == RationalPoly((Fraction(1, 4), Fraction(0), Fraction(3)))
    assert hash(POLY) == hash(RationalPoly.from_coeffs([Fraction(1, 4), 0, 3, 0]))
    assert POLY != RationalPoly.from_coeffs([Fraction(1, 4), 0, 4])
    assert POLY != POLY.coeffs
    assert repr(POLY) == ("RationalPoly(coeffs=(Fraction(1, 4), Fraction(0, 1), "
                          "Fraction(3, 1)))")
    # arithmetic stays polynomial arithmetic: no tuple repetition or concatenation
    assert POLY + POLY == RationalPoly.from_coeffs([Fraction(1, 2), 0, 6])
    with pytest.raises(TypeError):
        2 * POLY


def test_curve_point_certificate_equality_leaves_out_stage_seconds():
    timed = CurvePointCertificate(**CERTIFICATE, stage_seconds={"kernel": 0.25})
    untimed = CurvePointCertificate(**CERTIFICATE)
    assert untimed.stage_seconds == {}
    assert timed == untimed and hash(timed) == hash(untimed)
    assert timed != CurvePointCertificate(**dict(CERTIFICATE, n=1001))
    assert repr(timed).startswith("CurvePointCertificate(J=12, offsets=(2, 5), n=1000,")
    assert repr(timed).endswith("family_size=16, stage_seconds={'kernel': 0.25})")
