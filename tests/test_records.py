"""The public records are typing.NamedTuple: immutable, equal by value and,
where their fields allow it, hashable; OrderSequence still checks its orders."""

import pytest

from gfcurves import harness as H
from gfcurves.bounds import BoundReport, hasse_weil, w_bound
from gfcurves.chords import build_polygon, chord_set, verify_prop41
from gfcurves.curve import count_points_fast, make_curve, smoothness_scan
from gfcurves.ffield import make_field
from gfcurves.localexp import OrderSequence, order_sequence


CURVE = make_curve(make_field(13), 3, 6, 2)
POLYGON = build_polygon(CURVE.ctx, 4)
RECORDS = {
    "BoundReport": hasse_weil(13, 4),
    "Polygon": POLYGON,
    "ChordSet": chord_set(POLYGON),
    "IdentityReport": verify_prop41(13, 3, (6, 2)),
    "CurveParams": CURVE,
    "CountReport": count_points_fast(CURVE),
    "SmoothnessReport": smoothness_scan(CURVE),
    "ScanRow": next(H.scan_rows(13)),
    "GridCell": next(H.figure1_cells(3, 3)),
    "Check": H.Check("name", True, "detail"),
    "ChordSweep": H.prop41_sweep(13),
    "OrderSequence": order_sequence(CURVE, "inflection", 2),
}


# fields that hold a dict (BoundReport.intermediates) or lists of dicts
# (the ChordSweep cells) leave a record unhashable, as they did a frozen dataclass
UNHASHABLE = {"BoundReport", "ChordSweep"}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_is_immutable_and_equal_by_value(name):
    rec = RECORDS[name]
    assert type(rec).__name__ == name
    for field in rec._fields:
        with pytest.raises(AttributeError):
            setattr(rec, field, getattr(rec, field))
    twin = type(rec)(*rec)
    assert twin == rec and twin is not rec
    assert twin._asdict() == rec._asdict()
    if name not in UNHASHABLE:
        assert hash(twin) == hash(rec)
        assert {rec: 1}[twin] == 1


def test_bound_report_default_intermediates_is_read_only():
    first, second = BoundReport("x", 1, True), BoundReport("y", 2, True)
    with pytest.raises(TypeError):
        first.intermediates["k"] = 1
    assert dict(first.intermediates) == dict(second.intermediates) == {}
    assert first.to_jsonable()["intermediates"] == {}
    assert w_bound(CURVE).intermediates["k"] == 4


def test_order_sequence_checks_its_orders():
    assert OrderSequence((0, 1, 3, 4), 2, "inflection").orders == (0, 1, 3, 4)
    for orders in [(0, 1, 3),            # s = 2 needs 4 orders
                   (0, 1, 3, 4, 5),
                   (0, 3, 1, 4),         # not increasing
                   (0, 1, 1, 4),         # not strictly increasing
                   (1, 2, 3, 4)]:        # does not start at 0
        with pytest.raises(ValueError):
            OrderSequence(orders, 2, "inflection")
