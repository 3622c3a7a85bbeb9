"""The package's result records behave as the frozen dataclasses they replace."""

import copy
import pickle

import pytest

from relquad.counting import RootPair, square_root_pairs
from relquad.discriminants import (
    FundDiscData,
    GeneralDiscFactorization,
    LocalComponent,
    conductor_ideal,
    fundamental_discriminant_data,
    relative_discriminant_general,
)
from relquad.dyadic import LocalElem, local_field
from relquad.hurwitz import HurwitzResult, hurwitz_row
from relquad.tables import TableRow, table_rows

# each record of Q(sqrt 10) at delta = -4 (Q2(sqrt -5) for LocalElem),
# with its fields and the repr its frozen dataclass printed
COMPONENT = (
    "LocalComponent(prime=PrimeIdeal(p=2, ideal=Ideal([[2,0],[0,1]]/1), residue_degree=1, ramified=True), "
    "residual_exponent=2, component=Elem(field=Q(sqrt{10}), x=Fraction(-2, 5), y=Fraction(0, 1)))"
)
REPRS = {
    RootPair: "RootPair(a_ideal=Ideal([[1,0],[0,1]]/1), b=Elem(field=Q(sqrt{10}), x=Fraction(0, 1), y=Fraction(0, 1)))",
    GeneralDiscFactorization: (
        "GeneralDiscFactorization(s=Ideal([[2,0],[0,2]]/1), t=Ideal([[2,0],[0,1]]/1), "
        "rel_disc_general=Ideal([[2,0],[0,2]]/1))"
    ),
    LocalComponent: COMPONENT,
    FundDiscData: f"FundDiscData(local_components=({COMPONENT},), real_signs=(-1, -1), principal_rep=None)",
    LocalElem: "LocalElem(field=Q2(sqrt{-5})@14, a=3, b=4)",
    HurwitzResult: (
        "HurwitzResult(delta=-20, H_formula=Fraction(2, 1), H_oracle=Fraction(2, 1), h_L=2, w_L=2, f_delta=1)"
    ),
    TableRow: (
        "TableRow(norm=4, delta=Elem(field=Q(sqrt{10}), x=Fraction(-2, 1), y=Fraction(0, 1)), "
        "f_delta=Ideal([[1,0],[0,1]]/1), rel_disc=Ideal([[2,0],[0,2]]/1), extras={'unit_discriminant': False})"
    ),
}
FIELDS = {
    RootPair: ("a_ideal", "b"),
    GeneralDiscFactorization: ("s", "t", "rel_disc_general"),
    LocalComponent: ("prime", "residual_exponent", "component"),
    FundDiscData: ("local_components", "real_signs", "principal_rep"),
    LocalElem: ("field", "a", "b"),
    HurwitzResult: ("delta", "H_formula", "H_oracle", "h_L", "w_L", "f_delta"),
    TableRow: ("norm", "delta", "f_delta", "rel_disc", "extras"),
}


def _records(Q10):
    delta = Q10.elem(-4)
    data = fundamental_discriminant_data(conductor_ideal(delta))
    return [
        square_root_pairs(delta, 10)[0],
        relative_discriminant_general(delta),
        data.local_components[0],
        data,
        local_field("ram:-5").elem(3, 4),
        hurwitz_row(-20),
        table_rows(Q10, 40)[0],
    ]


def _round_trips(r):
    return copy.copy(r), copy.deepcopy(r), pickle.loads(pickle.dumps(r))


def test_records_behave_as_frozen_dataclasses(Q10):
    records = _records(Q10)
    assert [type(r) for r in records] == list(REPRS)
    for r in records:
        cls = type(r)
        values = tuple(getattr(r, name) for name in FIELDS[cls])
        assert repr(r) == REPRS[cls]
        # built again by position and by keyword, it is equal, and hashed
        # as a frozen dataclass hashes: by its tuple of fields
        again = cls(*values), cls(**dict(zip(FIELDS[cls], values)))
        assert all(type(x) is cls and x == r for x in again)
        assert r != values and (r == values) is False
        if cls is TableRow:
            with pytest.raises(TypeError, match="unhashable"):
                hash(r)
        else:
            assert hash(r) == hash(values) == hash(again[0])
        for y in (*_round_trips(r), r):
            assert type(y) is cls and y == r and repr(y) == REPRS[cls]
            for name in (*FIELDS[cls], "other"):
                with pytest.raises(AttributeError, match="immutable"):
                    setattr(y, name, 0)
                with pytest.raises(AttributeError):
                    delattr(y, name)
            assert not hasattr(y, "__dict__")
        assert tuple(getattr(y, name) for name in FIELDS[cls]) == values
    # a field differing by value makes the record unequal
    pair = records[0]
    assert pair != RootPair(pair.a_ideal, Q10.elem(1)) and records[4] != local_field("ram:-5").elem(3, 5)


def test_record_defaults(Q10):
    F = local_field("q2")
    assert LocalElem(F, 3) == F.elem(3) == LocalElem(F, 3, 0)
    # each row without extras gets its own empty dict
    row = table_rows(Q10, 40)[0]
    bare = [TableRow(row.norm, row.delta, row.f_delta, row.rel_disc) for _ in range(2)]
    assert bare[0].extras == {} and bare[0].extras is not bare[1].extras
    assert bare[0] == bare[1] != row


def test_local_elem_copies_read_the_interned_field():
    # a deep copy or a pickle of an element of an interned field is over
    # that same field, so it equals the original; the dataclass copied the
    # field into a private instance, and the copy compared unequal
    F = local_field("unram")
    x = F.elem(5, 6)
    for y in _round_trips(x):
        assert y.field is F and y == x and y * y == x * x
