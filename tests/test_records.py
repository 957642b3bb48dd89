"""The value classes behave as frozen stdlib dataclasses would.

Every record class is built by ``crossedprod.records.record`` instead of
``dataclasses.dataclass``.  One instance of each class with generated
equality, plus two identity-compared ones, all built from the configs in
``tests/data``, is checked against a stdlib ``dataclasses`` twin: the same
hash for equal-comparing classes, the same repr where the class does not
write its own, and frozen fields.
"""

import copy
import dataclasses
import pickle
from pathlib import Path

import pytest

from crossedprod import (
    algebra, dynsys, finite, galois, hullkernel, parsing, reps_ideals, rotation, shift,
    synthesis, transform, union,
)
from crossedprod.parsing import (
    parse_config, parse_elem, parse_ideal, parse_point, parse_set, parse_torus,
)
from crossedprod.records import record
from crossedprod.reps_ideals import rep_periodic

DATA = Path(__file__).resolve().parent / "data"
MODULES = (algebra, dynsys, finite, galois, hullkernel, parsing, reps_ideals, rotation, shift,
           synthesis, transform, union)
RECORD_CLASSES = [c for m in MODULES for c in vars(m).values()
                  if isinstance(c, type) and c.__module__ == m.__name__
                  and "__record_fields__" in vars(c)]
EQ_CLASSES = {c for c in RECORD_CLASSES if c.__eq__ is not object.__eq__}


def config(name):
    return parse_config((DATA / name).read_text())


def samples():
    """(eq instances, two identity-compared instances) from the data configs."""
    cyc, rot = config("cycle3_exact.cfg"), config("rotation_golden.cfg")
    shift, union = config("shift.cfg"), config("union_shift_cycle3.cfg")
    U = union.system
    all_u = parse_set("all", U)
    a = parse_elem("f{0:1,1:2,2:0} - d^3", cyc.system, True)
    torus = parse_torus("t[0: poly{-1,0,0,1}]", cyc.system, True)
    eq_items = [
        rot.system.theta, rot.system, cyc.system, shift.system, U,
        parse_point("c1:2", U), all_u, all_u.parts[0], all_u.parts[1],
        parse_set("circle", rot.system), a, a.coeffs[0],
        parsing._tokenize("Qx(0)")[0],
        rep_periodic(cyc.system, parse_point("0", cyc.system), 1, a),
        torus.entries[0].lamset,
        parse_ideal("Qx(0)", cyc.system, True).zeros(1e-9).entries[0].lamset,
        parse_ideal("Pxl(0, 1)", cyc.system, True).zeros(1e-9).entries[0].lamset,
    ]
    return eq_items, [cyc, parse_ideal("Px(c0:0)", U)]


def field_names(cls):
    return list(cls.__record_fields__)


def values(obj):
    return tuple(getattr(obj, k) for k in field_names(type(obj)))


def twin(obj, eq=True):
    cls = type(obj)
    twin_cls = dataclasses.make_dataclass(cls.__name__, field_names(cls), frozen=True, eq=eq)
    return twin_cls(*values(obj))


def generated_repr(cls):
    return cls.__repr__.__module__ == "crossedprod.records"


def test_every_record_class_is_covered():
    eq_items, plain = samples()
    assert len(RECORD_CLASSES) == 38
    assert {type(x) for x in eq_items} == EQ_CLASSES
    assert all(type(x) not in EQ_CLASSES for x in plain)


def test_equal_records_hash_and_print_like_dataclasses():
    eq_items, _ = samples()
    for obj in eq_items:
        try:
            want = hash(values(obj))
        except TypeError:  # an Element's coefficient dict: unhashable, as with dataclasses
            for unhashable in (obj, twin(obj)):
                with pytest.raises(TypeError):
                    hash(unhashable)
        else:
            assert hash(obj) == want == hash(twin(obj)), type(obj)
        clone = type(obj).__new__(type(obj))
        for k, v in zip(field_names(type(obj)), values(obj)):
            object.__setattr__(clone, k, v)
        if type(obj) in (algebra.Element, dynsys.Func):
            object.__setattr__(clone, "exact", not obj.exact)  # not compared
        assert clone == obj and clone is not obj and not clone != obj
        if generated_repr(type(obj)):
            assert repr(obj) == repr(twin(obj))


def test_float_records_pickle_and_copy():
    U = config("union_shift_cycle3.cfg").system
    a = parse_elem("u[sh{inf:1,0:2}; f{0:1,1:2,2:0}] - d^3", U)
    for obj in (U, parse_point("c1:2", U), a, a.coeffs[0], parse_set("all", U)):
        assert pickle.loads(pickle.dumps(obj)) == obj == copy.deepcopy(obj)


def test_identity_records_keep_identity():
    _, plain = samples()
    for obj in plain:
        same_fields = type(obj)(*values(obj))
        assert obj == obj and obj != same_fields
        assert hash(obj) == object.__hash__(obj)
        if generated_repr(type(obj)):
            assert repr(obj) == repr(twin(obj, eq=False))


def test_inherited_fields_come_first():
    assert field_names(reps_ideals.PxIdeal) == ["system", "subset", "x"]
    assert field_names(reps_ideals.PxLambdaIdeal) == ["system", "x", "lam"]


def test_keyword_and_default_construction():
    S = dynsys.ShiftSet(frozenset({1}))
    assert S == dynsys.ShiftSet(ints=frozenset({1})) == \
        dynsys.ShiftSet(frozenset({1}), cofinite=False, has_inf=False)
    assert dynsys.Point(3) == dynsys.Point(coord=3, path=()) == dynsys.Point(3, ())
    assert dynsys.RotationSystem(theta=dynsys.GOLDEN_CONJUGATE).irrational
    M = reps_ideals.RepMatrix(entries=((1,),), window=2)
    assert (M.period, M.window) == (None, 2)
    D = synthesis.DichotomyReport(True, "x")  # the later defaults fill the tail
    assert (D.witness_point, D.witness_lam, D.averaging, D.note) == ("x", None, None, "")
    with pytest.raises(ValueError):  # __post_init__ runs on the keyword path too
        dynsys.ShiftSet(frozenset(), cofinite=True)
    for call in (lambda: dynsys.ShiftSet(), lambda: dynsys.Surd(1, 2, 3, 4, 5),
                 lambda: dynsys.Surd(1, 2, 3, p=1), lambda: dynsys.Surd(1, 2, 3, e=1)):
        with pytest.raises(TypeError):
            call()


def test_records_are_frozen():
    eq_items, plain = samples()
    for obj in eq_items + plain:
        name = field_names(type(obj))[0] if field_names(type(obj)) else "anything"
        with pytest.raises(AttributeError):
            setattr(obj, name, None)
        with pytest.raises(AttributeError):
            delattr(obj, name)


def test_exact_is_not_a_field():
    a = parse_elem("f{0:1,1:2,2:0} * d", config("cycle3_exact.cfg").system, True)
    for obj in (a, a.coeffs[1]):
        assert obj.exact and "exact" not in field_names(type(obj))
        assert "exact" not in repr(obj)


def test_equal_fields_of_different_classes_differ():
    roots = (1j,)
    assert transform.FiniteRoots(roots) != dynsys.UnionSet(roots)
    assert dynsys.ShiftSystem() != transform.FullCircle()
    assert transform.FullCircle() == transform.FullCircle()


def test_body_methods_are_kept():
    @record
    class Pair:
        a: int
        b: int = 2

        def __repr__(self):
            return "pair"

        def __hash__(self):
            return 7

    p = Pair(1)
    assert repr(p) == "pair" and hash(p) == 7 and p == Pair(1, 2) and p != Pair(1, 3)
