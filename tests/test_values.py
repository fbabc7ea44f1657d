"""Value semantics of the package's frozen value types: equality and hash by
fields, immutability, construction by position and keyword, pickle and
deepcopy round trips and a repr that names the class."""

import copy
import operator
import pickle

import pytest

from genuskit.acceptance import CheckResult
from genuskit.atoms import Atom, AtomKind, EndoDescription, _Kind, moore
from genuskit.cosets import FiniteGroup
from genuskit.matrices import MatModM, _Shape, mat_mul
from genuskit.orders import GenusResult, OrderSpec, pullback_spec
from genuskit.rings import Residue


def one(m):
    return MatModM(m, 1, (1,))


# class: (by position, the same fields by keyword, another value)
CASES = {
    MatModM: (lambda: MatModM(5, 2, (1, 2, 3, 4)),
              lambda: MatModM(modulus=5, size=2, entries=(6, 2, -2, 4)),
              lambda: MatModM(5, 2, (0, 2, 3, 4))),
    _Shape: (lambda: _Shape(5, (1, 2), (0, 1), 5),
             lambda: _Shape(m=5, blocks=(1, 2), offsets=(0, 1), width=5),
             lambda: _Shape(7, (1, 2), (0, 1), 5)),
    OrderSpec: (lambda: OrderSpec(5, (1, 1), ((one(5), one(5)),)),
                lambda: OrderSpec(m=5, blocks=[1, 1], generators=[(one(5), one(5))]),
                lambda: pullback_spec(7)),
    GenusResult: (lambda: GenusResult(2, 1, 2, 4),
                  lambda: GenusResult(relative_count=2, maximal_count=1, total=2, bound=4),
                  lambda: GenusResult(1, 1, 1, 4)),
    Residue: (lambda: Residue(7, 5),
              lambda: Residue(value=2, modulus=5),
              lambda: Residue(3, 5)),
    _Kind: (lambda: _Kind(("a",), 2, 2, (), "M({a})@{n}"),
            lambda: _Kind(params=("a",), least=2, min_top_dim=2, wedge=(),
                          template="M({a})@{n}"),
            lambda: _Kind((), 1, 2, (0,), "S{n}")),
    Atom: (lambda: Atom(AtomKind.MOORE, 3, 4),
           lambda: Atom(kind=AtomKind.MOORE, top_dim=3, a=4),
           lambda: moore(4)),
    EndoDescription: (lambda: EndoDescription("pullback", 24),
                      lambda: EndoDescription(kind="pullback", level=24),
                      lambda: EndoDescription("pullback", 12)),
    CheckResult: (lambda: CheckResult("c", True, "e", "a", 0.5),
                  lambda: CheckResult(name="c", passed=True, expected="e", actual="a",
                                      elapsed_s=0.5),
                  lambda: CheckResult("c", False, "e", "a", 0.5)),
}
VALUE_CASES = pytest.mark.parametrize("cls", CASES, ids=lambda cls: cls.__name__)
# one instance of each of the ten classes; a FiniteGroup equals only itself
MAKE = {cls: cases[0] for cls, cases in CASES.items()}
MAKE[FiniteGroup] = lambda: FiniteGroup(frozenset({0, 1}), operator.xor, 0, "Z/2")
EVERY_CLASS = pytest.mark.parametrize("cls", MAKE, ids=lambda cls: cls.__name__)


def fields(x):
    return tuple(getattr(x, name) for name in type(x).__slots__)


@VALUE_CASES
def test_equal_and_hashed_by_fields(cls):
    positional, keyword, other = (make() for make in CASES[cls])
    assert positional == keyword and not positional != keyword
    assert hash(positional) == hash(keyword)
    assert positional != other
    assert len({positional, keyword, other}) == 2


@pytest.mark.parametrize("make", [*(cases[0] for cases in CASES.values()), lambda: one(5)],
                         ids=[*(cls.__name__ for cls in CASES), "MatModM-1x1"])
def test_not_equal_to_the_tuple_of_its_fields(make):
    x = make()
    assert x != fields(x) and fields(x) != x


@EVERY_CLASS
def test_fields_cannot_be_assigned_or_deleted(cls):
    x = MAKE[cls]()
    for name in (*cls.__slots__, "extra"):
        with pytest.raises(AttributeError):
            setattr(x, name, 0)
        with pytest.raises(AttributeError):
            delattr(x, name)
    assert not hasattr(x, "__dict__")


@VALUE_CASES
def test_pickle_and_deepcopy_round_trip(cls):
    x = CASES[cls][0]()
    for twin in (pickle.loads(pickle.dumps(x)), copy.deepcopy(x), copy.copy(x)):
        assert type(twin) is cls and twin == x and hash(twin) == hash(x)


@EVERY_CLASS
def test_repr_names_the_class(cls):
    assert repr(MAKE[cls]()).startswith(f"{cls.__name__}(")


def test_repr_lists_the_fields():
    assert repr(GenusResult(2, 1, 2, 4)) == (
        "GenusResult(relative_count=2, maximal_count=1, total=2, bound=4)")
    assert repr(EndoDescription("torsion")) == "EndoDescription(kind='torsion', level=None)"


def test_defaults_fill_the_missing_fields():
    assert fields(Atom(AtomKind.SPHERE, 3)) == (AtomKind.SPHERE, 3, None, None, None, None)
    assert EndoDescription("integers").level is None
    group = FiniteGroup(frozenset({0}), operator.add, 0)
    assert group.name == ""
    assert FiniteGroup(frozenset({0}), operator.add, 0, name="trivial").name == "trivial"


@pytest.mark.parametrize("args, kwargs", [
    ((AtomKind.SPHERE,), {}),                                # top_dim missing
    ((AtomKind.SPHERE, 3, None, None, None, None, None), {}),  # one field too many
    ((AtomKind.SPHERE, 3), {"b": 1}),                        # no such field
    ((AtomKind.SPHERE, 3), {"kind": AtomKind.SPHERE}),       # given twice
])
def test_generic_constructor_rejects_bad_fields(args, kwargs):
    with pytest.raises(TypeError):
        Atom(*args, **kwargs)


def test_finite_group_equals_only_itself():
    g, h = MAKE[FiniteGroup](), MAKE[FiniteGroup]()
    assert g == g and g != h
    assert len({g, h}) == 2
    twin = pickle.loads(pickle.dumps(g))
    assert twin != g and fields(twin) == fields(g)
    assert copy.deepcopy(g) != g and len(copy.deepcopy(g)) == 2


def test_mat_mul_product_is_a_reduced_matrix():
    a, b = MatModM(7, 2, (3, 6, 5, 4)), MatModM(7, 2, (6, 6, 2, 5))
    product = mat_mul(a, b)
    assert product == MatModM(7, 2, (3 * 6 + 6 * 2, 3 * 6 + 6 * 5, 5 * 6 + 4 * 2, 5 * 6 + 4 * 5))
    assert all(0 <= e < 7 for e in product.entries)
    assert hash(product) == hash(MatModM(7, 2, product.entries))
