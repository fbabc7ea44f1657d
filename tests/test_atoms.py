import math

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from genuskit.atoms import (
    Atom,
    AtomKind,
    AtomParseError,
    _KINDS,
    EndoDescription,
    INTEGERS,
    TORSION,
    atom_a,
    b0_of_wedge,
    chang_eta,
    chang_eta_s,
    chang_eta_sq,
    chang_full,
    chang_r_eta,
    endo_order,
    format_atom,
    genus_of_atom,
    is_torsion,
    moore,
    parse_atom,
    pullback,
    rational_wedge,
    same_genus,
    sphere,
    torsion_split,
)
from genuskit.orders import genus_pullback_formula


def catalog_sample():
    return [
        sphere(5),
        moore(2),
        moore(3, top_dim=4),
        chang_full(1, 2),
        chang_r_eta(1, top_dim=3),
        chang_eta_s(2),
        chang_eta(top_dim=6),
        chang_eta_sq(top_dim=7),
        atom_a(5, top_dim=10),
        atom_a(12),
    ]


class TestAtomValidation:
    def test_parameter_ranges(self):
        with pytest.raises(ValueError):
            moore(1)
        with pytest.raises(ValueError):
            chang_full(0, 1)
        with pytest.raises(ValueError):
            chang_r_eta(0)
        with pytest.raises(ValueError):
            chang_eta_s(0)
        with pytest.raises(ValueError):
            atom_a(0)
        with pytest.raises(ValueError):
            atom_a(13)  # rejected, not reduced mod 24

    def test_minimal_top_dims(self):
        with pytest.raises(ValueError):
            sphere(1)
        with pytest.raises(ValueError):
            moore(2, top_dim=1)
        with pytest.raises(ValueError):
            atom_a(1, top_dim=3)
        with pytest.raises(ValueError):
            chang_eta_sq(top_dim=3)
        assert atom_a(1, top_dim=4).top_dim == 4
        assert chang_eta(top_dim=2).top_dim == 2

    @pytest.mark.parametrize("make", [
        lambda: moore(2.5), lambda: sphere(4.0), lambda: atom_a(1.5),
        lambda: atom_a(True), lambda: chang_eta(top_dim=True),
        lambda: chang_full(1, 2, top_dim=6.0),
    ])
    def test_parameters_must_be_ints(self, make):
        with pytest.raises(ValueError, match="needs an int"):
            make()

    def test_foreign_parameters_rejected(self):
        with pytest.raises(ValueError):
            Atom(AtomKind.SPHERE, 4, v=3)
        with pytest.raises(ValueError):
            Atom(AtomKind.ATOM_A, 5)


@pytest.mark.parametrize("kind", list(AtomKind), ids=lambda kind: kind.value)
def test_every_kind_reads_its_row(kind):
    row = _KINDS[kind]
    least = {field: row.least for field in row.params}
    atom = Atom(kind, row.min_top_dim, **least)
    name = format_atom(atom)
    assert parse_atom(name) == atom and format_atom(parse_atom(name)) == name
    for field in row.params:
        with pytest.raises(ValueError):
            Atom(kind, row.min_top_dim, **{**least, field: row.least - 1})
    with pytest.raises(ValueError):
        Atom(kind, row.min_top_dim - 1, **least)
    wedge = rational_wedge(atom)
    assert list(wedge) == sorted(wedge)
    shape = ("torsion", "integers", "pullback")[len(wedge)]
    assert endo_order(atom).kind == shape


class TestRationalWedge:
    def test_sphere(self):
        assert rational_wedge(sphere(5)) == (5,)

    def test_atom_a(self):
        assert rational_wedge(atom_a(3, top_dim=10)) == (7, 11)

    def test_torsion_atoms_empty(self):
        assert rational_wedge(moore(3)) == ()
        assert rational_wedge(chang_full(2, 1)) == ()

    def test_chang_eta(self):
        assert rational_wedge(chang_eta(top_dim=6)) == (5, 7)

    def test_chang_eta_sq_cells(self):
        assert rational_wedge(chang_eta_sq(top_dim=6)) == (4, 7)

    def test_single_sphere_chang_atoms(self):
        # the degree map survives rationally, the eta leg dies
        assert rational_wedge(chang_r_eta(2, top_dim=5)) == (6,)
        assert rational_wedge(chang_eta_s(3, top_dim=5)) == (4,)

    def test_torsion_iff_empty_wedge(self):
        for atom in catalog_sample():
            assert is_torsion(atom) == (rational_wedge(atom) == ())


class TestTorsion:
    def test_exactly_moore_and_chang_full(self):
        assert is_torsion(moore(3))
        assert is_torsion(chang_full(1, 2))
        for atom in (
            sphere(5),
            chang_r_eta(1),
            chang_eta_s(1),
            chang_eta(),
            chang_eta_sq(),
            atom_a(7),
        ):
            assert not is_torsion(atom)

    def test_split_keeps_order(self):
        m, s = moore(2), sphere(3)
        assert torsion_split([m, s]) == ([m], [s])
        assert torsion_split([]) == ([], [])
        cf, ce, mo = chang_full(1, 1), chang_eta(), moore(4)
        assert torsion_split([cf, ce, mo]) == ([cf, mo], [ce])


class TestEndoOrder:
    def test_descriptions(self):
        assert endo_order(sphere(4)) == INTEGERS
        assert endo_order(moore(5)) == TORSION
        assert endo_order(chang_full(2, 2)) == TORSION
        assert endo_order(chang_r_eta(3)) == INTEGERS
        assert endo_order(chang_eta_s(1)) == INTEGERS
        assert endo_order(chang_eta()) == pullback(2)
        assert endo_order(chang_eta_sq()) == pullback(2)

    @pytest.mark.parametrize(
        "v, level", [(5, 24), (4, 6), (2, 12), (3, 8), (6, 4), (8, 3), (12, 2)]
    )
    def test_atom_a_levels(self, v, level):
        assert endo_order(atom_a(v)) == pullback(level)
        assert level == 24 // math.gcd(v, 24)

    def test_one_description_per_level(self):
        # A(1) and A(5) both have level 24 and share one frozen description
        assert endo_order(atom_a(1)) is endo_order(atom_a(5))

    def test_catalog_levels_in_allowed_set(self):
        for v in range(1, 13):
            assert endo_order(atom_a(v)).level in {2, 3, 4, 6, 8, 12, 24}

    def test_description_validation(self):
        with pytest.raises(ValueError):
            EndoDescription("weird")
        with pytest.raises(ValueError):
            EndoDescription("pullback", 1)
        with pytest.raises(ValueError):
            EndoDescription("torsion", 2)


# genus of A(v) for v = 1..12, frozen from the d = gcd(v, 24) rule
A_TABLE = {1: 4, 2: 2, 3: 2, 4: 1, 5: 4, 6: 1, 7: 4, 8: 1, 9: 2, 10: 2, 11: 4, 12: 1}


class TestGenusOfAtom:
    def test_a_family_table(self):
        for v, expected in A_TABLE.items():
            assert genus_of_atom(atom_a(v)) == expected

    def test_engine_agrees_with_formula_across_family(self):
        for v in range(1, 13):
            level = 24 // math.gcd(v, 24)
            assert genus_of_atom(atom_a(v)) == genus_pullback_formula(level)

    def test_torsion_and_integer_atoms(self):
        for atom in (
            moore(2),
            moore(8),
            chang_full(1, 1),
            chang_r_eta(1),
            chang_eta_s(2),
            sphere(9),
        ):
            assert genus_of_atom(atom) == 1

    def test_eta_atoms(self):
        assert genus_of_atom(chang_eta()) == 1
        assert genus_of_atom(chang_eta_sq()) == 1


class TestSameGenus:
    def test_spec_pairs(self):
        n = 10
        assert same_genus(atom_a(5, n), atom_a(7, n))
        assert not same_genus(atom_a(2, n), atom_a(3, n))
        assert same_genus(sphere(4), sphere(4))

    def test_top_dim_matters(self):
        assert not same_genus(atom_a(5, 10), atom_a(7, 11))

    def test_distinct_moore_atoms_differ(self):
        assert not same_genus(moore(2), moore(3))
        assert same_genus(moore(2), moore(2))

    def test_equivalence_relation_on_a_family(self):
        family = [atom_a(v) for v in range(1, 13)]
        for a in family:
            assert same_genus(a, a)
            for b in family:
                assert same_genus(a, b) == same_genus(b, a)
                assert same_genus(a, b) == (
                    math.gcd(a.v, 24) == math.gcd(b.v, 24)
                )
                for c in family:
                    if same_genus(a, b) and same_genus(b, c):
                        assert same_genus(a, c)

    def test_genus_constant_on_classes(self):
        family = [atom_a(v) for v in range(1, 13)]
        for a in family:
            for b in family:
                if same_genus(a, b):
                    assert genus_of_atom(a) == genus_of_atom(b)


class TestB0:
    def test_wedge_with_multiplicity(self):
        n = 10
        assert b0_of_wedge([atom_a(5, n), sphere(n + 1)]) == (n - 3, n + 1, n + 1)

    def test_torsion_only_is_empty(self):
        assert b0_of_wedge([moore(2), moore(3)]) == ()

    def test_single_chang_eta(self):
        n = 6
        assert b0_of_wedge([chang_eta(n)]) == (n - 1, n + 1)


class TestGrammar:
    @pytest.mark.parametrize(
        "text, expected",
        [
            ("S5", sphere(5)),
            ("M(3)@4", moore(3, top_dim=4)),
            ("C(2^1.eta.2^2)@6", chang_full(1, 2, top_dim=6)),
            ("C(2^3.eta)@5", chang_r_eta(3, top_dim=5)),
            ("C(eta.2^2)@7", chang_eta_s(2, top_dim=7)),
            ("C(eta)@2", chang_eta(top_dim=2)),
            ("C(eta2)@8", chang_eta_sq(top_dim=8)),
            ("A(6)@10", atom_a(6, top_dim=10)),
        ],
    )
    def test_parse(self, text, expected):
        assert parse_atom(text) == expected

    def test_round_trip(self):
        for atom in catalog_sample():
            assert parse_atom(format_atom(atom)) == atom

    @pytest.mark.parametrize(
        "text, position, token",
        [
            ("", 0, "<end>"),
            ("X3", 0, "X"),
            ("S", 1, "<end>"),
            ("Sx", 1, "Sx"[1:]),
            ("M3)@4", 1, "3"),
            ("M(3)4", 4, "4"),
            ("M(3@4", 5, "<end>"),
            ("A(6)@", 5, "<end>"),
            ("C(zeta)@4", 2, "zeta"),
            ("C(2^x.eta)@4", 4, "x"),
            ("C(eta.eta.eta)@4", 2, "eta"),
            # digits are ASCII only; str.isdigit alone lets all of these in
            ("S\u0663", 1, "\u0663"),
            ("A(6)@\u0661\u0660", 5, "\u0661\u0660"),
            ("S\u00b2", 1, "\u00b2"),
            ("M(\u00b2)@4", 2, "\u00b2"),
            ("C(2^\u00b2.eta)@4", 4, "\u00b2"),
            # format_atom writes no leading zero, so none is read
            ("S05", 1, "05"),
            ("M(03)@4", 2, "03"),
            ("C(2^01.eta)@5", 4, "01"),
            ("A(6)@010", 5, "010"),
        ],
    )
    def test_errors_name_token_and_position(self, text, position, token):
        with pytest.raises(AtomParseError) as err:
            parse_atom(text)
        assert err.value.position == position
        assert err.value.token == token
        assert str(position) in str(err.value)

    def test_out_of_range_values_propagate(self):
        with pytest.raises(ValueError):
            parse_atom("A(13)@10")
        with pytest.raises(ValueError):
            parse_atom("M(1)@4")


@st.composite
def atoms(draw):
    """An atom of any kind, with parameters from their least value up to
    10^6 (v up to 12) and a top dimension up to 10^4."""
    kind = draw(st.sampled_from(list(AtomKind)))
    row = _KINDS[kind]
    most = 12 if kind is AtomKind.ATOM_A else 10**6
    params = {field: draw(st.integers(row.least, most)) for field in row.params}
    return Atom(kind, draw(st.integers(row.min_top_dim, 10**4)), **params)


# the characters a corrupted name gains, inserted or in place of another
NOISE = "().@^2x"


class TestGrammarProperties:
    @seed(30)
    @given(atom=atoms())
    @settings(max_examples=300, deadline=None)
    def test_parse_inverts_format(self, atom):
        assert parse_atom(format_atom(atom)) == atom

    @seed(31)
    @given(atom=atoms(), how=st.sampled_from(["delete", "insert", "replace"]),
           spot=st.integers(0, 10**6), char=st.sampled_from(NOISE))
    @settings(max_examples=600, deadline=None)
    def test_corrupted_names_parse_or_name_their_token(self, atom, how, spot, char):
        # a name one character off either parses or raises ValueError, and
        # a parse error points into the name at the token it names
        name = format_atom(atom)
        i = spot % (len(name) + (how == "insert"))
        name = name[:i] + (char if how != "delete" else "") + name[i + (how != "insert"):]
        try:
            parse_atom(name)
        except AtomParseError as err:
            assert 0 <= err.position <= len(name), (name, err)
            assert err.token == "<end>" or name.startswith(err.token, err.position), (name, err)
        except ValueError:
            pass
