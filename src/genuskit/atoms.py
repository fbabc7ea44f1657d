"""Catalog of stable polyhedral atoms: spheres, Moore and Chang spaces and
the A(v) family, with their rational sphere wedges, reduced endomorphism
orders and genus counts.  Each kind's facts (parameters and their bounds,
least top dimension, rational wedge and grammar name) are one row of
``_KINDS``; only the A(v) level and the bound v <= 12 are stated elsewhere.

Genus values for the pullback cases are computed by the order engine, not
read from a table; the closed totient formula is kept as a cross-check in
the test suite.
"""

from __future__ import annotations

from enum import Enum
from functools import lru_cache

from .errors import Frozen
from .matrices import DEFAULT_CAP
from .orders import genus
from .rings import gcd
from .specs import pullback_spec


class AtomKind(Enum):
    SPHERE = "sphere"
    MOORE = "moore"
    CHANG_FULL = "chang-full"          # C(2^r.eta.2^s)
    CHANG_R_ETA = "chang-r-eta"        # C(2^r.eta)
    CHANG_ETA_S = "chang-eta-s"        # C(eta.2^s)
    CHANG_ETA = "chang-eta"            # C(eta)
    CHANG_ETA_SQ = "chang-eta-sq"      # C(eta2)
    ATOM_A = "atom-a"                  # A(v)


class _Kind(Frozen):
    __slots__ = ("params", "least", "min_top_dim", "wedge", "template")
    params: tuple[str, ...]      # parameter fields the kind takes
    least: int                   # least value each of them may take
    min_top_dim: int
    wedge: tuple[int, ...]       # rational sphere dimensions minus top_dim, ascending
    template: str                # grammar name, filled from the atom's fields


# One row per kind.  Attaching maps of finite order vanish rationally and
# degree maps do not, so the wedge offsets follow each defining
# cofibration; eta^2 and v*nu reach three cells down, so those kinds need
# top dimension 4 to keep every cell dimension positive.
_KINDS = {
    AtomKind.SPHERE: _Kind((), 1, 2, (0,), "S{n}"),
    AtomKind.MOORE: _Kind(("a",), 2, 2, (), "M({a})@{n}"),
    AtomKind.CHANG_FULL: _Kind(("r", "s"), 1, 2, (), "C(2^{r}.eta.2^{s})@{n}"),
    AtomKind.CHANG_R_ETA: _Kind(("r",), 1, 2, (1,), "C(2^{r}.eta)@{n}"),
    AtomKind.CHANG_ETA_S: _Kind(("s",), 1, 2, (-1,), "C(eta.2^{s})@{n}"),
    AtomKind.CHANG_ETA: _Kind((), 1, 2, (-1, 1), "C(eta)@{n}"),
    AtomKind.CHANG_ETA_SQ: _Kind((), 1, 4, (-2, 1), "C(eta2)@{n}"),
    AtomKind.ATOM_A: _Kind(("v",), 1, 4, (-3, 1), "A({v})@{n}"),
}


class Atom(Frozen):
    """One catalog atom; ``top_dim`` is the suspension index n."""

    __slots__ = ("kind", "top_dim", "a", "r", "s", "v")
    kind: AtomKind
    top_dim: int
    a: int | None
    r: int | None
    s: int | None
    v: int | None
    _defaults = dict.fromkeys(("a", "r", "s", "v"))

    def _validate(self):
        row = _KINDS[self.kind]
        for field in ("a", "r", "s", "v"):
            if (getattr(self, field) is None) == (field in row.params):
                verb = "needs" if field in row.params else "does not take"
                raise ValueError(f"{self.kind.value} atom {verb} parameter {field}")
        for field in ("top_dim", *row.params):
            value = getattr(self, field)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(
                    f"{self.kind.value} atom needs an int {field}, got {value!r}")
        if self.top_dim < row.min_top_dim:
            raise ValueError(
                f"{self.kind.value} atom needs top_dim >= {row.min_top_dim}, "
                f"got {self.top_dim}"
            )
        for field in row.params:
            value = getattr(self, field)
            if value < row.least:
                raise ValueError(
                    f"{self.kind.value} atom needs {field} >= {row.least}, got {value}"
                )
        if self.kind is AtomKind.ATOM_A and self.v > 12:
            # out-of-range v is rejected, not reduced mod 24
            raise ValueError(f"A(v) needs 0 < v <= 12, got {self.v}")


def _dim(kind: AtomKind, top_dim: int | None) -> int:
    return _KINDS[kind].min_top_dim if top_dim is None else top_dim


def sphere(n: int) -> Atom:
    return Atom(AtomKind.SPHERE, n)


def moore(a: int, top_dim: int | None = None) -> Atom:
    return Atom(AtomKind.MOORE, _dim(AtomKind.MOORE, top_dim), a=a)


def chang_full(r: int, s: int, top_dim: int | None = None) -> Atom:
    return Atom(AtomKind.CHANG_FULL, _dim(AtomKind.CHANG_FULL, top_dim), r=r, s=s)


def chang_r_eta(r: int, top_dim: int | None = None) -> Atom:
    return Atom(AtomKind.CHANG_R_ETA, _dim(AtomKind.CHANG_R_ETA, top_dim), r=r)


def chang_eta_s(s: int, top_dim: int | None = None) -> Atom:
    return Atom(AtomKind.CHANG_ETA_S, _dim(AtomKind.CHANG_ETA_S, top_dim), s=s)


def chang_eta(top_dim: int | None = None) -> Atom:
    return Atom(AtomKind.CHANG_ETA, _dim(AtomKind.CHANG_ETA, top_dim))


def chang_eta_sq(top_dim: int | None = None) -> Atom:
    return Atom(AtomKind.CHANG_ETA_SQ, _dim(AtomKind.CHANG_ETA_SQ, top_dim))


def atom_a(v: int, top_dim: int | None = None) -> Atom:
    return Atom(AtomKind.ATOM_A, _dim(AtomKind.ATOM_A, top_dim), v=v)


class EndoDescription(Frozen):
    """Shape of the reduced endomorphism ring of an atom.

    ``kind`` is one of "torsion", "integers", "pullback"; a pullback carries
    the congruence level of the pair ring it identifies with.
    """

    __slots__ = ("kind", "level")
    kind: str
    level: int | None
    _defaults = {"level": None}

    def _validate(self):
        if self.kind not in ("torsion", "integers", "pullback"):
            raise ValueError(f"unknown endomorphism kind {self.kind!r}")
        if self.kind == "pullback":
            if self.level is None or self.level < 2:
                raise ValueError(f"pullback level must be >= 2, got {self.level}")
        elif self.level is not None:
            raise ValueError(f"{self.kind} takes no level")


TORSION = EndoDescription("torsion")
INTEGERS = EndoDescription("integers")


@lru_cache(maxsize=64)
def pullback(level: int) -> EndoDescription:
    """The pullback description at ``level``, one shared instance per level."""
    return EndoDescription("pullback", level)


def rational_wedge(atom: Atom) -> tuple[int, ...]:
    """Dimensions of the spheres in the rationalization, as a sorted multiset."""
    return tuple(atom.top_dim + d for d in _KINDS[atom.kind].wedge)


def is_torsion(atom: Atom) -> bool:
    """Whether the endomorphism ring is torsion (rationally trivial atom)."""
    return not _KINDS[atom.kind].wedge


def endo_order(atom: Atom) -> EndoDescription:
    """Reduced endomorphism order: torsion, Z or a pullback as the rational
    wedge has 0, 1 or 2 spheres; the level is 24 / gcd(v, 24) for A(v), else 2.
    """
    spheres = len(_KINDS[atom.kind].wedge)
    if spheres == 0:
        return TORSION
    if spheres == 1:
        return INTEGERS
    return pullback(24 // gcd(atom.v, 24) if atom.kind is AtomKind.ATOM_A else 2)


def genus_of_atom(atom: Atom, cap: int = DEFAULT_CAP) -> int:
    """Genus of an atom, computed through the order engine.

    Torsion atoms and atoms with endomorphism ring Z have a single class;
    pullback cases run the full double-coset computation.
    """
    endo = endo_order(atom)
    if endo.kind in ("torsion", "integers"):
        return 1
    return genus(pullback_spec(endo.level), cap).total


def same_genus(a: Atom, b: Atom) -> bool:
    """Whether two catalog atoms lie in the same genus.

    Equal atoms always do; distinct atoms do exactly when they share the
    kind, the top dimension and a pullback endomorphism order, which happens
    only for A(v) atoms of equal gcd(v, 24).  All other distinct pairs are in
    different genera (torsion atoms in one genus are isomorphic).
    """
    if a == b:
        return True
    endo = endo_order(a)
    return (
        a.kind is b.kind
        and a.top_dim == b.top_dim
        and endo.kind == "pullback"
        and endo == endo_order(b)
    )


def torsion_split(atoms) -> tuple[list[Atom], list[Atom]]:
    """Stable partition into (torsion part, torsion-reduced part)."""
    torsion = [a for a in atoms if is_torsion(a)]
    reduced = [a for a in atoms if not is_torsion(a)]
    return torsion, reduced


def b0_of_wedge(atoms) -> tuple[int, ...]:
    """Multiset union of the rational wedges of a list of atoms."""
    return tuple(sorted(d for atom in atoms for d in rational_wedge(atom)))


# ---------------------------------------------------------------------------
# Naming grammar:  S<n> | M(<a>)@<n> | C(2^r.eta.2^s)@<n> | C(2^r.eta)@<n>
#                | C(eta.2^s)@<n> | C(eta)@<n> | C(eta2)@<n> | A(<v>)@<n>
# ---------------------------------------------------------------------------


class AtomParseError(ValueError):
    """Malformed atom name; carries the offending token and its position."""

    def __init__(self, message: str, position: int, token: str):
        super().__init__(f"{message} at position {position}: {token!r}")
        self.position = position
        self.token = token


def _parse_int(text: str, start: int, end: int, what: str) -> int:
    token = text[start:end]
    # ASCII only: str.isdigit also accepts '²', and int() reads '٣' as 3
    if not (token.isascii() and token.isdigit()):
        raise AtomParseError(f"expected {what}", start, token or "<end>")
    if token[0] == "0" and len(token) > 1:
        # format_atom writes no leading zero, so such a name would not round-trip
        raise AtomParseError(f"leading zero in {what}", start, token)
    return int(token)


def _split_call(text: str, head: str) -> tuple[str, int, int]:
    """Split '<head>(<inner>)@<n>' into (inner, inner offset, n)."""
    if text[1:2] != "(":
        raise AtomParseError(f"expected '(' after {head!r}", 1, text[1:2] or "<end>")
    close = text.find(")", 2)
    if close < 0:
        raise AtomParseError("missing ')'", len(text), "<end>")
    if text[close + 1 : close + 2] != "@":
        raise AtomParseError("expected '@' after ')'", close + 1,
                             text[close + 1 : close + 2] or "<end>")
    n = _parse_int(text, close + 2, len(text), "a top dimension")
    return text[2:close], 2, n


def _grammar() -> dict[str, dict[int | None, list[tuple[AtomKind, tuple, tuple]]]]:
    """The kinds of each head letter by their number of body tokens (None
    for S{n}), in _KINDS order, with their template's body, a (prefix,
    field) pair per token between '(' and ')@', field None for a literal,
    and the (index, token) of each literal."""
    grammar = {}
    for kind, row in _KINDS.items():
        head, rest = row.template[0], row.template[1:]
        tokens = rest[1:rest.index(")@")].split(".") if rest[0] == "(" else []
        body = tuple((prefix, field[:-1] or None)
                     for prefix, _, field in (tok.partition("{") for tok in tokens))
        literals = tuple((i, prefix) for i, (prefix, field) in enumerate(body) if not field)
        grammar.setdefault(head, {}).setdefault(len(body) or None, []).append(
            (kind, body, literals))
    return grammar


_GRAMMAR = _grammar()


def parse_atom(text: str) -> Atom:
    """Parse an atom name by the first kind in _KINDS whose template fits
    it; raises AtomParseError naming token and position."""
    s = text.strip()
    if not s:
        raise AtomParseError("empty atom name", 0, "<end>")
    head = s[0]
    by_count = _GRAMMAR.get(head)
    if by_count is None:
        raise AtomParseError("unknown atom kind", 0, head)
    if None in by_count:
        return Atom(by_count[None][0][0], _parse_int(s, 1, len(s), "a top dimension"))
    inner, off, n = _split_call(s, head)
    tokens = inner.split(".")
    for kind, body, literals in by_count.get(len(tokens), ()):
        for i, literal in literals:
            if tokens[i] != literal:
                break
        else:
            break
    else:
        raise AtomParseError(f"unrecognized {head}(...) body", off, inner or "<end>")
    values = {}
    for tok, (prefix, field) in zip(tokens, body):
        if field:
            if prefix and not tok.startswith(prefix):
                raise AtomParseError(f"expected a token '{prefix}<{field}>'", off, tok)
            values[field] = _parse_int(s, off + len(prefix), off + len(tok), "an integer")
        off += len(tok) + 1
    return Atom(kind, n, **values)


def format_atom(atom: Atom) -> str:
    """Canonical grammar name of an atom; inverse of parse_atom."""
    return _KINDS[atom.kind].template.format(n=atom.top_dim, a=atom.a, r=atom.r,
                                             s=atom.s, v=atom.v)
