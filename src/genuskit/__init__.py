"""Genus counts of orders in products of integer matrix rings, computed as
a quotient of blockwise determinant groups of the subring units, with a
generic double-coset engine, a catalog of stable polyhedral atoms on top
and a CLI front end.

The engine, genuskit.cosets, is imported on the first use of one of its
five names here: no genus query runs it, only the oracle checks do."""

from .atoms import (
    Atom,
    AtomKind,
    AtomParseError,
    EndoDescription,
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
    rational_wedge,
    same_genus,
    sphere,
    torsion_split,
)
from .errors import InternalInconsistencyError, ResourceLimitError
from .matrices import (
    DEFAULT_CAP,
    MatModM,
    det,
    elementary_generators,
    enumerate_gl,
    gl_order,
    mat_mul,
    stable_image,
    stable_image_order,
)
from .orders import genus, genus_relative, load_order_spec, subring_closure, subring_units
from .rings import Residue, ext_gcd, gcd, totient, unit_group, units
from .specs import (
    GenusResult,
    OrderSpec,
    genus_pullback_formula,
    matrix_pullback_spec,
    order_spec_from_dict,
    order_spec_to_dict,
    pullback_spec,
)

__version__ = "0.1.0"

__all__ = [
    "Atom",
    "AtomKind",
    "AtomParseError",
    "DEFAULT_CAP",
    "EndoDescription",
    "FiniteGroup",
    "GenusResult",
    "InternalInconsistencyError",
    "MatModM",
    "OrderSpec",
    "Residue",
    "ResourceLimitError",
    "atom_a",
    "b0_of_wedge",
    "chang_eta",
    "chang_eta_s",
    "chang_eta_sq",
    "chang_full",
    "chang_r_eta",
    "det",
    "direct_product",
    "double_coset_count",
    "double_coset_partition",
    "elementary_generators",
    "endo_order",
    "enumerate_gl",
    "ext_gcd",
    "format_atom",
    "gcd",
    "genus",
    "genus_of_atom",
    "genus_pullback_formula",
    "genus_relative",
    "gl_order",
    "is_torsion",
    "load_order_spec",
    "mat_mul",
    "matrix_pullback_spec",
    "moore",
    "order_spec_from_dict",
    "order_spec_to_dict",
    "parse_atom",
    "pullback_spec",
    "rational_wedge",
    "same_genus",
    "sphere",
    "stable_image",
    "stable_image_order",
    "subgroup_closure",
    "subring_closure",
    "subring_units",
    "torsion_split",
    "totient",
    "unit_group",
    "units",
]

_COSETS = ("FiniteGroup", "direct_product", "double_coset_count",
           "double_coset_partition", "subgroup_closure")


def __getattr__(name):
    if name in _COSETS:
        from . import cosets
        return getattr(cosets, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
