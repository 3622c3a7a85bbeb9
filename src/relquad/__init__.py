"""Exact arithmetic for relative quadratic extensions of Q and of real or
imaginary quadratic base fields: discriminants and conductor ideals,
quadratic residue characters and their conductors, root counting with its
reciprocity formula, generalized Hurwitz class numbers over Q, and the
dyadic theory of the Hilbert symbol on higher unit groups.

Importing the package loads none of its modules: each exported name is
resolved on first access, relquad.X or from relquad import X, by importing
the module that defines it (PEP 562)."""

# each exported name, by the module that defines it
_HOMES = {
    "BoundExceeded": "arith",
    "QuadCharacter": "characters",
    "count_square_roots": "counting",
    "count_square_roots_formula": "counting",
    "order_ideal_counts": "counting",
    "square_root_pairs": "counting",
    "zeta_coefficients": "counting",
    "DiscriminantInfo": "discriminants",
    "conductor_ideal": "discriminants",
    "discriminant_classes": "discriminants",
    "discriminant_witness": "discriminants",
    "fundamental_discriminant_data": "discriminants",
    "is_unit_discriminant": "discriminants",
    "relative_discriminant_general": "discriminants",
    "LocalField": "dyadic",
    "duality_report": "dyadic",
    "hilbert_symbol": "dyadic",
    "local_field": "dyadic",
    "Elem": "field",
    "QuadField": "field",
    "fundamental_unit": "field",
    "is_unit_square": "field",
    "make_field": "field",
    "parse_elem": "field",
    "hurwitz_class_number": "hurwitz",
    "hurwitz_class_number_forms": "hurwitz",
    "reduced_forms": "hurwitz",
    "Ideal": "ideals",
    "PrimeIdeal": "ideals",
    "ideal_from_generators": "ideals",
    "ideals_of_norm": "ideals",
    "parse_ideal": "ideals",
    "primes_above": "ideals",
    "principal_ideal": "ideals",
    "table_rows": "tables",
    "unit_discriminants": "tables",
    "run_suite": "verify",
}

__all__ = list(_HOMES)

__version__ = "0.1.0"


def __getattr__(name: str):
    home = _HOMES.get(name)
    if home is None:
        # a submodule is found here too: from relquad import arith falls
        # back to importing relquad.arith
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(__import__(f"{__name__}.{home}", fromlist=(name,)), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
