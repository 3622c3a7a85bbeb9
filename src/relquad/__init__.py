"""Exact arithmetic for relative quadratic extensions of Q and of real or
imaginary quadratic base fields: discriminants and conductor ideals,
quadratic residue characters and their conductors, root counting with its
reciprocity formula, generalized Hurwitz class numbers over Q, and the
dyadic theory of the Hilbert symbol on higher unit groups."""

from .arith import BoundExceeded
from .characters import QuadCharacter
from .counting import (
    count_square_roots,
    count_square_roots_formula,
    order_ideal_counts,
    square_root_pairs,
    zeta_coefficients,
)
from .discriminants import (
    DiscriminantInfo,
    conductor_ideal,
    discriminant_classes,
    discriminant_witness,
    fundamental_discriminant_data,
    is_unit_discriminant,
    relative_discriminant_general,
)
from .dyadic import LocalField, duality_report, hilbert_symbol, local_field
from .field import Elem, QuadField, fundamental_unit, is_unit_square, make_field, parse_elem
from .hurwitz import hurwitz_class_number, hurwitz_class_number_forms, reduced_forms
from .ideals import (
    Ideal,
    PrimeIdeal,
    ideal_from_generators,
    ideals_of_norm,
    parse_ideal,
    primes_above,
    principal_ideal,
)
from .tables import table_rows, unit_discriminants
from .verify import run_suite

__version__ = "0.1.0"
