"""Exact-arithmetic toolkit for symplectic hypergeometric monodromy groups.

Builds the companion-matrix generators of the group attached to a pair of
degree-4 cyclotomic-product polynomials, computes the invariant symplectic
form and an anti-diagonalizing basis, classifies unipotent elements into
the positive root groups of Sp(4), verifies the shipped arithmeticity
certificates, and re-runs the bounded word search behind them.  All
arithmetic is exact rational; nothing here ever rounds.
"""

from .basis import GramError, SymplecticBasis, build_basis, checked_basis, to_basis_coords, verify_basis
from .certificates import (
    Certificate,
    CertificateError,
    VerificationReport,
    builtin_certificates,
    evaluate_expression,
    exponent_mutations,
    load_certificate,
    verify_certificate,
)
from .cyclotomic import (
    ConjugacyError,
    DifferenceData,
    ExponentVector,
    GaloisOrbitError,
    IntPolynomial,
    cyclotomic_poly,
    difference_data,
    from_exponents,
    have_common_root,
    is_primitive_pair,
    negate_variable,
)
from .forms import FormError, SymplecticForm, check_symplectic, invariance_system, invariant_form
from .linalg import MatrixQ, SingularMatrixError, VectorQ, proportionality
from .monodromy import (
    GroupWord,
    MonodromyTriple,
    PairError,
    companion,
    evaluate_word,
    levelt_triple,
    parse_word,
)
from .roots import (
    RootCoverage,
    RootLabel,
    antidiagonal_gram,
    classify_unipotent,
    coverage,
    is_in_U,
)
from .search import GammaResult, derive_witnesses, enumerate_words, find_gamma, gcd_obstruction
from .tables import TableRow, TablesReport, dataset, row, validate_tables

__version__ = "0.1.0"

__all__ = [
    "Certificate",
    "CertificateError",
    "ConjugacyError",
    "DifferenceData",
    "ExponentVector",
    "FormError",
    "GaloisOrbitError",
    "GammaResult",
    "GramError",
    "GroupWord",
    "IntPolynomial",
    "MatrixQ",
    "MonodromyTriple",
    "PairError",
    "RootCoverage",
    "RootLabel",
    "SingularMatrixError",
    "SymplecticBasis",
    "SymplecticForm",
    "TableRow",
    "TablesReport",
    "VectorQ",
    "VerificationReport",
    "antidiagonal_gram",
    "build_basis",
    "builtin_certificates",
    "check_symplectic",
    "checked_basis",
    "classify_unipotent",
    "companion",
    "coverage",
    "cyclotomic_poly",
    "dataset",
    "derive_witnesses",
    "difference_data",
    "enumerate_words",
    "evaluate_expression",
    "evaluate_word",
    "exponent_mutations",
    "find_gamma",
    "from_exponents",
    "gcd_obstruction",
    "have_common_root",
    "invariance_system",
    "invariant_form",
    "is_in_U",
    "is_primitive_pair",
    "levelt_triple",
    "load_certificate",
    "negate_variable",
    "parse_word",
    "proportionality",
    "row",
    "to_basis_coords",
    "validate_tables",
    "verify_basis",
    "verify_certificate",
]
