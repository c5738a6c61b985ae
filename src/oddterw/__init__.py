"""Exact construction and machine verification of the subconstituent algebra of Odd graphs."""

from .combinatorics import SubsetIndex, binomial, intersection_range
from .errors import (
    ClosureDivergenceError,
    EliminationDivergenceError,
    FormulaError,
    GraphStructureError,
    OddTerwError,
    ParameterError,
    ShapeError,
)
from .exactmat import (
    DEFAULT_PRIME,
    DEFAULT_PRIMES,
    IntMatrix,
    MatrixSpace,
    is_prime,
    kron,
    write_matrix_market,
)
from .intersection import (
    HSpec,
    decompose_product,
    disjoint_product_expansion,
    intersection_matrix,
    product_expansion,
    product_expansion_term,
    product_formula_failures,
)
from .oddgraph import OddGraph, expected_block_factors, verify_adjacency_blocks
from .report import CheckResult, VerificationReport, load_report_schema
from .terwilliger import (
    BlockGenerator,
    ClosureResult,
    block_generators,
    block_generators_by_parity,
    closure,
    dimension_formula,
    generator_span,
    membership_family_cases,
    verify_closure_in_generator_span,
    verify_generator_basis,
    verify_generators_in_closure,
    verify_membership_families,
)

__version__ = "0.1.0"
