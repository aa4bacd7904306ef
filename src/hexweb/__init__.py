"""Web geometry of implicit cubic ODEs and semi-simple Frobenius 3-folds.

Subpackages:

- ``jets``: truncated two-variable Taylor arithmetic and sparse polynomials
- ``cubic``: cubic binary fields, discriminants, root normalization
- ``chern``: the web connection, curvature, and parallel transport
- ``frobenius``: potentials, multiplication tables, idempotents, Euler data
- ``webgeo``: leaf integration, hexagonal closure, first integrals
- ``singular``: discriminant tracing, normal forms, weight classification
- ``cli``: the ``hexweb`` batch command
"""

from .cubic import (DegenerateFieldError, PolyCoeffField, SingularPointError,
                    discriminant_of_coeffs, normalize_roots)
from .frobenius import Potential, solution_potential

__all__ = [
    "DegenerateFieldError",
    "PolyCoeffField",
    "Potential",
    "SingularPointError",
    "discriminant_of_coeffs",
    "normalize_roots",
    "solution_potential",
]
