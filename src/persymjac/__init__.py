"""Spectral toolbox for persymmetric (mirror-symmetric) Jacobi matrices.

Forward problems (eigenvalues, node weights, orthogonal polynomial
families), four inverse reconstructions from a prescribed spectrum,
isospectral one-parameter deformations, and a benchmark harness.
"""

from .benchmark import (BenchConfig, BenchRecord, SpectrumFamily, SplitMix64,
                        default_config, generate_spectrum, linear_ground_truth,
                        records_to_csv, records_to_json, roundtrip_error,
                        run_benchmark)
from .deformation import (build_involution, deform_closed_form, deform_conjugate,
                          deformed_polynomials, deformed_weights)
from .errors import NumericalError
from .jacobi import (MonicJacobi, OrthoPolySystem, Spectrum, SymmetricJacobi,
                     WeightTable, eigenvalues, is_persymmetric, mirror_residual,
                     recurrence_polynomials, weights_general, weights_persymmetric)
from .polynomials import Polynomial, lagrange_interpolate, poly_from_roots
from .reconstruction import (ALGORITHMS, MidpointData, MomentSequence, midpoint_data,
                             midpoint_polys, moments, reconstruct_gram_schmidt_full,
                             reconstruct_half_lattice, reconstruct_lagrange_euclid,
                             reconstruct_mirror_fold, sublattice_weights)

__version__ = "0.1.0"

__all__ = [
    "ALGORITHMS",
    "BenchConfig",
    "BenchRecord",
    "MidpointData",
    "MomentSequence",
    "MonicJacobi",
    "NumericalError",
    "OrthoPolySystem",
    "Polynomial",
    "Spectrum",
    "SpectrumFamily",
    "SplitMix64",
    "SymmetricJacobi",
    "WeightTable",
    "build_involution",
    "default_config",
    "deform_closed_form",
    "deform_conjugate",
    "deformed_polynomials",
    "deformed_weights",
    "eigenvalues",
    "generate_spectrum",
    "is_persymmetric",
    "lagrange_interpolate",
    "linear_ground_truth",
    "midpoint_data",
    "midpoint_polys",
    "mirror_residual",
    "moments",
    "poly_from_roots",
    "records_to_csv",
    "records_to_json",
    "reconstruct_gram_schmidt_full",
    "reconstruct_half_lattice",
    "reconstruct_lagrange_euclid",
    "reconstruct_mirror_fold",
    "recurrence_polynomials",
    "roundtrip_error",
    "run_benchmark",
    "sublattice_weights",
    "weights_general",
    "weights_persymmetric",
]
