"""blowring: exact commutative-ring models of affine blow-ups, rank-1
universal centralizers, convolution rings and their Poisson structures.

Everything is computed over Gaussian rationals with no floating point; all
identity checks are ideal-theoretic (Gröbner normal forms) or literal
canonical-form comparisons.
"""

from .scalars import GaussianRational, gauss
from .poly import LaurentPoly, parse_poly, format_poly
from .fractions import RingFraction, RingMap, parse_fraction
from .groebner import (
    BlockOrder,
    GrevLex,
    Ideal,
    PolyRing,
    ResourceLimitError,
    buchberger,
    normal_form,
)
from .rings import PresentedRing
from .rootdata import RootDatum, sl2
from .actions import GroupAction, Substitution, invariant_generators
from .blowup import (
    BlowupAlgebra,
    build_blowup,
    denis_check,
    discriminant,
    membership,
    unit_comparison,
)
from .poisson import PoissonChart, bracket_closure_check, standard_chart, torus_chart
from .centralizer import (
    ParametricMatrix,
    SliceModel,
    blowup_match,
    commutant_basis,
    isogeny_invariants,
    kernel_of_map,
    kostant_slice,
    model,
    verify_parametrization,
)
from .kring import KRing, VClass, subring_filter, v_dictionary
from .heisenberg import HeisenbergElement, poisson_from_q
from .homology import BMRing
from .fusion import FusionExpansion, consistency_sweep, fusion_table
from .reports import Config, Report
from .verify import run_suite

__version__ = "0.1.0"
