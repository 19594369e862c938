"""blowring: exact commutative-ring models of affine blow-ups, rank-1
universal centralizers, convolution rings and their Poisson structures.

Everything is computed over Gaussian rationals with no floating point; all
identity checks are ideal-theoretic (Gröbner normal forms) or literal
canonical-form comparisons.

The public names below resolve on first use (PEP 562), so importing the
package, or one submodule, loads only the modules that are read.
"""

__version__ = "0.1.0"

# public name -> the submodule that defines it
_HOME = {
    name: module
    for module, names in {
        "scalars": "GaussianRational gauss",
        "poly": "LaurentPoly parse_poly format_poly",
        "fractions": "RingFraction RingMap parse_fraction",
        "groebner": "BlockOrder GrevLex Ideal PolyRing ResourceLimitError buchberger normal_form",
        "rings": "PresentedRing kernel_of_map",
        "rootdata": "RootDatum sl2",
        "actions": "GroupAction Substitution invariant_generators",
        "blowup": "BlowupAlgebra build_blowup denis_check discriminant membership unit_comparison",
        "poisson": "PoissonChart bracket_closure_check standard_chart torus_chart",
        "centralizer": "ParametricMatrix SliceModel blowup_match commutant_basis isogeny_invariants "
        "kostant_slice model verify_parametrization",
        "kring": "KRing VClass subring_filter v_dictionary",
        "heisenberg": "HeisenbergElement poisson_from_q",
        "fusion": "FusionExpansion consistency_sweep fusion_table",
        "reports": "Config Report",
        "verify": "run_suite",
    }.items()
    for name in names.split()
}
__all__ = sorted(_HOME)


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = globals()[name] = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    return value


def __dir__():
    return sorted(globals().keys() | _HOME.keys())
