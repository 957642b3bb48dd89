"""Crossed product involutive Banach algebra of a compact dynamical system.

Desk-scale models (finite permutations, the compactified integer shift,
circle rotations, disjoint unions), the twisted-convolution algebra over
them, the canonical irreducible representations and their kernels, two
hull/kernel operator pairs, character averaging on free systems, and an
abstract order-theoretic checking kit, all behind exact membership oracles.

The public names below resolve on first use (PEP 562), so importing the
package, or one of its modules, loads only the modules that are asked for.
"""

from importlib import import_module

_PUBLIC = {
    "algebra": """Element alg_add alg_adj alg_mul alg_neg alg_norm alg_scale alg_sub
        delta_power dual_action dual_average elem_close elem_is_zero element expectation
        fourier_eval from_func unit zero_element""",
    "dynsys": """INF Point apply_sigma is_free is_minimal orbit_closure orbit_points period
        pt whole_space empty_set""",
    "finite": "FiniteSet FiniteSystem",
    "shift": "ShiftSet ShiftSystem",
    "rotation": "CircleSet GOLDEN_CONJUGATE RotationSystem Surd",
    "union": "UnionSet UnionSystem",
    "errors": """CrossedProdError ModeMismatchError ParseError SystemMismatchError
        UnsupportedQueryError""",
    "funcspace": """Func const_func f_add f_algnorm f_compose_sigma f_conj f_eval f_mul
        f_scale f_sub f_supnorm_bounds f_zero_set finite_func one_func shift_func trig_poly
        union_func zero_func""",
    "hullkernel": """HullResult decompose_as_intersection hull hull_kernel_compose
        kernel_hull_compose kernel_member kernel_project minimality_dichotomy""",
    "reps_ideals": """GeneratedIdeal IntersectionIdeal KernelIdeal PxIdeal PxLambdaIdeal
        QxIdeal RepMatrix canonical_px canonical_px_lambda canonical_qx generated_ideal
        ideal_behaviour ideal_inclusion ideal_member intersection_ideal kernel_ideal
        rep_aperiodic_window rep_periodic restrict_system separating_check""",
    "synthesis": "char_average dichotomy_report drive_to_E",
    "transform": """FiniteRoots FullCircle PolynomialRoots TorusEntry TorusSubset
        adjoint_zeros_equal ideal_leq ideal_member_via_S ideal_of_torus_set tilde_member
        torus_contains zeros_nonempty_report zeros_of_ideal zi_closure""",
}
_HOME = {name: module for module, names in _PUBLIC.items() for name in names.split()}

__all__ = sorted(_HOME)
__version__ = "0.1.0"


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{_HOME[name]}", __name__), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
