"""The package and ``dynsys`` resolve their public names on first use.

``crossedprod`` exports the same names as when its ``__init__`` imported
every module, and ``dynsys`` still answers for the four model classes and
their set classes, whose modules load only when a name asks for them.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import crossedprod
from crossedprod import dynsys, finite, rotation, shift, union

ROOT = Path(__file__).resolve().parent.parent

EXPORTS = set("""
    Element alg_add alg_adj alg_mul alg_neg alg_norm alg_scale alg_sub delta_power
    dual_action dual_average elem_close elem_is_zero element expectation fourier_eval
    from_func unit zero_element
    INF CircleSet FiniteSet FiniteSystem GOLDEN_CONJUGATE Point RotationSystem ShiftSet
    ShiftSystem Surd UnionSet UnionSystem apply_sigma is_free is_minimal orbit_closure
    orbit_points period pt whole_space empty_set
    CrossedProdError ModeMismatchError ParseError SystemMismatchError UnsupportedQueryError
    Func const_func f_add f_algnorm f_compose_sigma f_conj f_eval f_mul f_scale f_sub
    f_supnorm_bounds f_zero_set finite_func one_func shift_func trig_poly union_func zero_func
    HullResult decompose_as_intersection hull hull_kernel_compose kernel_hull_compose
    kernel_member kernel_project minimality_dichotomy
    GeneratedIdeal IntersectionIdeal KernelIdeal PxIdeal PxLambdaIdeal QxIdeal RepMatrix
    canonical_px canonical_px_lambda canonical_qx generated_ideal ideal_behaviour
    ideal_inclusion ideal_member intersection_ideal kernel_ideal rep_aperiodic_window
    rep_periodic restrict_system separating_check
    char_average dichotomy_report drive_to_E
    FiniteRoots FullCircle PolynomialRoots TorusEntry TorusSubset adjoint_zeros_equal
    ideal_leq ideal_member_via_S ideal_of_torus_set tilde_member torus_contains
    zeros_nonempty_report zeros_of_ideal zi_closure
""".split())


def test_every_public_name_resolves_and_is_listed():
    assert set(crossedprod.__all__) == EXPORTS
    listed = dir(crossedprod)
    for name in EXPORTS:
        assert getattr(crossedprod, name) is not None and name in listed, name


def test_unknown_names_raise_attribute_error():
    for module in (crossedprod, dynsys):
        with pytest.raises(AttributeError):
            module.no_such_name
        assert not hasattr(module, "sigma_power_map")


def test_star_import_runs_the_readme_tour():
    readme = (ROOT / "README.md").read_text()
    tour = re.search(r"A quick tour:\n\n```python\n(.*?)```", readme, re.S).group(1)
    assert tour.startswith("from crossedprod import *\n")
    names: dict = {}
    exec(tour, names)
    assert names["ideal_member"](names["I"], names["a"])


def test_dynsys_resolves_the_models_from_their_modules():
    assert dynsys.FiniteSystem is finite.FiniteSystem
    assert dynsys.ShiftSystem is shift.ShiftSystem
    assert dynsys.RotationSystem is rotation.RotationSystem
    assert dynsys.UnionSystem is union.UnionSystem
    assert dynsys.Surd is rotation.Surd and dynsys.GOLDEN_CONJUGATE is rotation.GOLDEN_CONJUGATE
    assert crossedprod.FiniteSystem is finite.FiniteSystem
    # each model's set class, and the rotation's turn comparison, resolve here as well
    homes = {"FiniteSet": finite, "ShiftSet": shift, "CircleSet": rotation, "UnionSet": union}
    for name, module in {**homes, "turns_eq": rotation, "TURN_TOL": rotation}.items():
        assert getattr(dynsys, name) is getattr(module, name), name
    from crossedprod import CircleSet, FiniteSet, ShiftSet, UnionSet
    for cls, module in zip((FiniteSet, ShiftSet, CircleSet, UnionSet), homes.values()):
        assert cls is getattr(module, cls.__name__)


def loaded_after(code: str) -> set:
    """The library modules a fresh interpreter holds after running code."""
    script = code + "\nimport sys\nprint(' '.join(m for m in sys.modules if m.startswith('crossedprod')))"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                         capture_output=True, text=True, timeout=60).stdout
    return set(out.split())


def test_a_name_loads_only_its_module():
    assert loaded_after("import crossedprod") == {"crossedprod"}
    assert loaded_after("from crossedprod import FiniteSystem") == {
        "crossedprod", "crossedprod.dynsys", "crossedprod.errors", "crossedprod.finite",
        "crossedprod.records", "crossedprod.scalars"}
    held = loaded_after("from crossedprod.dynsys import ShiftSystem\n"
                        "from crossedprod.funcspace import rotation_phase")
    assert "crossedprod.shift" in held and "crossedprod.funcspace" in held
    assert not held & {"crossedprod.finite", "crossedprod.rotation", "crossedprod.union"}
