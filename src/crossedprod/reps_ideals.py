"""Canonical irreducible representations and the three ideal families.

Ideals are never materialised as subspaces: every ideal handle is a
membership oracle plus structural data, and all containment questions
reduce to orbit data or to finitely many exact vanishing conditions.  A
handle's ``repr`` is its literal, which :func:`read_ideal` reads back.
"""

from __future__ import annotations

from functools import reduce
from itertools import takewhile

from . import scalars as sc
from .algebra import (
    Element, alg_add, alg_adj, alg_mul, demote_to_float, element, from_func, unify_lam,
)
from .dynsys import Func, Point, is_invariant_closed, validate_point
from .errors import SystemMismatchError, UnsupportedQueryError
from .records import record
from .scalars import DEFAULT_TOL
from .transform import (
    FiniteRoots, FullCircle, TorusEntry, TorusSubset, generated_zero_set,
    pth_roots, residue_sums,
)


# ---------------------------------------------------------------------------
# Representation matrices


@record
class RepMatrix:
    """Square matrix of a represented element.

    ``period`` is set for the finite-dimensional periodic representations;
    ``window`` is the truncation radius for aperiodic ones, where only the
    central band of the matrix is faithful.
    """

    entries: tuple
    period: int | None = None
    window: int | None = None

    @property
    def dim(self) -> int:
        return len(self.entries)


def _zeros(dim: int, exact: bool):
    z = sc.zero_like(exact)
    return [[z] * dim for _ in range(dim)]


def rep_is_zero(M: RepMatrix, tol: float = DEFAULT_TOL) -> bool:
    return all(sc.is_zero(v, tol) for row in M.entries for v in row)


def rep_periodic(system, x: Point, lam, a: Element) -> RepMatrix:
    """Matrix of the finite-dimensional representation at a periodic point."""
    validate_point(system, x)
    if a.system != system:
        raise SystemMismatchError("element on the wrong system")
    p = system.period(x)
    if p is None:
        raise UnsupportedQueryError("rep_periodic needs a periodic point")
    sc.check_unimodular(lam)
    a, lam = unify_lam(a, lam)
    orbit = system.orbit_points(x)

    # The unitary step matrix D has ones on the subdiagonal and lam in the
    # top-right corner, so D^n e_j = lam^q e_i with i = (j + n) mod p and
    # q = floor((j + n) / p); for n < 0 this is (D*)^|n|, where a negative
    # q stands for conj(lam)^|q|.
    # Exact entries skip "* QONE" and "QZERO +"; floats keep both: either can flip a zero's sign.
    total = _zeros(p, a.exact)
    powers: dict = {}  # lam^q, each taken once
    for n, f in a.coeffs.items():
        diag = [system.eval(f, y) for y in orbit]
        for j in range(p):
            q, i = divmod(j + n, p)
            w = powers[q] if q in powers else powers.setdefault(q, sc.unit_pow(lam, q))
            t = diag[i] if w is sc.QONE else diag[i] * w
            total[i][j] = t if total[i][j] is sc.QZERO else total[i][j] + t
    return RepMatrix(tuple(tuple(r) for r in total), period=p)


def rep_aperiodic_window(system, x: Point, W: int, a: Element) -> RepMatrix:
    """Truncation of the aperiodic representation to basis indices -W..W.

    Requires W at least the support radius; products of such windows agree
    with the represented product on the central band of radius
    W minus the support radius.
    """
    validate_point(system, x)
    if a.system != system:
        raise SystemMismatchError("element on the wrong system")
    if system.period(x) is not None:
        raise UnsupportedQueryError("rep_aperiodic_window needs an aperiodic point")
    if W < a.support_radius():
        raise UnsupportedQueryError("window smaller than the support radius")
    M = _zeros(2 * W + 1, a.exact)
    # basis action: the step generator sends e_k to e_{k+1} and a function
    # acts diagonally by its value along the orbit, so the coefficient of
    # index n contributes a_n(sigma^{k+n} x) at position (k+n, k)
    for n, f in a.coeffs.items():
        for k in range(-W, W + 1):
            if -W <= k + n <= W:
                M[k + n + W][k + W] += system.eval(f, system.apply_sigma(x, k + n))
    return RepMatrix(tuple(tuple(r) for r in M), window=W)


# ---------------------------------------------------------------------------
# Ideal handles


@record(eq=False)
class HullResult:
    subset: object
    provenance: tuple


@record(eq=False)
class BehaviourReport:
    kind: str  # "well" | "bad" | "plain"
    escape_function: Func | None = None
    escape_element: Element | None = None


@record(eq=False)
class IdealHandle:
    """A closed ideal as a membership oracle plus structural data.  Each kind
    answers ``member``, ``hull`` (the zero set in X), ``zeros`` (the zero set
    in X x T), ``behaviour`` and ``contains`` (whether a handle lies inside
    it); the defaults here answer the shapes no closed form covers."""

    system: object
    canonical = False  # one of the three canonical families Px, Qx, Pxl

    def member(self, a: Element, tol: float) -> bool:
        raise UnsupportedQueryError(
            "membership in a generated ideal is answered through its zero set"
        )

    def behaviour(self, tol: float) -> BehaviourReport:
        raise UnsupportedQueryError("behaviour classification not defined for this shape")

    def contains(self, I: IdealHandle, tol: float) -> bool:
        raise UnsupportedQueryError("containment is not decidable for this pair")

    def _inside_kernel(self, J: SetKernelIdeal, tol: float) -> bool:
        return J.system.subset(J.subset, self.hull(tol).subset)  # J's set lies in the hull

    def _beside_bad(self, J: PxLambdaIdeal, tol: float) -> BehaviourReport:
        """Behaviour of the meet of this ideal with the badly behaved J; only
        a Px part has a closed form."""
        return IdealHandle.behaviour(self, tol)

    def adjoint(self) -> IdealHandle:
        raise UnsupportedQueryError("adjoint comparison takes a generated ideal")

    def random_member(self, rng, radius: int, exact: bool) -> Element:
        """A random member with indices up to radius, drawn from rng."""
        raise UnsupportedQueryError("no member generator for this handle")


@record(eq=False)
class SetKernelIdeal(IdealHandle):
    """The elements whose coefficients all vanish on the invariant closed set
    ``subset``.  Px, Qx and K are such kernels; they differ only in how the
    set is named, which shows in their zero sets and hull notes."""

    subset: object

    def member(self, a: Element, tol: float) -> bool:
        return all(self.system.vanishes_on(f, self.subset, tol) for f in a.coeffs.values())

    def hull(self, tol: float) -> HullResult:
        return HullResult(self.subset, (self.hull_note,))

    def behaviour(self, tol: float) -> BehaviourReport:
        return BehaviourReport("well")

    def contains(self, I: IdealHandle, tol: float) -> bool:
        return I._inside_kernel(self, tol)

    def _inside_pxl(self, J: PxLambdaIdeal, tol: float) -> bool:
        return self.system.contains(self.subset, J.x)  # J's orbit lies in the set

    def random_member(self, rng, radius: int, exact: bool) -> Element:
        from .sampling import random_func_vanishing_on  # sampling imports this module
        coeffs = {}
        for n in range(-radius, radius + 1):
            if rng.random() < 0.6:
                coeffs[n] = random_func_vanishing_on(self.system, self.subset, rng, exact)
        if not coeffs:
            coeffs[0] = random_func_vanishing_on(self.system, self.subset, rng, exact)
        return Element(self.system, coeffs)


@record(eq=False)
class PxIdeal(SetKernelIdeal):
    """Kernel of the aperiodic-point representation: the set kernel of the
    orbit closure of ``x``."""

    x: Point
    canonical = True
    hull_note = "orbit closure of the base point"

    def __repr__(self):
        return f"Px({self.x!r})"

    def zeros(self, tol: float) -> TorusSubset:
        return TorusSubset(self.system, (TorusEntry(self.x, FullCircle(), use_closure=True),))

    def _beside_bad(self, J: PxLambdaIdeal, tol: float) -> BehaviourReport:
        if self.system.contains(self.subset, J.x):
            return BehaviourReport("well")  # the intersection collapses to Px
        f = self.system.separating_func(self.subset, J.x, sc.is_exact(J.lam))
        a = escape_element(f, J.lam, self.system.period(J.x))
        if not (self.member(a, tol) and J.member(a, tol)):
            raise AssertionError("plain-ideal witness failed the membership check")
        if J.member(from_func(f), tol):
            raise AssertionError("escape function unexpectedly inside the ideal")
        return BehaviourReport("plain", escape_function=f, escape_element=a)


@record(eq=False)
class PxLambdaIdeal(IdealHandle):
    """Kernel of the periodic-point representation with torus parameter."""

    x: Point
    lam: object
    canonical = True

    def __repr__(self):
        return f"Pxl({self.x!r}, {sc.render_scalar(self.lam)})"

    def member(self, a: Element, tol: float) -> bool:
        """The finite vanishing conditions cutting out the kernel: each
        residue sum along the orbit, weighted by powers of lam, is zero."""
        a, lam = unify_lam(a, self.lam)
        powers: dict = {}  # lam^l, each taken once
        for sums in residue_sums(a, self.x):
            total = None
            for l, v in sums.items():  # as in rep_periodic, an exact v skips "* QONE"
                w = powers[l] if l in powers else powers.setdefault(l, sc.unit_pow(lam, l))
                t = v if w is sc.QONE else w * v
                total = t if total is None else total + t
            if not sc.is_zero(total, tol):
                return False
        return True

    def random_member(self, rng, radius: int, exact: bool) -> Element:
        """b g c for the escape element g, plus a member of Qx half the time."""
        from .sampling import random_element, random_func
        exact = exact and sc.is_exact(self.lam)  # g's mode, as unify_lam gives it
        f = random_func(self.system, rng, exact)
        g = escape_element(f, self.lam, self.system.period(self.x))
        b = random_element(self.system, rng, 1, exact)
        c = random_element(self.system, rng, 1, exact)
        prod = alg_mul(alg_mul(b, g), c)
        if rng.random() < 0.5:
            prod = alg_add(prod, canonical_qx(self.system, self.x).random_member(rng, 1, exact))
        return prod

    def hull(self, tol: float) -> HullResult:
        return HullResult(self.system.empty_set(),
                          ("badly behaved: the zero-coefficient image is dense",))

    def zeros(self, tol: float) -> TorusSubset:
        roots = pth_roots(self.lam, self.system.period(self.x))
        return TorusSubset(self.system, (TorusEntry(self.x, FiniteRoots(tuple(roots))),))

    def behaviour(self, tol: float) -> BehaviourReport:
        f = self.system.const(sc.one_like(sc.is_exact(self.lam)))
        a = escape_element(f, self.lam, self.system.period(self.x))
        return BehaviourReport("bad", escape_function=f, escape_element=a)

    def contains(self, I: IdealHandle, tol: float) -> bool:
        return I._inside_pxl(self, tol)

    def _inside_pxl(self, J: PxLambdaIdeal, tol: float) -> bool:
        """One orbit and equal torus parameters: exactly equal when both are
        exact, else within 1e-12."""
        if not self.system.contains(self.system.orbit_closure(self.x), J.x):
            return False
        if sc.is_exact(self.lam) and sc.is_exact(J.lam):
            return self.lam == J.lam
        return abs(complex(self.lam) - complex(J.lam)) <= 1e-12


@record(eq=False)
class QxIdeal(SetKernelIdeal):
    """Intersection of the periodic-point kernels over all torus parameters:
    the set kernel of the orbit of ``x``."""

    x: Point
    canonical = True
    hull_note = "orbit of the base point"

    def __repr__(self):
        return f"Qx({self.x!r})"

    def zeros(self, tol: float) -> TorusSubset:
        return TorusSubset(self.system, (TorusEntry(self.x, FullCircle()),))


@record(eq=False)
class KernelIdeal(SetKernelIdeal):
    """All elements whose coefficients vanish on an invariant closed set."""

    hull_note = "kernel ideals recover their set"

    def __repr__(self):
        return f"K({self.subset!r})"

    def zeros(self, tol: float) -> TorusSubset:
        reps = self.system.cover_representatives(self.subset)
        return TorusSubset(self.system, tuple(
            TorusEntry(x, FullCircle(), use_closure=True) for x in reps
        ))


@record(eq=False)
class IntersectionIdeal(IdealHandle):
    """The meet of its parts, answering every question from theirs."""

    parts: tuple

    def __repr__(self):
        return "meet(" + ", ".join(repr(p) for p in self.parts) + ")"

    def member(self, a: Element, tol: float) -> bool:
        return all(p.member(a, tol) for p in self.parts)

    def hull(self, tol: float) -> HullResult:
        acc = self.system.empty_set()
        notes = []
        for p in self.parts:
            h = p.hull(tol)
            acc = self.system.union(acc, h.subset)
            notes.extend(h.provenance)
        return HullResult(acc, ("union over the intersection parts", *notes))

    def zeros(self, tol: float) -> TorusSubset:
        return TorusSubset(self.system, tuple(
            e for p in self.parts for e in p.zeros(tol).entries
        ))

    def behaviour(self, tol: float) -> BehaviourReport:
        """Well when every part is, and a single part's own answer otherwise;
        a Px part met with a Pxl part, in either order, is plain unless it
        collapses to the Px part."""
        reports = [p.behaviour(tol) for p in self.parts]
        kinds = [r.kind for r in reports]
        if all(k == "well" for k in kinds):
            return BehaviourReport("well")
        if len(reports) == 1:
            return reports[0]
        if sorted(kinds) == ["bad", "well"]:
            well, bad = self.parts if kinds[0] == "well" else self.parts[::-1]
            if bad.canonical:  # a Pxl handle, not a meet of one
                return well._beside_bad(bad, tol)
        return super().behaviour(tol)

    def contains(self, I: IdealHandle, tol: float) -> bool:
        return all(p.contains(I, tol) for p in self.parts)

    def _inside_pxl(self, J: PxLambdaIdeal, tol: float) -> bool:
        """J, a representation kernel, is prime: a meet lies in it iff a part does."""
        return any(p._inside_pxl(J, tol) for p in self.parts)

    def random_member(self, rng, radius: int, exact: bool) -> Element:
        if not self.parts:
            from .sampling import random_element
            return random_element(self.system, rng, radius, exact)
        draws = [p.random_member(rng, 1, exact) for p in self.parts]
        if any(d.coeffs and not d.exact for d in draws):  # a float part: the meet is float
            draws = [demote_to_float(d) for d in draws]
        return reduce(alg_mul, draws)


@record(eq=False)
class GeneratedIdeal(IdealHandle):
    """Two-sided closed ideal generated by finitely many elements."""

    gens: tuple

    def __repr__(self):
        return "gen(" + ", ".join(map(repr, self.gens)) + ")"

    def hull(self, tol: float) -> HullResult:
        funcs = [f for g in self.gens for f in g.coeffs.values()]
        acc = self.system.common_zeros(funcs, tol)
        return HullResult(self.system.largest_invariant_subset(acc),
                          (f"intersected {len(funcs)} coefficient zero sets",
                           "largest invariant subset taken"))

    def zeros(self, tol: float) -> TorusSubset:
        return generated_zero_set(self, tol)

    def _inside(self, J: IdealHandle, tol: float) -> bool:
        """J holds each generator: the generated closed ideal is the least that holds them."""
        return all(J.member(g, tol) for g in self.gens)

    _inside_kernel = _inside_pxl = _inside

    def adjoint(self) -> GeneratedIdeal:
        return GeneratedIdeal(self.system, tuple(alg_adj(g) for g in self.gens))


# ---------------------------------------------------------------------------
# Checked entry points


def canonical_px(system, x: Point) -> PxIdeal:
    validate_point(system, x)
    if system.period(x) is not None:
        raise UnsupportedQueryError("Px needs an aperiodic point")
    return PxIdeal(system, system.orbit_closure(x), x)


def canonical_px_lambda(system, x: Point, lam) -> PxLambdaIdeal:
    validate_point(system, x)
    if system.period(x) is None:
        raise UnsupportedQueryError("Pxl needs a periodic point")
    sc.check_unimodular(lam)
    return PxLambdaIdeal(system, x, lam)


def canonical_qx(system, x: Point) -> QxIdeal:
    validate_point(system, x)
    if system.period(x) is None:
        raise UnsupportedQueryError("Qx needs a periodic point")
    return QxIdeal(system, system.orbit_closure(x), x)


def orbit_kernel(system, x: Point) -> SetKernelIdeal:
    """The set kernel of the orbit closure of x: Qx if x is periodic, else Px."""
    return canonical_px(system, x) if system.period(x) is None else canonical_qx(system, x)


def kernel_ideal(system, S) -> KernelIdeal:
    if not is_invariant_closed(system, S):
        raise UnsupportedQueryError("kernel ideals need an invariant closed set")
    return KernelIdeal(system, S)


def intersection_ideal(system, parts) -> IntersectionIdeal:
    parts = tuple(parts)
    for p in parts:
        if p.system != system:
            raise SystemMismatchError("intersection parts on different systems")
    return IntersectionIdeal(system, parts)


def generated_ideal(system, gens) -> GeneratedIdeal:
    gens = tuple(gens)
    for g in gens:
        if g.system != system:
            raise SystemMismatchError("generator on the wrong system")
    return GeneratedIdeal(system, gens)


def read_ideal(s, system, exact: bool) -> IdealHandle:
    """An ideal literal from the token stream s, as the handles' reprs write
    it: Px(point), Pxl(point, scalar), Qx(point), K(set), meet(ideal, ...)
    or meet(), gen(expr, ...)."""
    t = s.expect_name("Px", "Pxl", "Qx", "K", "meet", "gen")
    s.expect("(")
    if t.text in ("Px", "Qx"):
        x = s.point(system)
        s.expect(")")
        return (canonical_px if t.text == "Px" else canonical_qx)(system, x)
    if t.text == "Pxl":
        x = s.point(system)
        s.expect(",")
        # a decimal parameter reads as a float in either mode, as zi prints it
        scalar = takewhile(lambda u: u.kind not in (")", "end"), s.toks[s.pos:])
        lam = s.scalar(exact and all(u.kind != "num" or u.text.isdigit() for u in scalar))
        s.expect(")")
        return canonical_px_lambda(system, x, lam)
    if t.text == "K":
        S = s.set(system)
        s.expect(")")
        return kernel_ideal(system, S)
    if t.text == "meet":  # meet() is the meet of no ideals: the whole algebra
        parts = [] if s.peek().kind == ")" else [read_ideal(s, system, exact)]
        while s.accept(","):
            parts.append(read_ideal(s, system, exact))
        s.expect(")")
        return intersection_ideal(system, parts)
    gens = [s.expr(system, exact)]
    while s.accept(","):
        gens.append(s.expr(system, exact))
    s.expect(")")
    return generated_ideal(system, gens)


def ideal_member(I: IdealHandle, a: Element, tol: float = DEFAULT_TOL) -> bool:
    """Exact membership oracle for every handle except generated ideals."""
    if a.system != I.system:
        raise SystemMismatchError("element on the wrong system")
    return I.member(a, tol)


def escape_element(f: Func, lam, p: int) -> Element:
    """f - (f / lam) delta^p; lies in the lam-kernel at any point of period p
    while its zero coefficient is f itself, in the mode unify_lam gives."""
    a, lam = unify_lam(from_func(f), lam)
    f = a.coeff(0)
    return element(f.system, {0: f, p: f.system.scale(-sc.conj(lam), f)})


def ideal_behaviour(I: IdealHandle, tol: float = DEFAULT_TOL) -> BehaviourReport:
    """Classify a handle as well behaved, badly behaved or plain.

    For the plain case the report carries explicit witnesses: a function in
    the image of the zero-coefficient projection that is not itself a member.
    """
    return I.behaviour(tol)


def ideal_inclusion(I: IdealHandle, J: IdealHandle) -> bool:
    """Containment of canonical handles, decided purely from orbit data."""
    if J.system != I.system:
        raise SystemMismatchError("handles on different systems")
    if not (I.canonical and J.canonical):
        raise UnsupportedQueryError("inclusion table covers canonical handles only")
    return J.contains(I, DEFAULT_TOL)


# ---------------------------------------------------------------------------
# Separation


@record(eq=False)
class SeparationWitness:
    point: Point
    coeff_index: int
    value: object
    rep_kind: str  # "aperiodic" | "periodic"
    lam: object | None = None


def separating_check(system, a: Element, tol: float = DEFAULT_TOL):
    """Find a canonical representation with nonzero image, or None for zero.

    Uses the fact that evaluating some coefficient at some point is nonzero
    exactly when the element is nonzero, and that the standard family of
    representations detects this.
    """
    found = None
    for n, f in sorted(a.coeffs.items()):
        x = a.system.point_where_nonzero(f, tol)
        if x is not None:
            found = (n, x, a.system.eval(f, x))
            break
    if found is None:
        return None
    n, x, val = found
    validate_point(system, x)  # a point of a's system: is it one of system's?
    if system.period(x) is not None:
        for lam in sc.roots_of_unity(2 * a.support_radius() + 1):
            if not rep_is_zero(rep_periodic(system, x, lam, a), tol):
                return SeparationWitness(x, n, val, "periodic", lam)
        raise AssertionError("no separating torus parameter found")
    return SeparationWitness(x, n, val, "aperiodic")


# ---------------------------------------------------------------------------
# Quotients by well behaved closed ideals


@record(eq=False)
class Restriction:
    """Restriction of a system to an invariant closed subset, with maps for
    points, functions and elements.  Realises the quotient by the kernel
    ideal of the subset."""

    system: object
    subset: object
    subsystem: object
    _point_map: object  # callable Point -> Point
    _func_map: object   # callable Func -> Func

    def restrict_point(self, x: Point) -> Point:
        return self._point_map(x)

    def restrict_func(self, f: Func) -> Func:
        return self._func_map(f)

    def restrict_element(self, a: Element) -> Element:
        return Element(self.subsystem, {n: self._func_map(f) for n, f in a.coeffs.items()})


def restrict_system(system, S) -> Restriction:
    if not is_invariant_closed(system, S):
        raise UnsupportedQueryError("restriction needs an invariant closed set")
    if S.is_empty():
        raise UnsupportedQueryError("cannot restrict to the empty set")
    sub, pmap, fmap = system.restriction(S)
    return Restriction(system, S, sub, pmap, fmap)

