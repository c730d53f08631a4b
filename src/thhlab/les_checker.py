"""Degreewise exactness for long exact sequences given on monomial bases.

A sequence ... -> A_n -> B_n -> C_{n-1} -> A_{n-1} -> ... is specified by
three graded algebras and three maps: rho (an algebra map, extended
multiplicatively from generator images), and boundary/tau (given directly on
basis monomials).  C is stored unshifted; the boundary consumes it with a
degree drop of one.  Exactness is verified per degree both as dimension
identities (ranks from fp_linalg.map_rank) and as subspace equalities
(composites that vanish, by sparse composition), and boundary/tau are
checked to be module maps over A through a declared coefficient action."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Optional

from .fp_linalg import map_rank
from .graded_algebra import (
    DegreeMismatch,
    GradedError,
    Mono,
    TermDict,
    algebra_map,
    exterior,
    make_algebra,
    polynomial,
    truncated,
)
from .presentation import make_theta

JOINT_TAU_RHO = "im(tau) = ker(rho)"
JOINT_RHO_BOUNDARY = "im(rho) = ker(boundary)"
JOINT_BOUNDARY_TAU = "im(boundary) = ker(tau)"
JOINT_ALTERNATING = "alternating dimension identity"


class InexactAt(GradedError):
    def __init__(self, degree: int, joint: str, detail: str = "") -> None:
        self.degree = degree
        self.joint = joint
        msg = f"not exact in degree {degree} at {joint}"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


@dataclass(eq=False)
class LongExactSpec:
    """A, B, C may be algebra specs, presentations, or None for the zero
    module.  rho maps A-generator names to B-elements; boundary and tau act on
    single basis monomials and return element data (dict, pairs, or empty).
    coefficient_action gives the algebra map A -> C that induces the A-module
    structure used for the module-map checks."""

    A: object
    B: object
    C: object
    rho: Mapping[str, object]
    boundary: Callable[[Mono], object]
    tau: Callable[[Mono], object]
    coefficient_action: Optional[Mapping[str, object]] = None


@dataclass(frozen=True)
class ExactnessReport:
    cap: int
    # (n, dim A_n, dim B_n, dim C_{n-1}, rank rho_n, rank boundary_n, rank tau_n)
    rows: tuple[tuple[int, int, int, int, int, int, int], ...]
    boundary_pairs: int
    tau_pairs: int

    def max_degree(self) -> int:
        return max((r[0] for r in self.rows), default=-1)


class _Graded:
    """Uniform view of an algebra spec, a presentation, or the zero module."""

    def __init__(self, obj, cap: int) -> None:
        self.obj = obj
        self.spec = None if obj is None else getattr(obj, "algebra", obj)
        self.table = {} if obj is None else obj.basis_by_degree(cap)
        self.index = {n: {m: i for i, m in enumerate(ms)} for n, ms in self.table.items()}

    def at(self, n: int) -> list:
        return self.table.get(n, [])

    def dim(self, n: int) -> int:
        return len(self.at(n))

    def normalize(self, data) -> TermDict:
        if self.spec is None:
            if data:
                raise DegreeMismatch("nonzero image in the zero module")
            return {}
        d = self.spec.dict_from_input(data)
        if hasattr(self.obj, "normal_form_dict"):
            d = self.obj.normal_form_dict(d)
        return d


def _require_algebra_map(source, target: _Graded, images, what: str) -> Callable[[Mono], TermDict]:
    """The multiplicative extension of images; ValueError if a relation fails."""
    image_of_mono, results = algebra_map(source, target.spec, images)
    bad = "; ".join(desc for desc, ok in results if not ok)
    if bad:
        raise ValueError(f"{what} is not an algebra map: {bad}")
    return image_of_mono


def _checked(fn: Callable[[Mono], object], src: _Graded, dst: _Graded, drop: int,
             name: str) -> Callable[[Mono], TermDict]:
    """fn normalized into dst, each image degree-checked against its monomial's
    degree minus drop and memoised per monomial.  An image is cached only once
    its degree check has passed, so a bad image raises DegreeMismatch on every
    call.  Callers only read the returned dicts."""
    memo: dict[Mono, TermDict] = {}

    def image(mono: Mono) -> TermDict:
        d = memo.get(mono)
        if d is not None:
            return d
        d = dst.normalize(fn(mono))
        want = src.spec.dict_total_degree({mono: 1}) - drop
        got = dst.spec.dict_total_degree(d) if d and dst.spec else None
        if d and got != want:
            raise DegreeMismatch(f"{name} image of degree {want + drop} monomial has degree {got}")
        memo[mono] = d
        return d
    return image


def check_les(spec: LongExactSpec, cap: int) -> ExactnessReport:
    """Verify exactness in every degree <= cap, raising InexactAt on the first
    failure (lowest degree, joints in sequence order).  Also checks that rho
    and the coefficient action are algebra maps and that boundary and tau are
    module maps over A, exhaustively on generator-times-basis pairs."""
    A = _Graded(spec.A, cap)
    B = _Graded(spec.B, cap)
    C = _Graded(spec.C, cap)
    sides = [s for s in (A, B, C) if s.spec is not None]
    if not sides:
        return ExactnessReport(cap, (), 0, 0)
    field = sides[0].spec.field
    for s in sides:
        if s.spec.field != field:
            raise ValueError("the three terms live over different fields")

    rho_of: Callable[[Mono], TermDict] = lambda mono: {}
    if A.spec is not None and B.spec is not None:
        rho_of = _require_algebra_map(spec.A, B, spec.rho, "rho")
    if spec.coefficient_action is not None and A.spec is not None and C.spec is not None:
        _require_algebra_map(spec.A, C, spec.coefficient_action, "the coefficient action")

    bdy_img = _checked(spec.boundary, B, C, 1, "boundary") if B.spec is not None else None
    tau_img = _checked(spec.tau, C, A, 0, "tau") if C.spec is not None else None

    linear = sides[0].spec.linear  # reads only the field, which all sides share
    rows = []
    alternating = 0
    r_next = map_rank(field, B.at(0), {}, bdy_img)
    for n in range(cap + 1):
        r_rho = map_rank(field, A.at(n), B.index.get(n, {}), rho_of)
        r_tau = map_rank(field, C.at(n), A.index.get(n, {}), tau_img)
        r_bdy, r_next = r_next, map_rank(field, B.at(n + 1), C.index.get(n, {}), bdy_img)
        a_n, b_n, c_prev = A.dim(n), B.dim(n), C.dim(n - 1)

        # dimension identities first; given them, ker = im holds exactly when
        # im lies in ker, that is when the composite vanishes, term by term
        if a_n - r_rho != r_tau:
            raise InexactAt(n, JOINT_TAU_RHO, f"ker rho has dim {a_n - r_rho}, im tau {r_tau}")
        if b_n - r_bdy != r_rho:
            raise InexactAt(n, JOINT_RHO_BOUNDARY, f"ker boundary has dim {b_n - r_bdy}, im rho {r_rho}")
        alternating = (a_n - b_n + c_prev) - alternating
        if alternating != r_tau:
            raise InexactAt(n, JOINT_ALTERNATING,
                            f"running alternating sum {alternating}, rank tau {r_tau}")
        if any(linear(rho_of, tau_img(c)) for c in C.at(n)):
            raise InexactAt(n, JOINT_TAU_RHO, "subspaces differ")
        if any(linear(bdy_img, rho_of(a)) for a in A.at(n)):
            raise InexactAt(n, JOINT_RHO_BOUNDARY, "subspaces differ")
        if n < cap and C.dim(n) - r_tau != r_next:  # the cap cuts off B.at(cap + 1)
            raise InexactAt(n, JOINT_BOUNDARY_TAU,
                            f"ker tau has dim {C.dim(n) - r_tau}, im boundary {r_next}")
        if any(linear(tau_img, bdy_img(b)) for b in B.at(n + 1)):
            raise InexactAt(n, JOINT_BOUNDARY_TAU, "subspaces differ")
        rows.append((n, a_n, b_n, c_prev, r_rho, r_bdy, r_tau))

    boundary_pairs = tau_pairs = 0
    if spec.coefficient_action is not None and all(s.spec is not None for s in (A, B, C)):
        nu_imgs = {g.name: C.normalize(spec.coefficient_action[g.name])
                   for g in A.spec.generators}
        for i, g in enumerate(A.spec.generators):
            g_mono = tuple(1 if j == i else 0 for j in range(len(A.spec.generators)))
            g_deg = g.total_degree
            rho_g, nu_g = rho_of(g_mono), nu_imgs[g.name]
            for n, monos in B.table.items():
                if n + g_deg > cap:
                    continue
                for b in monos:
                    lhs = C.spec.linear(bdy_img, B.spec.mul_dicts(rho_g, {b: 1}))
                    rhs = C.spec.mul_dicts(nu_g, bdy_img(b))
                    if lhs != rhs:
                        raise InexactAt(n + g_deg, "boundary module structure",
                                        f"over {g.name} at {B.spec.format_mono(b)}")
                    boundary_pairs += 1
            for n, monos in C.table.items():
                if n + g_deg > cap:
                    continue
                for cmono in monos:
                    lhs = A.spec.linear(tau_img, C.spec.mul_dicts(nu_g, {cmono: 1}))
                    rhs = A.normalize(A.spec.mul_dicts({g_mono: 1}, tau_img(cmono)))
                    if lhs != rhs:
                        raise InexactAt(n + g_deg, "tau module structure",
                                        f"over {g.name} at {C.spec.format_mono(cmono)}")
                    tau_pairs += 1

    return ExactnessReport(cap, tuple(rows), boundary_pairs, tau_pairs)


# -- the catalogued algebras, shared with the scenarios -------------------------------


def _core(p: int):
    """E(l1, l2) ox P(m2): the tower's coefficients and the source of ell_sequence."""
    return make_algebra(
        p,
        [exterior("l1", 2 * p - 1), exterior("l2", 2 * p * p - 1),
         polynomial("m2", 2 * p * p)],
    )


def _tower_answer(p: int):
    """E(e1, l1) ox P(m1): the tower's abutment and the target of both boundaries."""
    return make_algebra(
        p, [exterior("e1", 2 * p - 1), exterior("l1", 2 * p - 1), polynomial("m1", 2 * p)]
    )


def _log_answer(p: int):
    """E(l1, dlogv) ox P(k1): the log theory, the middle of ell_sequence."""
    return make_algebra(
        p,
        [exterior("l1", 2 * p - 1), exterior("dlogv", 1), polynomial("k1", 2 * p)],
    )


def _ku_answer(p: int):
    """P_{p-1}(u) ox E(l1, dlogu) ox P(k1): the middle of ku_sequence."""
    return make_algebra(
        p,
        [truncated("u", 2, p - 1), exterior("l1", 2 * p - 1),
         exterior("dlogu", 1), polynomial("k1", 2 * p)],
    )


# -- the two concrete sequences ------------------------------------------------------


def _boundary_formula(C, p: int, ambiguity: int):
    """Common core: the exterior degree-1 class maps a tower power k to m1^k;
    a bare tower power with k prime to p drops to e1 m1^{k-1}, determined only
    up to an l1 m1^{k-1} summand (the ambiguity coefficient)."""

    def base(dlog: int, k: int) -> TermDict:
        if dlog:
            return {C.mono_from_names({"m1": k}): 1}
        if k and k % p:
            out = {C.mono_from_names({"e1": 1, "m1": k - 1}): 1}
            if ambiguity:
                out[C.mono_from_names({"l1": 1, "m1": k - 1})] = ambiguity
            return out
        return {}

    return base


def ell_sequence(p: int, ambiguity: int = 0) -> LongExactSpec:
    """The sequence relating E(l1,l2) ox P(m2), the log theory
    E(l1,dlogv) ox P(k1), and (shifted) E(e1,l1) ox P(m1)."""
    A, B, C = _core(p), _log_answer(p), _tower_answer(p)
    rho = {"l1": [(1, {"l1": 1})], "l2": [], "m2": [(1, {"k1": p})]}
    nu = {"l1": [(1, {"l1": 1})], "l2": [], "m2": [(1, {"m1": p})]}
    base = _boundary_formula(C, p, ambiguity)

    def boundary(mono: Mono) -> TermDict:
        e, dlog, k = mono
        return C.mul_dicts({C.mono_from_names({"l1": e}): 1}, base(dlog, k))

    def tau(mono: Mono) -> TermDict:
        eps, f, m = mono
        if not eps or m % p != p - 1:
            return {}
        # module linearity over the odd generator l1 fixes the sign
        target = A.mono_from_names({"l1": f, "l2": 1, "m2": m // p})
        return {target: -1 if f % 2 else 1}

    return LongExactSpec(A, B, C, rho, boundary, tau, coefficient_action=nu)


def ku_sequence(p: int, ambiguity: int = 0) -> LongExactSpec:
    """The truncated-u analogue: the source is E(l1) tensored with the
    finitely presented algebra of make_theta, the middle is
    P_{p-1}(u) ox E(l1,dlogu) ox P(k1), and the boundary factors through the
    u-free part."""
    A = make_theta(p, extra_generators=(exterior("l1", 2 * p - 1),))
    B, C = _ku_answer(p), _tower_answer(p)
    rho: dict[str, object] = {
        "l1": [(1, {"l1": 1})],
        "u": [(1, {"u": 1})],
        "m2": [(1, {"k1": p})],
    }
    nu: dict[str, object] = {"l1": [(1, {"l1": 1})], "u": [], "m2": [(1, {"m1": p})]}
    for i in range(p):
        rho[f"a{i}"] = [(1, {"u": 1, "dlogu": 1, "k1": i})]
        nu[f"a{i}"] = []
    for j in range(1, p):
        rho[f"b{j}"] = [(1, {"u": 1, "k1": j})]
        nu[f"b{j}"] = []
    base = _boundary_formula(C, p, ambiguity)
    aspec = A.algebra
    top = {"u": p - 2, f"a{p - 1}": 1}

    def boundary(mono: Mono) -> TermDict:
        u_exp, e, dlog, k = mono
        if u_exp:
            return {}
        return C.mul_dicts({C.mono_from_names({"l1": e}): 1}, base(dlog, k))

    def tau(mono: Mono) -> TermDict:
        eps, f, m = mono
        if not eps or m % p != p - 1:
            return {}
        target = aspec.mono_from_names({"l1": f, "m2": m // p, **top})
        return {target: -1 if f % 2 else 1}

    return LongExactSpec(A, B, C, rho, boundary, tau, coefficient_action=nu)
