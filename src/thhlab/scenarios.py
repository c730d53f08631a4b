"""Named end-to-end computations wired into pass/fail reports.

Each scenario reruns one of the catalogued computations at a chosen odd prime
and degree cap: build the relevant page or sequence, run the declared
differentials or maps, and compare against the expected answer.  Expected
values carry a source tag: "literature" for stated answers, "identity" for
bookkeeping that must hold by construction, "computed" for values the engine
derives independently (oracle crosschecks, rank tables)."""

from __future__ import annotations

import dataclasses
import json
import warnings
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .fp_linalg import PrimeField
from .graded_algebra import (
    CoefficientFactor,
    algebra_map,
    check_morphism,
    dims_add,
    dims_convolve,
    dims_shift,
    exterior,
    hilbert,
    make_algebra,
    polynomial,
    tensor,
    truncated,
)
from .les_checker import (
    InexactAt,
    _core,
    _ku_answer,
    _log_answer,
    _tower_answer,
    check_les_family,
    ell_sequence,
    ku_sequence,
)
from .presentation import (
    DerivationSpec,
    check_derivation,
    leibniz_extension,
    make_theta,
)
from .spectral_sequence import (
    AbutmentSpec,
    DifferentialRule,
    DimMismatch,
    ExtensionDegreeError,
    ExtensionRule,
    Page,
    RuleFamily,
    compare_abutment,
    possible_differentials,
    run_differential,
    verify_rule_family,
)
from .tor_engine import ModuleSpec, fp_module, tor_closed_form, tor_exterior_module, tor_oracle

SOURCE_LITERATURE = "literature"
SOURCE_IDENTITY = "identity"
SOURCE_COMPUTED = "computed"

STATUS_PASS = "pass"
STATUS_FAIL = "fail"
STATUS_CONDITIONAL = "conditional"


class UnknownScenario(ValueError):
    pass


class CapTooSmall(UserWarning):
    pass


@dataclass(frozen=True)
class DegreeLine:
    n: int
    expected: int
    actual: int


@dataclass
class Check:
    name: str
    status: str
    degrees: tuple[DegreeLine, ...] = ()
    witnesses: dict = field(default_factory=dict)


@dataclass
class Report:
    scenario: str
    prime: int
    cap: int
    checks: list[Check]

    @property
    def ok(self) -> bool:
        return all(c.status != STATUS_FAIL for c in self.checks)


@dataclass(frozen=True)
class Scenario:
    """A named computation: builder(prime, cap) produces the check list."""

    name: str
    description: str
    builder: Callable[[int, int], list[Check]]


def _check(name, ok, source, *, degrees=(), conditional=False, **witnesses) -> Check:
    if not ok:
        status = STATUS_FAIL
    elif conditional:
        status = STATUS_CONDITIONAL
    else:
        status = STATUS_PASS
    return Check(name, status, tuple(degrees), {"source": source, **witnesses})


def _total_diff(expected: Sequence[int], actual: Sequence[int], cap: int, limit: int = 12):
    lines = []
    for n in range(cap + 1):
        e = expected[n] if n < len(expected) else 0
        a = actual[n] if n < len(actual) else 0
        if e != a:
            lines.append(DegreeLine(n, e, a))
            if len(lines) == limit:
                break
    return tuple(lines)


def _bidegree_compare(want: dict, got: dict, cap: int):
    """ok flag, witnesses, and total-degree mismatch lines for two dim tables."""
    want = {bd: d for bd, d in want.items() if d}
    got = {bd: d for bd, d in got.items() if d}
    if want == got:
        return True, {"lanes": len(got)}, ()
    bad = sorted(
        (bd for bd in set(want) | set(got) if want.get(bd, 0) != got.get(bd, 0)),
        key=lambda bd: (sum(bd), bd),
    )
    first = bad[0]
    w = {
        "lanes": len(got),
        "mismatched_lanes": len(bad),
        "first_mismatch": f"(s,t)={first} expected {want.get(first, 0)} actual {got.get(first, 0)}",
    }
    def totals(table):
        out = [0] * (cap + 1)
        for (s, t), d in table.items():
            if s + t <= cap:
                out[s + t] += d
        return out
    return False, w, _total_diff(totals(want), totals(got), cap)


def _abutment_check(name, out, abut, extensions, cap, *, conditional=False,
                    representative=None, **extra) -> Check:
    """Full abutment comparison, degrading to a totals-only conditional check
    when the window cannot hold every abutment generator."""
    reach = max((g.degree for g in abut.target.generators), default=0)
    if cap < reach:
        want = hilbert(abut.target, cap)
        have = list(out.total_dims(cap)[: cap + 1])
        return _check(name, have == want, SOURCE_LITERATURE, conditional=True,
                      degrees=_total_diff(want, have, cap), **extra)
    try:
        rep = compare_abutment(out, abut, extensions, cap,
                               representative=representative)
    except (DimMismatch, ExtensionDegreeError) as exc:
        lines = _total_diff(hilbert(abut.target, cap), out.total_dims(cap), cap)
        return _check(name, False, SOURCE_LITERATURE, degrees=lines,
                      detail=str(exc), **extra)
    return _check(name, True, SOURCE_LITERATURE, conditional=conditional,
                  extension_drops=[list(d) for d in rep.extension_drops], **extra)


# -- shared spec builders ------------------------------------------------------------


def _tower_base(p: int):
    """The tower's base P(v) ox E(dv) and the core as a module over it."""
    base = make_algebra(p, [polynomial("v", 2 * p - 2), exterior("dv", 2 * p - 1)])
    return base, ModuleSpec(base, trivial_action_coefficients=_core(p))


def _tower_rules(p: int, cap: int):
    rules = []
    k = p
    while 2 * p * k <= cap + 1:
        rules.append(
            DifferentialRule(page=p, source={"[dv]": k},
                             target=[(1, {"l2": 1, "[dv]": k - p})])
        )
        k *= p
    return rules


# -- scenario: the integral-base tower -----------------------------------------------


def _thhz(p: int, cap: int) -> list[Check]:
    checks = []
    base, left = _tower_base(p)
    page = tor_closed_form(base, left, fp_module(base), cap)
    oracle = tor_oracle(base, left, fp_module(base), cap)
    want = {bd: d for bd, d in oracle.items() if sum(bd) <= cap}
    got = dict(page.bigraded_dims(cap))
    ok, wit, lines = _bidegree_compare(want, got, cap)
    checks.append(_check("e2-closed-form-vs-oracle", ok, SOURCE_COMPUTED,
                         degrees=lines, **wit))

    rules = _tower_rules(p, cap)
    ks = list(range(1, cap // (2 * p) + 1))
    vacuous = not rules
    if ks and rules:
        fam = RuleFamily(gamma_gen="[dv]", step=p, ks=ks, cofactor=[(1, {"l2": 1})])
        scalars = verify_rule_family(page, rules, fam).scalar_map()
        expected = {k: (0 if k < p else 1) for k in ks}
        checks.append(_check(
            "d-family-scalars", scalars == expected, SOURCE_LITERATURE,
            scalars=[[k, scalars[k]] for k in ks],
        ))
    else:
        checks.append(_check("d-family-scalars", True, SOURCE_LITERATURE,
                             conditional=True, scalars=[]))

    out = run_differential(page, rules)
    abut = AbutmentSpec(_tower_answer(p), {"e1": 1, "l1": 0, "m1": 1})
    ext = [ExtensionRule({"m2": 1}, [(1, {"m1": p})])] if 2 * p * p <= cap else []
    checks.append(_abutment_check("einfty-vs-abutment", out, abut, ext, cap,
                                  conditional=vacuous))

    lanes = possible_differentials(out, out.page_index + p)
    checks.append(_check("stability-window", not lanes, SOURCE_LITERATURE,
                         conditional=vacuous, candidate_lanes=len(lanes)))
    return checks


# -- scenario: the log page and its comparison chain ---------------------------------


def _thh_ell_log(p: int, cap: int) -> list[Check]:
    checks = []
    dlogv = make_algebra(p, [exterior("dlogv", 1)])
    base_edv = make_algebra(p, [exterior("dv", 2 * p - 1)])
    left_page = tor_closed_form(
        base_edv,
        ModuleSpec(base_edv, trivial_action_coefficients=_core(p)),
        ModuleSpec(base_edv, trivial_action_coefficients=dlogv),
        cap,
    )
    base_full = make_algebra(
        p,
        [polynomial("v", 2 * p - 2), exterior("dv", 2 * p - 1)],
        coefficients=(CoefficientFactor("C", "symbolic"),),
    )
    middle_page = tor_closed_form(
        base_full,
        ModuleSpec(base_full, trivial_action_coefficients=_core(p)),
        ModuleSpec(base_full, trivial_action_coefficients=dlogv, free_factors=("C",)),
        cap,
    )
    base_plain, left_plain = _tower_base(p)
    right_page = tor_closed_form(base_plain, left_plain, fp_module(base_plain), cap)
    names = [g.name for g in middle_page.spec.generators]
    checks.append(_check(
        "middle-term-cancellation", names == ["l1", "l2", "m2", "dlogv", "[v]", "[dv]"],
        SOURCE_COMPUTED, generators=names,
    ))

    def inject(src_page, name):
        images = {g.name: [(1, {g.name: 1})] for g in src_page.spec.generators}
        rep = check_morphism(src_page.spec, middle_page.spec, images, cap)
        checks.append(_check(name, rep.relations_ok and rep.injective,
                             SOURCE_COMPUTED, degrees_checked=len(rep.degrees)))

    inject(left_page, "left-injects-middle")
    inject(right_page, "right-injects-middle")

    rules = _tower_rules(p, cap)
    out = run_differential(left_page, rules)
    abut = AbutmentSpec(_log_answer(p), {"l1": 0, "dlogv": 0, "k1": 1})
    ext = [ExtensionRule({"m2": 1}, [(1, {"k1": p})])] if 2 * p * p <= cap else []
    checks.append(_abutment_check("log-einfty-vs-abutment", out, abut, ext, cap,
                                  conditional=not rules))
    return checks


# -- scenario: base change to the truncated-u answer ---------------------------------


def _thh_ku_basechange(p: int, cap: int) -> list[Check]:
    checks = []
    answer, log = _ku_answer(p), _log_answer(p)
    truncated_u = make_algebra(p, [truncated("u", 2, p - 1)])
    convolved = dims_convolve(hilbert(truncated_u, cap), hilbert(log, cap), cap)
    direct = hilbert(answer, cap)
    # the etale statement itself: P_{p-1}(u) ox (log answer) -> (ku answer)
    # is an isomorphism in every degree up to the cap
    base_change = check_morphism(tensor(truncated_u, log), answer, _basechange_images(p), cap)
    checks.append(_check(
        "dimension-convolution",
        direct == convolved and base_change.iso,
        SOURCE_LITERATURE, degrees=_total_diff(convolved, direct, cap),
    ))
    images = _dlog_sign_images(p)
    rep = check_morphism(log, answer, images, cap)
    # the sign is the one that carries sigma(k1) = k1 dlogv to sigma(k1) = -k1 dlogu
    compatible = _commutes_with_sigma(log, answer, images, DerivationSpec(_LOG_SIGMA_IMAGES),
                                      DerivationSpec(_relative_sigma_images(p)))
    checks.append(_check(
        "dlog-sign-morphism", rep.relations_ok and rep.injective and compatible,
        SOURCE_LITERATURE, image_of_dlogv="-dlogu", degrees_checked=len(rep.degrees),
    ))
    return checks


def _basechange_images(p: int) -> dict:
    """The etale base change P_{p-1}(u) ox (log answer) -> (ku answer):
    u -> u and the log answer by _dlog_sign_images."""
    return {"u": [(1, {"u": 1})], **_dlog_sign_images(p)}


def _dlog_sign_images(p: int) -> dict:
    """The base change of the log answer into the ku answer: dlogv -> -dlogu."""
    return {"l1": [(1, {"l1": 1})], "dlogv": [(p - 1, {"dlogu": 1})], "k1": [(1, {"k1": 1})]}


def _commutes_with_sigma(source, target, images: dict, source_d: DerivationSpec,
                         target_d: DerivationSpec) -> bool:
    """f(sigma g) = sigma(f g) on every generator g of source, f the
    multiplicative extension of images and sigma each side's derivation."""
    f, _ = algebra_map(source, target, images)
    sigma_source = leibniz_extension(source, source_d)
    sigma_target = leibniz_extension(target, target_d)
    return all(
        target.linear(f, sigma_source({g: 1})) == sigma_target(f(g))
        for g in (source.mono_from_names({gen.name: 1}) for gen in source.generators)
    )


# -- scenario: the relative page over one exterior class -----------------------------


def _ub_name(i: int, j: int) -> str:
    """Display name for the module generator u^i * b_j, with b_0 = u."""
    if j == 0:
        k = i + 1
        return "u" if k == 1 else f"u^{k}"
    head = "" if i == 0 else ("u*" if i == 1 else f"u^{i}*")
    return f"{head}b{j}"


def _sec8_summands(p: int, alternative: bool):
    free = [(0, "1", "free")]
    for i in range(p - 3):
        for j in range(p):
            free.append((2 * i + 2 * p * j + 2, _ub_name(i, j), "free"))
    towers = [(2 * p * j - 4, _ub_name(p - 3, j - 1), "trivial") for j in range(1, p)]
    towers += [(2 * p * j + 3, f"a{j}", "trivial") for j in range(1, p)]
    if alternative:
        towers += [(2 * p * p - 4, "z", "trivial"), (2 * p * p - 1, "l2", "trivial")]
    else:
        free.append((2 * p * p - 4, "z", "free"))
    return tuple(free + towers)


def _sec8_coefficients(p: int):
    """E(l1, dlogu) ox P(m2), carried along by the relative page."""
    return make_algebra(
        p,
        [exterior("l1", 2 * p - 1), exterior("dlogu", 1), polynomial("m2", 2 * p * p)],
    )


def _sec8_page(p: int, cap: int, alternative: bool = False):
    du = exterior("du", 3)
    base = make_algebra(p, [du])
    module = ModuleSpec(base, summands=_sec8_summands(p, alternative))
    return base, module, tor_exterior_module(du, module, _sec8_coefficients(p), cap)


def _sec8_rules(page: Page, p: int, window: Optional[int] = None) -> list[RuleFamily]:
    """d2(gamma_k {u^(p-3) b_(j-1)}) = gamma_(k-2) {a_j}, one family per j,
    over the k from 2 whose source fits the page, and lies below window if
    one is given."""
    families = []
    top = page.work_cap if window is None else min(page.work_cap, window - 1)
    for j in range(1, p):
        ks = range(2, (top - (2 * p * j - 4)) // 4 + 1)
        if ks:
            families.append(RuleFamily("[du]", 2, ks, source_label=_ub_name(p - 3, j - 1),
                                        target_label=f"a{j}", page=2))
    return families


def _bj_label(p: int, j: int) -> str:
    return "z" if (p - 3, p - 1) == (0, j) else _ub_name(0, j)


def _sec8_representative(page: Page, p: int):
    spec = page.spec

    def rep(mono):
        a, e, f, big_k = mono  # abutment letters: u, l1, dlogu, k1
        q, j = divmod(big_k, p)
        powers = {"l1": e, "dlogu": f, "m2": q}
        if j == 0:
            if a == 0:
                label = "1"
            elif a <= p - 3:
                label = _ub_name(a - 1, 0)
            else:
                label = _ub_name(p - 3, 0)  # u^{p-2} rides gamma_0 of its tower
        elif a == 0:
            powers["[du]"] = 1  # gamma_1 represents k1^j
            label = _ub_name(p - 3, j - 1)
        else:
            i = a - 1
            if i < p - 3:
                label = _ub_name(i, j)
            elif j == p - 1:
                label = "z"
            else:
                label = _ub_name(p - 3, j)
        return (spec.mono_from_names(powers), page.label_index(label))

    return rep


def _thh_ku_ss(p: int, cap: int) -> list[Check]:
    # the main page and its turn are released before the alternative is built
    return _sec8_main_checks(p, cap) + [_sec8_alternative_check(p, cap)]


def _sec8_main_checks(p: int, cap: int) -> list[Check]:
    """The relative page: its E2 dims, the oracle cross-check, and d2 up to E-infinity."""
    checks = []
    base, module, page = _sec8_page(p, cap)
    coeff_dims = hilbert(_sec8_coefficients(p), cap)
    free = [0] * (cap + 1)
    towers = [0] * (cap + 1)
    for shift, _, action in module.summands:
        if action == "free":
            if shift <= cap:
                free[shift] += 1
        else:
            k = 0
            while 4 * k + shift <= cap:
                towers[4 * k + shift] += 1
                k += 1
    expected = dims_convolve(coeff_dims, dims_add(free, towers, cap), cap)
    actual = page.total_dims(cap)
    checks.append(_check(
        "e2-module-dims", list(actual[: cap + 1]) == expected, SOURCE_LITERATURE,
        degrees=_total_diff(expected, actual, cap),
    ))

    checks.append(_sec8_oracle_check(base, module, p, cap))

    rules = _sec8_rules(page, p)
    out = run_differential(page, rules)
    abut = AbutmentSpec(_ku_answer(p), {"u": 0, "l1": 0, "dlogu": 0, "k1": 1})
    extensions = [
        ExtensionRule(({}, _bj_label(p, j)), [(1, {"u": 1, "k1": j})])
        for j in range(1, p)
        if 2 + 2 * p * j <= cap
    ]
    if 2 * p * p <= cap:
        extensions.append(ExtensionRule(({"m2": 1}, "1"), [(1, {"k1": p})]))
    checks.append(_abutment_check(
        "einfty-vs-abutment", out, abut, extensions, cap, conditional=not rules,
        representative=_sec8_representative(out, p), page_index=out.page_index,
    ))
    return checks


def _sec8_oracle_check(base, module: ModuleSpec, p: int, cap: int) -> Check:
    """The bare page against the oracle, whose tables are released before
    the main turn."""
    capo = min(cap, 2 * p * p + 2)
    bare = tor_exterior_module(exterior("du", 3), module, make_algebra(p, []), capo)
    oracle = tor_oracle(base, module, fp_module(base), capo)
    want = {bd: d for bd, d in oracle.items() if sum(bd) <= capo}
    ok, wit, lines = _bidegree_compare(want, dict(bare.bigraded_dims(capo)), capo)
    return _check("e2-oracle-crosscheck", ok, SOURCE_COMPUTED, degrees=lines, **wit)


def _sec8_alternative_check(p: int, cap: int) -> Check:
    """The excluded alternative: the degree 2p^2-4 class rides its own tower,
    differentials only defensible on sources of total degree < 2p^2."""
    top = 2 * p * p
    alt_cap = max(cap, top + 1)
    _, _, alt_page = _sec8_page(p, alt_cap, alternative=True)
    alt_out = run_differential(alt_page, _sec8_rules(alt_page, p, window=top))
    survivors = alt_out.total_dims(alt_cap)[top - 1]
    # both antidiagonals, total degrees top - 1 and top, in one read
    below = range(top)
    keys = alt_out.keys_on([*below, *range(3, top + 1)],
                           [top - 1 - s for s in below] + [top - s for s in range(3, top + 1)])
    survivor_keys = [alt_out.format_key(k) for ks in keys[:top] for k in ks]
    # only unit-coefficient classes can hit the survivors: a multiple
    # of l1 or dlogu maps to multiples of the same class
    kill_sources = sum(1 for ks in keys[top:] for mono, _ in ks if mono[0] == mono[1] == 0)
    abut_dim = hilbert(_ku_answer(p), top - 1)[top - 1]
    m = (p - 1) // 2
    ok = (survivors == m + 2 and kill_sources == m and abut_dim == 1
          and survivors - kill_sources >= 2)
    return _check(
        "alternative-excluded", ok, SOURCE_LITERATURE,
        expected_failure_reproduced=bool(ok),
        survivors=survivors, kill_sources=kill_sources, abutment_dim=abut_dim,
        surplus=survivors - kill_sources, survivor_classes=survivor_keys,
    )


# -- scenario: kernel/image bookkeeping for the algebra map --------------------------


def _ausoni(p: int, cap: int) -> list[Check]:
    checks = []
    seq = ku_sequence(p)
    morph = check_morphism(seq.A, seq.B, seq.rho, cap)
    ranks = [dr.rank for dr in morph.degrees]  # one row per degree 0..cap
    dims = [dr.dim_source for dr in morph.degrees]
    ker_block = make_algebra(p, [exterior("l1", 2 * p - 1), polynomial("m2", 2 * p * p)])
    ker_dims = dims_shift(hilbert(ker_block, cap), 2 * p * p - 1, cap)
    lines = _total_diff([k + r for k, r in zip(ker_dims, ranks)], dims, cap)
    checks.append(_check(
        "kernel-plus-rank-dimensions", morph.relations_ok and not lines,
        SOURCE_LITERATURE, degrees=lines,
    ))

    block = hilbert(make_algebra(p, [exterior("l1", 2 * p - 1),
                                     polynomial("k1p", 2 * p * p)]), cap)
    ideal = [0] * (cap + 1)
    for a in range(1, p - 1):
        if 2 * a <= cap:
            ideal[2 * a] += 1
    shell = dims_convolve(ideal, hilbert(_log_answer(p), cap), cap)
    image = dims_add(block, shell, cap)
    lines = _total_diff(image, ranks, cap)
    checks.append(_check("image-decomposition", not lines, SOURCE_LITERATURE, degrees=lines))

    lhs_degrees = sorted({
        seq.A.algebra.dict_total_degree({rule.lhs: 1}) for rule in seq.A.rules
    })
    bound = max(lhs_degrees)
    kerd = dims_shift(hilbert(ker_block, bound), 2 * p * p - 1, bound)
    obstructions = [n for n in lhs_degrees if kerd[n] > 0]
    # rho's kernel in each rule's lhs degree, read off the rank table, is the ker_block count
    lifted = all(dims[n] - ranks[n] == kerd[n] for n in lhs_degrees if n <= cap)
    checks.append(_check(
        "theta-lift", morph.relations_ok and lifted, SOURCE_LITERATURE,
        conditional=bool(obstructions), obstruction_degrees=obstructions,
    ))
    return checks


# -- scenarios: the two long exact sequences -----------------------------------------


def _les(builder: Callable, p: int, cap: int) -> list[Check]:
    """Both boundary ambiguities of one sequence, checked as one family."""
    seq = builder(p)
    members = [seq, dataclasses.replace(seq, boundary=builder(p, 1).boundary)]
    checks = []
    for ambiguity, result in enumerate(check_les_family(members, cap)):
        name = f"exactness-ambiguity-{ambiguity}"
        if isinstance(result, InexactAt):
            checks.append(_check(name, False, SOURCE_COMPUTED,
                                 degree=result.degree, joint=result.joint))
            continue
        tau_active = any(row[6] for row in result.rows)
        checks.append(_check(
            name, True, SOURCE_COMPUTED, conditional=not tau_active,
            max_degree=result.max_degree(),
            boundary_pairs=result.boundary_pairs, tau_pairs=result.tau_pairs,
        ))
    return checks


def _les_ell(p: int, cap: int) -> list[Check]:
    return _les(ell_sequence, p, cap)


def _les_ku(p: int, cap: int) -> list[Check]:
    return _les(ku_sequence, p, cap)


# -- scenario: the suspension operator on its four carriers --------------------------


_LOG_SIGMA_IMAGES = {"k1": [(1, {"k1": 1, "dlogv": 1})]}


def _relative_sigma_images(p: int) -> dict:
    return {"u": [(1, {"u": 1, "dlogu": 1})], "k1": [(p - 1, {"k1": 1, "dlogu": 1})]}


def _theta_sigma_images(p: int) -> dict:
    images = {"u": [(1, {"a0": 1})]}
    for j in range(1, p):
        images[f"b{j}"] = [((1 - j) % p, {f"a{j}": 1})]
    return images


def _suspension(p: int, cap: int) -> list[Check]:
    checks = []

    def carrier(name, spec, images):
        report = check_derivation(spec, DerivationSpec(images))
        checks.append(_check(name, report.ok, SOURCE_LITERATURE,
                             relations_checked=len(report.checks)))

    carrier("tower-carrier", _core(p), {})
    carrier("log-carrier", _log_answer(p), _LOG_SIGMA_IMAGES)
    theta = make_theta(p, extra_generators=(exterior("l1", 2 * p - 1),))
    carrier("theta-carrier", theta, _theta_sigma_images(p))
    carrier("relative-carrier", _ku_answer(p), _relative_sigma_images(p))

    mutated = _theta_sigma_images(p)
    mutated["b1"] = [(2, {"a1": 1})]  # (1+j) in place of (1-j) at j = 1
    report = check_derivation(theta, DerivationSpec(mutated))
    checks.append(_check("mutation-detected", not report.ok, SOURCE_IDENTITY,
                         failing_relations=len(report.failures())))
    return checks


# -- scenario: oracle sweep ------------------------------------------------------------


def _tor_oracle_sweep(p: int, cap: int) -> list[Check]:
    capg = min(cap, 30)
    shapes = [
        [polynomial("x", 2)],
        [polynomial("x", 4)],
        [exterior("y", 3)],
        [exterior("y", 5)],
        [polynomial("x", 4), exterior("y", 3)],
        [polynomial("x", 2), polynomial("x2", 4), exterior("y", 3), exterior("y2", 5)],
        [polynomial("v", 2 * p - 2), exterior("dv", 2 * p - 1)],
    ]
    failures = []
    for gens in shapes:
        alg = make_algebra(p, gens)
        page = tor_closed_form(alg, fp_module(alg), fp_module(alg), capg)
        oracle = tor_oracle(alg, fp_module(alg), fp_module(alg), capg)
        want = {bd: d for bd, d in oracle.items() if sum(bd) <= capg}
        got = dict(page.bigraded_dims(capg))
        ok, _, _ = _bidegree_compare(want, got, capg)
        if not ok:
            failures.append("*".join(g.name for g in gens))
    return [_check(
        "closed-form-vs-oracle", not failures, SOURCE_COMPUTED,
        shapes=len(shapes), cap_used=capg, failing_shapes=failures,
    )]


# -- scenario: homology constructors and the repletion map ---------------------------


# the repletion map f: x -> x, dx -> x dlogx
_REPLETION_IMAGES = {"x": [(1, {"x": 1})], "dx": [(1, {"x": 1, "dlogx": 1})]}


def _inputs(p: int, cap: int) -> list[Check]:
    checks = []
    coeff = (CoefficientFactor("C", "trivial"),)
    x, logx = 2 * p - 2, 1
    cyclic = make_algebra(
        p, [polynomial("x", x), exterior("dx", x + 1)], coefficients=coeff
    )
    replete = make_algebra(
        p, [polynomial("x", x), exterior("dlogx", logx)], coefficients=coeff
    )
    zero_part = make_algebra(p, [exterior("dlogx", logx)], coefficients=coeff)

    cyclic_d = DerivationSpec({"x": [(1, {"dx": 1})]})
    r = check_derivation(cyclic, cyclic_d)
    checks.append(_check("cyclic-derivation", r.ok, SOURCE_LITERATURE,
                         relations_checked=len(r.checks),
                         coefficient_connectivity=2 * p - 4))
    replete_d = DerivationSpec({"x": [(1, {"x": 1, "dlogx": 1})]})
    r = check_derivation(replete, replete_d)
    checks.append(_check("replete-derivation", r.ok, SOURCE_LITERATURE,
                         relations_checked=len(r.checks)))

    morph = check_morphism(cyclic, replete, _REPLETION_IMAGES, cap)
    # the map commutes with the derivations (for g = dx both sides vanish,
    # sigma(x dlogx) by dlogx^2 = 0)
    compatible = _commutes_with_sigma(cyclic, replete, _REPLETION_IMAGES, cyclic_d, replete_d)
    checks.append(_check(
        "repletion-morphism", morph.relations_ok and morph.injective and compatible,
        SOURCE_LITERATURE, degrees_checked=len(morph.degrees),
    ))

    window = min(cap, 6 * p)
    expected = hilbert(zero_part, window)
    mat, degree = replete.basis_rows(window)
    actual = np.bincount(degree[mat[:, 0] == 0], minlength=window + 1).tolist()
    checks.append(_check("degree-zero-part", actual == expected, SOURCE_IDENTITY,
                         degrees=_total_diff(expected, actual, window)))
    return checks


# -- registry and entry points --------------------------------------------------------


_CATALOG: tuple[Scenario, ...] = (
    Scenario("thhz", "integral-base tower: collapse pattern and hidden extensions",
             _thhz),
    Scenario("thh-ell-log", "log page with the comparison chain of three Tor terms",
             _thh_ell_log),
    Scenario("thh-ku-basechange",
             "truncated-u base change: dimension identity and the dlog sign map",
             _thh_ku_basechange),
    Scenario("thh-ku-ss",
             "relative page over one exterior class: d2, extensions, and the "
             "excluded alternative", _thh_ku_ss),
    Scenario("ausoni",
             "kernel/image bookkeeping for the map onto the truncated-u answer",
             _ausoni),
    Scenario("les-ell", "long exact sequence, rank-one case", _les_ell),
    Scenario("les-ku", "long exact sequence, truncated-u case", _les_ku),
    Scenario("suspension",
             "suspension operator on four carriers, with a mutation control",
             _suspension),
    Scenario("tor-oracle",
             "closed-form Tor against the resolution oracle on small shapes",
             _tor_oracle_sweep),
    Scenario("inputs",
             "cyclic and replete homology constructors with the repletion map",
             _inputs),
)

_SCENARIOS: dict[str, Scenario] = {s.name: s for s in _CATALOG}


def list_scenarios() -> list[tuple[str, str]]:
    return [(s.name, s.description) for s in _CATALOG]


def get_scenario(name: str) -> Scenario:
    if name not in _SCENARIOS:
        known = ", ".join(_SCENARIOS)
        raise UnknownScenario(f"unknown scenario {name!r} (known: {known})")
    return _SCENARIOS[name]


def default_cap(p: int) -> int:
    """The catalog's total-degree cap when none is given: 2p^2 + 4p."""
    return 2 * p * p + 4 * p


def run_scenario(name: str, p: int, cap: int) -> Report:
    scenario = get_scenario(name)
    PrimeField(p)
    if cap < 0:
        raise ValueError("cap must be nonnegative")
    if cap < 2 * p * p:
        warnings.warn(CapTooSmall(
            f"cap {cap} is below 2p^2 = {2 * p * p}; differential ranges are "
            "vacuous and affected checks are reported as conditional"
        ))
    return Report(name, p, cap, list(scenario.builder(p, cap)))


def forced_failure_report(p: int = 3, cap: int = 30) -> Report:
    """Negative-control fixture: the tower run compared against a wrong abutment."""
    base, left = _tower_base(p)
    page = tor_closed_form(base, left, fp_module(base), cap)
    out = run_differential(page, _tower_rules(p, cap))
    abut = AbutmentSpec(make_algebra(p, [polynomial("m1", 2 * p)]), {"m1": 1})
    check = _abutment_check("einfty-vs-abutment", out, abut, [], cap)
    return Report("forced-failure", p, cap, [check])


def emit_report(report: Report, format: str = "text") -> bytes:
    if format == "json":
        doc = {
            "scenario": report.scenario,
            "prime": report.prime,
            "cap": report.cap,
            "checks": [
                {
                    "name": c.name,
                    "status": c.status,
                    "degrees": [
                        {"n": l.n, "expected": l.expected, "actual": l.actual}
                        for l in c.degrees
                    ],
                    "witnesses": c.witnesses,
                }
                for c in report.checks
            ],
        }
        return (json.dumps(doc, indent=2) + "\n").encode("utf-8")
    if format == "text":
        lines = [f"scenario {report.scenario}  p={report.prime}  cap={report.cap}"]
        counts = {STATUS_PASS: 0, STATUS_FAIL: 0, STATUS_CONDITIONAL: 0}
        for c in report.checks:
            counts[c.status] += 1
            lines.append(f"  [{c.status:<11}] {c.name}")
            for l in c.degrees:
                lines.append(f"      degree {l.n}: expected {l.expected}, actual {l.actual}")
            if c.witnesses:
                rendered = "; ".join(
                    f"{k}={v if isinstance(v, str) else json.dumps(v)}"
                    for k, v in c.witnesses.items()
                )
                lines.append(f"      {rendered}")
        lines.append(
            f"{counts[STATUS_PASS]} pass, {counts[STATUS_FAIL]} fail, "
            f"{counts[STATUS_CONDITIONAL]} conditional"
        )
        return ("\n".join(lines) + "\n").encode("utf-8")
    raise ValueError(f"unknown report format {format!r}")
