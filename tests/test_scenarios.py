import copy
import json

import pytest

from thhlab import scenarios
from thhlab.graded_algebra import check_morphism
from thhlab.scenarios import (
    CapTooSmall,
    DegreeLine,
    UnknownScenario,
    emit_report,
    forced_failure_report,
    list_scenarios,
    run_scenario,
)

CATALOG = [name for name, _ in list_scenarios()]


def by_name(report):
    return {c.name: c for c in report.checks}


def test_catalog_names_and_descriptions():
    assert CATALOG == [
        "thhz", "thh-ell-log", "thh-ku-basechange", "thh-ku-ss", "ausoni",
        "les-ell", "les-ku", "suspension", "tor-oracle", "inputs",
    ]
    assert all(desc for _, desc in list_scenarios())


@pytest.mark.parametrize("name", CATALOG)
def test_catalog_passes_p3(name):
    report = run_scenario(name, 3, 30)
    assert report.ok
    for check in report.checks:
        assert check.status in ("pass", "conditional")
        assert check.witnesses["source"] in ("literature", "identity", "computed")


def test_cap_below_window_warns_and_conditions():
    with pytest.warns(CapTooSmall):
        report = run_scenario("thhz", 3, 4)
    assert report.ok
    statuses = {c.name: c.status for c in report.checks}
    assert statuses["e2-closed-form-vs-oracle"] == "pass"
    assert statuses["d-family-scalars"] == "conditional"
    assert statuses["einfty-vs-abutment"] == "conditional"


def test_unknown_scenario():
    with pytest.raises(UnknownScenario):
        run_scenario("thh-nope", 3, 10)


def test_even_prime_rejected():
    with pytest.raises(ValueError):
        run_scenario("thhz", 2, 10)


def test_forced_failure_reports_first_degree():
    report = forced_failure_report(3, 30)
    assert not report.ok
    (check,) = report.checks
    assert check.status == "fail"
    assert check.degrees[0] == DegreeLine(n=5, expected=0, actual=2)
    doc = json.loads(emit_report(report, "json"))
    assert doc["checks"][0]["status"] == "fail"
    assert doc["checks"][0]["degrees"][0] == {"n": 5, "expected": 0, "actual": 2}


def test_theta_lift_conditional_at_p3():
    report = run_scenario("ausoni", 3, 30)
    lift = by_name(report)["theta-lift"]
    assert lift.status == "conditional"
    assert lift.witnesses["obstruction_degrees"] == [17, 22]


def test_theta_lift_clear_at_p5():
    report = run_scenario("ausoni", 5, 50)
    lift = by_name(report)["theta-lift"]
    assert lift.status == "pass"
    assert lift.witnesses["obstruction_degrees"] == []


def test_theta_lift_fails_on_a_perturbed_rho(monkeypatch):
    # rho(m2) = 0 still respects every relation, so only the kernel count can see it
    good = scenarios.ku_sequence

    def perturbed(p, ambiguity=0):
        seq = copy.copy(good(p, ambiguity))
        seq.rho = {**seq.rho, "m2": []}
        return seq

    seq = perturbed(3)
    assert check_morphism(seq.A, seq.B, seq.rho, 30).relations_ok
    monkeypatch.setattr(scenarios, "ku_sequence", perturbed)
    lift = by_name(run_scenario("ausoni", 3, 30))["theta-lift"]
    assert lift.status == "fail"
    assert lift.witnesses["obstruction_degrees"] == [17, 22]


def test_alternative_excluded_witnesses():
    report = run_scenario("thh-ku-ss", 3, 30)
    alt = by_name(report)["alternative-excluded"]
    assert alt.status == "pass"
    w = alt.witnesses
    assert w["survivors"] == 3
    assert w["kill_sources"] == 1
    assert w["abutment_dim"] == 1
    assert w["expected_failure_reproduced"] is True
    assert len(w["survivor_classes"]) == 3


def test_les_conditional_below_tau_onset():
    with pytest.warns(CapTooSmall):
        low = run_scenario("les-ell", 3, 10)
    assert low.ok
    assert all(c.status == "conditional" for c in low.checks)
    high = run_scenario("les-ell", 3, 20)
    assert all(c.status == "pass" for c in high.checks)


def test_emit_json_schema_and_determinism():
    first = emit_report(run_scenario("thh-ku-basechange", 3, 30), "json")
    second = emit_report(run_scenario("thh-ku-basechange", 3, 30), "json")
    assert first == second
    doc = json.loads(first)
    assert doc["scenario"] == "thh-ku-basechange"
    assert doc["prime"] == 3
    assert doc["cap"] == 30
    for check in doc["checks"]:
        assert set(check) == {"name", "status", "degrees", "witnesses"}
        assert check["status"] in ("pass", "fail", "conditional")


def test_emit_text_format():
    report = run_scenario("suspension", 3, 20)
    text = emit_report(report, "text").decode()
    assert text.startswith("scenario suspension  p=3  cap=20")
    assert "[pass" in text
    assert text.rstrip().endswith("5 pass, 0 fail, 0 conditional")


def test_emit_unknown_format():
    with pytest.raises(ValueError):
        emit_report(run_scenario("inputs", 3, 20), "yaml")


def test_suspension_checks():
    report = run_scenario("suspension", 3, 20)
    checks = by_name(report)
    assert checks["mutation-detected"].status == "pass"
    assert checks["mutation-detected"].witnesses["failing_relations"] >= 1
    assert checks["theta-carrier"].witnesses["relations_checked"] >= 5


# -- negative controls: single-site mutations must flip a check -----------------------


def _tower_pieces(p, cap):
    from thhlab import scenarios as sc
    from thhlab.graded_algebra import exterior, make_algebra, polynomial
    from thhlab.spectral_sequence import AbutmentSpec, ExtensionRule
    from thhlab.tor_engine import ModuleSpec, fp_module, tor_closed_form

    base = make_algebra(p, [polynomial("v", 2 * p - 2), exterior("dv", 2 * p - 1)])
    left = ModuleSpec(base, trivial_action_coefficients=sc._core(p))
    page = tor_closed_form(base, left, fp_module(base), cap)
    abut = AbutmentSpec(
        make_algebra(p, [exterior("e1", 2 * p - 1), exterior("l1", 2 * p - 1),
                         polynomial("m1", 2 * p)]),
        {"e1": 1, "l1": 0, "m1": 1},
    )
    ext = [ExtensionRule({"m2": 1}, [(1, {"m1": p})])]
    return page, sc._tower_rules(p, cap), abut, ext


def test_negative_control_tower_targets():
    """Dropping or rescaling any declared tower differential flips a check."""
    from thhlab.spectral_sequence import (
        DifferentialRule, DimMismatch, RuleFamily, compare_abutment,
        run_differential, verify_rule_family,
    )

    p, cap = 3, 54
    page, rules, abut, ext = _tower_pieces(p, cap)
    assert len(rules) >= 2
    compare_abutment(run_differential(page, rules), abut, ext, cap)
    for i in range(len(rules)):
        fresh = _tower_pieces(p, cap)[0]
        out = run_differential(fresh, rules[:i] + rules[i + 1:])
        with pytest.raises(DimMismatch):
            compare_abutment(out, abut, ext, cap)

    # a rescaled target deviates from the declared-scalar family expectation
    ks = list(range(1, cap // (2 * p) + 1))
    fam = RuleFamily(gamma_gen="[dv]", step=p, ks=ks, cofactor=[(1, {"l2": 1})])
    scaled = [DifferentialRule(r.page, dict(r.source),
                               [(2 * c, pw) for c, pw in r.target])
              for r in rules]
    fresh = _tower_pieces(p, cap)[0]
    scalars = verify_rule_family(fresh, scaled, fam).scalar_map()
    expected = {k: (0 if k < p else 1) for k in ks}
    assert scalars != expected
    assert scalars[p] == 2


def test_negative_control_module_page_targets():
    """Dropping any declared d^2 on the module page breaks the comparison:
    each member of each family goes once, through its family without that
    k."""
    import dataclasses

    from thhlab import scenarios as sc
    from thhlab.graded_algebra import hilbert
    from thhlab.spectral_sequence import (
        AbutmentSpec, DimMismatch, compare_abutment, run_differential,
    )

    p, cap = 3, 30
    abut = AbutmentSpec(sc._ku_answer(p), {"u": 0, "l1": 0, "dlogu": 0, "k1": 1})
    page = sc._sec8_page(p, cap)[2]
    families = sc._sec8_rules(page, p)
    assert len(families) == p - 1
    baseline = list(run_differential(page, families).total_dims(cap))
    assert baseline[: cap + 1] == hilbert(abut.target, cap)
    dropped = [families[:i] + [dataclasses.replace(fam, ks=[j for j in fam.ks if j != k])]
               + families[i + 1:] for i, fam in enumerate(families) for k in fam.ks]
    assert len(dropped) >= 3
    for rules in dropped:
        fresh = sc._sec8_page(p, cap)[2]
        out = run_differential(fresh, rules)
        with pytest.raises(DimMismatch):
            compare_abutment(out, abut, [], cap,
                             representative=sc._sec8_representative(out, p))


def test_negative_control_theta_relations():
    """Deleting any relation (and, where the scalars allow it, zeroing its
    right side) moves a quantity some check pins down."""
    from thhlab.graded_algebra import check_morphism
    from thhlab.les_checker import ku_sequence
    from thhlab.presentation import (
        DerivationSpec, Presentation, check_derivation, hilbert_pres,
    )

    for p in (3, 5):
        seq = ku_sequence(p)
        theta, alg = seq.A, seq.A.algebra
        window = max(alg.dict_total_degree({r.lhs: 1}) for r in theta.rules)
        base_h = hilbert_pres(theta, window)
        sigma = {"u": [(1, {"a0": 1})]}
        sigma.update({f"b{j}": [((1 - j) % p, {f"a{j}": 1})] for j in range(1, p)})
        zero_blind = []
        for i, rule in enumerate(theta.rules):
            # deletion grows the monomial basis somewhere below the window
            dropped = Presentation(
                alg, tuple(r for j, r in enumerate(theta.rules) if j != i))
            assert hilbert_pres(dropped, window) != base_h, alg.format_mono(rule.lhs)
            if not rule.rhs:
                continue
            # zeroing the right side: caught by the suspension compatibility
            # check, the rho morphism, or the basis count
            zeroed = list(theta.rules)
            zeroed[i] = type(rule)(rule.lhs, {})
            pert = Presentation(alg, tuple(zeroed))
            seen = not check_derivation(pert, DerivationSpec(sigma)).ok
            if not seen:
                try:
                    seen = not check_morphism(pert, seq.B, seq.rho, 30).relations_ok
                except ValueError:
                    seen = True
            if not seen:
                seen = hilbert_pres(pert, window) != base_h
            if not seen:
                zero_blind.append(alg.format_mono(rule.lhs))
        if p == 5:
            assert zero_blind == []
        else:
            # at p = 3 the single u-power annihilates every right side in the
            # target algebra and under sigma, so only a0*b2 can be witnessed;
            # the deletion sweep above still covers those relations
            assert "a0*b2" not in zero_blind


def test_stability_window_fails_on_a_page_with_live_lanes(monkeypatch):
    import thhlab.scenarios as sc

    assert by_name(run_scenario("thhz", 3, 30))["stability-window"].status == "pass"
    # no differential turns the page, so the E2 page keeps its lanes
    monkeypatch.setattr(sc, "run_differential", lambda page, rules: page)
    check = by_name(run_scenario("thhz", 3, 30))["stability-window"]
    assert check.status == "fail" and check.witnesses["candidate_lanes"] > 0


def _repletion(p):
    from thhlab.graded_algebra import CoefficientFactor, exterior, make_algebra, polynomial

    coeff = (CoefficientFactor("C", "trivial"),)
    x = 2 * p - 2
    cyclic = make_algebra(p, [polynomial("x", x), exterior("dx", x + 1)], coefficients=coeff)
    replete = make_algebra(p, [polynomial("x", x), exterior("dlogx", 1)], coefficients=coeff)
    return cyclic, replete


@pytest.mark.parametrize("p", [3, 5])
def test_repletion_map_commutes_with_the_derivations(p):
    import thhlab.scenarios as sc
    from thhlab.graded_algebra import algebra_map
    from thhlab.presentation import DerivationSpec, leibniz_extension

    cyclic, replete = _repletion(p)
    f, _ = algebra_map(cyclic, replete, sc._REPLETION_IMAGES)
    sigma_c = leibniz_extension(cyclic, DerivationSpec({"x": [(1, {"dx": 1})]}))
    sigma_r = leibniz_extension(replete, DerivationSpec({"x": [(1, {"x": 1, "dlogx": 1})]}))
    x, dx = (cyclic.mono_from_names({name: 1}) for name in ("x", "dx"))
    x_dlogx = replete.mono_from_names({"x": 1, "dlogx": 1})
    # f(sigma x) = f(dx) = x dlogx = sigma(x) = sigma(f x), and
    # f(sigma dx) = 0 = sigma(x dlogx), by dlogx^2 = 0
    assert sigma_c([{x: 1}, {dx: 1}]) == [{dx: 1}, {}]
    assert f(dx) == {x_dlogx: 1}
    assert sigma_r([f(x), f(dx)]) == [{x_dlogx: 1}, {}]


def test_repletion_check_fails_when_dx_maps_to_twice_its_image(monkeypatch):
    import thhlab.scenarios as sc
    from thhlab.graded_algebra import check_morphism

    assert by_name(run_scenario("inputs", 3, 30))["repletion-morphism"].status == "pass"
    doubled = {"x": [(1, {"x": 1})], "dx": [(2, {"x": 1, "dlogx": 1})]}
    morph = check_morphism(*_repletion(3), doubled, 30)
    assert morph.relations_ok and morph.injective
    monkeypatch.setattr(sc, "_REPLETION_IMAGES", doubled)
    assert by_name(run_scenario("inputs", 3, 30))["repletion-morphism"].status == "fail"


@pytest.mark.parametrize("p", [3, 5, 7])
def test_dlog_sign_morphism_passes_only_for_the_sign_that_commutes_with_sigma(monkeypatch, p):
    import thhlab.scenarios as sc

    cap = sc.default_cap(p)
    log, answer = sc._log_answer(p), sc._ku_answer(p)
    for c in sorted({1, 2, p - 1}):
        images = {**sc._dlog_sign_images(p), "dlogv": [(c, {"dlogu": 1})]}
        # every unit scalar keeps the relations and injectivity
        morph = check_morphism(log, answer, images, cap)
        assert morph.relations_ok and morph.injective
        monkeypatch.setattr(sc, "_dlog_sign_images", lambda p, images=images: images)
        check = by_name(run_scenario("thh-ku-basechange", p, cap))["dlog-sign-morphism"]
        assert check.status == ("pass" if c == p - 1 else "fail"), c


@pytest.mark.parametrize("p", [3, 5, 7])
def test_dimension_convolution_fails_when_the_base_change_drops_u(monkeypatch, p):
    import thhlab.scenarios as sc

    cap = sc.default_cap(p)
    report = by_name(run_scenario("thh-ku-basechange", p, cap))
    assert report["dimension-convolution"].status == "pass"
    # u -> 0 keeps every relation, but the map is then neither injective nor
    # surjective in degree 2; the two dimension series still agree
    images = {**sc._basechange_images(p), "u": []}
    monkeypatch.setattr(sc, "_basechange_images", lambda p: images)
    failed = by_name(run_scenario("thh-ku-basechange", p, cap))["dimension-convolution"]
    assert failed.status == "fail"
    passed = report["dimension-convolution"]
    assert (failed.degrees, failed.witnesses) == (passed.degrees, passed.witnesses)
