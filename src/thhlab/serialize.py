"""Structured text format for user-defined scenarios.

A scenario file declares a page (generators with bidegrees), differential
rules, and optionally an abutment with extension rules; running it replays
the standard pipeline: build the page, run the differentials, compare the
survivors against the abutment.  docs/scenario-format.md documents the
syntax; docs/thhz.scenario is a complete example.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, Optional

from .fp_linalg import PrimeField
from .graded_algebra import Generator, make_algebra
from .scenarios import Check, Report, _abutment_check, _check
from .spectral_sequence import (
    AbutmentSpec,
    BidegreeViolation,
    DifferentialRule,
    ExtensionRule,
    LeibnizConflict,
    NotADifferential,
    Page,
    run_differential,
)

_SECTIONS = ("[generators]", "[differentials]", "[abutment]", "[extensions]")

Powers = tuple[tuple[str, int], ...]
ElementData = tuple[tuple[int, Powers], ...]


class ParseError(ValueError):
    pass


@dataclass(frozen=True)
class FileScenario:
    name: str
    prime: int
    cap: int
    generators: tuple[Generator, ...]
    # (page, source powers, target element)
    differentials: tuple[tuple[int, Powers, ElementData], ...]
    # (generators, (name, filtration) assignment)
    abutment: Optional[tuple[tuple[Generator, ...], tuple[tuple[str, int], ...]]]
    # (scalar, page-side powers, abutment element)
    extensions: tuple[tuple[int, Powers, ElementData], ...]


_DIVIDED = re.compile(r"g(\d+)\((.+)\)\Z")
_POWER = re.compile(r"(.+?)\^(\d+)\Z")
_INT = re.compile(r"-?\d+\Z")


def _parse_term(term: str, p: int) -> tuple[int, Powers]:
    coeff = 1
    powers: dict[str, int] = {}
    for tok in term.split("*"):
        tok = tok.strip()
        if not tok:
            raise ParseError(f"empty factor in {term!r}")
        if _INT.fullmatch(tok):
            coeff *= int(tok)
            continue
        m = _DIVIDED.fullmatch(tok)
        if m:
            powers[m.group(2)] = powers.get(m.group(2), 0) + int(m.group(1))
            continue
        m = _POWER.fullmatch(tok)
        if m:
            powers[m.group(1)] = powers.get(m.group(1), 0) + int(m.group(2))
            continue
        powers[tok] = powers.get(tok, 0) + 1
    return coeff % p, tuple(powers.items())


def _parse_element(text: str, p: int) -> ElementData:
    text = text.strip()
    if text == "0":
        return ()
    out = []
    for term in text.split("+"):
        coeff, powers = _parse_term(term, p)
        out.append((coeff, powers))
    return tuple(out)


def _integer(key: str, value: str, err: Callable[[str], ParseError]) -> int:
    try:
        return int(value)
    except ValueError:
        raise err(f"{key} must be an integer, got {value!r}") from None


def _parse_generator(line: str, abutment: bool, err: Callable[[str], ParseError]) -> tuple[Generator, int]:
    """Page generators bake filtration into their bidegree; abutment
    generators stay singly graded and return it as the assignment value."""
    parts = line.split()
    if len(parts) < 3:
        raise ParseError(f"generator line needs name, kind, degree: {line!r}")
    name, kind = parts[0], parts[1]
    try:
        degree = int(parts[2])
    except ValueError:
        raise ParseError(f"bad degree in generator line {line!r}") from None
    height: Optional[int] = None
    filtration = 0
    seen_filtration = False
    for attr in parts[3:]:
        if "=" not in attr:
            raise ParseError(f"bad generator attribute {attr!r}")
        key, _, value = attr.partition("=")
        if key == "height":
            height = _integer(key, value, err)
        elif key == "filtration":
            filtration = _integer(key, value, err)
            seen_filtration = True
        else:
            raise ParseError(f"unknown generator attribute {key!r}")
    if abutment and not seen_filtration:
        raise ParseError(f"abutment generator {name!r} needs filtration=")
    if kind == "truncated" and height is None:
        raise ParseError(f"truncated generator {name!r} needs height=")
    try:
        gen = Generator(name, degree, kind, height, 0 if abutment else filtration)
    except ValueError as exc:
        raise ParseError(f"bad generator {name!r}: {exc}") from None
    return gen, filtration


def load_scenario(text: str) -> FileScenario:
    name = None
    prime = None
    cap = None
    section = None
    generators: list[Generator] = []
    differentials: list[tuple[int, Powers, ElementData]] = []
    abut_gens: list[Generator] = []
    abut_fil: list[tuple[str, int]] = []
    extensions: list[tuple[int, Powers, ElementData]] = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue

        def err(msg: str) -> ParseError:
            return ParseError(f"line {lineno}: {msg}")

        if line in _SECTIONS:
            section = line
            if section != "[generators]" and prime is None:
                raise err("prime must be declared before rule sections")
            continue
        if section is None:
            key, _, value = line.partition(" ")
            value = value.strip()
            if key == "scenario":
                name = value
            elif key in ("prime", "cap"):
                number = _integer(key, value, err)
                if key == "prime":
                    try:
                        PrimeField(number)
                    except ValueError as exc:
                        raise err(str(exc)) from None
                    prime = number
                else:
                    cap = number
            else:
                raise err(f"unknown header line {line!r}")
            continue
        if section == "[generators]":
            gen, _ = _parse_generator(line, abutment=False, err=err)
            generators.append(gen)
        elif section == "[differentials]":
            if "->" not in line:
                raise err("differential lines read: page=R source -> target")
            lhs, _, rhs = line.partition("->")
            parts = lhs.split()
            if len(parts) != 2 or not parts[0].startswith("page="):
                raise err("differential lines read: page=R source -> target")
            page_index = _integer("page", parts[0][len("page="):], err)
            coeff, src = _parse_term(parts[1], prime)
            if coeff != 1:
                raise err("differential source must be a bare monomial")
            target = _parse_element(rhs, prime)
            if not target:
                raise err("differential target must be nonzero; omit the rule")
            differentials.append((page_index, src, target))
        elif section == "[abutment]":
            gen, fil = _parse_generator(line, abutment=True, err=err)
            abut_gens.append(gen)
            abut_fil.append((gen.name, fil))
        elif section == "[extensions]":
            if "=" not in line:
                raise err("extension lines read: page-class = abutment-element")
            lhs, _, rhs = line.partition("=")
            scalar, src = _parse_term(lhs, prime)
            if scalar == 0:
                raise err("extension scalar must be a unit")
            element = _parse_element(rhs, prime)
            if not element:
                raise err("extension abutment element must be nonzero")
            extensions.append((scalar, src, element))

    if name is None or prime is None or cap is None:
        raise ParseError("header must declare scenario, prime, and cap")
    if not generators:
        raise ParseError("a scenario needs at least one generator")
    pages = {r for r, _, _ in differentials}
    if len(pages) > 1:
        raise ParseError(
            f"differential rules must share one page index, got {sorted(pages)}"
        )
    return FileScenario(
        name=name,
        prime=prime,
        cap=cap,
        generators=tuple(generators),
        differentials=tuple(differentials),
        abutment=(tuple(abut_gens), tuple(abut_fil)) if abut_gens else None,
        extensions=tuple(extensions),
    )


def load_scenario_file(path: str) -> FileScenario:
    with open(path, "r", encoding="utf-8") as handle:
        return load_scenario(handle.read())


# -- running ---------------------------------------------------------------------


def run_file_scenario(
    fs: FileScenario, prime: Optional[int] = None, cap: Optional[int] = None
) -> Report:
    p = fs.prime if prime is None else prime
    n = fs.cap if cap is None else cap
    PrimeField(p)
    if n < 0:
        raise ValueError("cap must be nonnegative")
    spec = make_algebra(p, fs.generators)
    page = Page(spec, 2, n)
    rules = [
        DifferentialRule(page_index, dict(src), [(c, dict(pw)) for c, pw in target])
        for page_index, src, target in fs.differentials
    ]
    checks: list[Check] = []
    try:
        out = run_differential(page, rules)
    except (NotADifferential, BidegreeViolation, LeibnizConflict, ValueError) as exc:
        checks.append(_check("differentials-consistent", False, "literature",
                             detail=str(exc)))
        return Report(fs.name, p, n, checks)
    checks.append(_check("differentials-consistent", True, "literature",
                         rules=len(rules), page_index=out.page_index))
    if fs.abutment is not None:
        abut_gens, fil = fs.abutment
        abut = AbutmentSpec(make_algebra(p, abut_gens), dict(fil))
        ext = [
            ExtensionRule(dict(src), [(c, dict(pw)) for c, pw in element], scalar)
            for scalar, src, element in fs.extensions
        ]
        checks.append(_abutment_check("einfty-vs-abutment", out, abut, ext, n))
    return Report(fs.name, p, n, checks)
