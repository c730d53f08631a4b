"""Reference dimension counts, computed without thhlab.

Everything here is integer power-series arithmetic truncated at a total
degree cap.  Single-graded series are lists indexed by total degree;
bigraded series are dicts {(s, t): dim} kept to s + t <= cap.  The
benchmark checks the program's outputs against these counts, so this file
must not import thhlab.
"""

from __future__ import annotations

Series = list[int]
Bigraded = dict[tuple[int, int], int]


def mul(a: Series, b: Series, cap: int) -> Series:
    out = [0] * (cap + 1)
    for i, x in enumerate(a[: cap + 1]):
        if x:
            for j, y in enumerate(b[: cap + 1 - i]):
                out[i + j] += x * y
    return out


def product(factors: list[Series], cap: int) -> Series:
    out = [1] + [0] * cap
    for f in factors:
        out = mul(out, f, cap)
    return out


def exterior(degree: int, cap: int) -> Series:
    """E(x) with |x| = degree: 1 + t^degree."""
    out = [1] + [0] * cap
    if degree <= cap:
        out[degree] += 1
    return out


def polynomial(degree: int, cap: int) -> Series:
    """P(x) with |x| = degree: 1 + t^d + t^2d + ..."""
    out = [0] * (cap + 1)
    for n in range(0, cap + 1, degree):
        out[n] = 1
    return out


def truncated(degree: int, height: int, cap: int) -> Series:
    """P_h(x) = P(x)/(x^h): 1 + t^d + ... + t^(h-1)d."""
    out = [0] * (cap + 1)
    for e in range(height):
        if e * degree <= cap:
            out[e * degree] = 1
    return out


# -- the paper's answers, as Poincare series in total degree ----------------------


def z_tower(p: int, cap: int) -> Series:
    """E(e1, lambda1) (x) P(mu1): the V(1)-homotopy of THH of l relative to
    the integral base, |e1| = |lambda1| = 2p - 1, |mu1| = 2p."""
    return product([exterior(2 * p - 1, cap), exterior(2 * p - 1, cap),
                    polynomial(2 * p, cap)], cap)


def ell_log(p: int, cap: int) -> Series:
    """E(lambda1, dlog v) (x) P(kappa1): log THH of l, |dlog v| = 1,
    |kappa1| = 2p."""
    return product([exterior(2 * p - 1, cap), exterior(1, cap),
                    polynomial(2 * p, cap)], cap)


def ku_log(p: int, cap: int) -> Series:
    """P_{p-1}(u) (x) E(lambda1, dlog u) (x) P(kappa1): log THH of ku_(p),
    |u| = 2.  Raises ValueError unless it equals P_{p-1}(u) times the l
    series, which is the formally log-THH-etale base change."""
    out = product([truncated(2, p - 1, cap), exterior(2 * p - 1, cap),
                   exterior(1, cap), polynomial(2 * p, cap)], cap)
    if out != mul(truncated(2, p - 1, cap), ell_log(p, cap), cap):
        raise ValueError("log ku series is not the base change of the l series")
    return out


EINFTY_SERIES = {
    "thhz": z_tower,
    "thh-ell-log": ell_log,
    "thh-ku-ss": ku_log,
}


# -- Tor of a polynomial-exterior algebra, bigraded --------------------------------


def bi_mul(a: Bigraded, b: Bigraded, cap: int) -> Bigraded:
    out: Bigraded = {}
    for (s1, t1), x in a.items():
        for (s2, t2), y in b.items():
            s, t = s1 + s2, t1 + t2
            if s + t <= cap:
                out[(s, t)] = out.get((s, t), 0) + x * y
    return out


def tor_dims(poly_degrees, ext_degrees, cap: int) -> Bigraded:
    """Tor over P(x_i) (x) E(y_j) of F_p with itself: E[sigma x_i] (x)
    Gamma[sigma y_j], with sigma x in bidegree (1, |x|) and gamma_k(sigma y)
    in bidegree (k, k|y|).  Nonzero entries with s + t <= cap."""
    out: Bigraded = {(0, 0): 1}
    for d in poly_degrees:
        out = bi_mul(out, {(0, 0): 1, (1, d): 1}, cap)
    for d in ext_degrees:
        tower = {(k, k * d): 1 for k in range(cap // (d + 1) + 1)}
        out = bi_mul(out, tower, cap)
    return {bd: n for bd, n in out.items() if n}
