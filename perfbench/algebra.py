"""Plain exact arithmetic used to plant benchmark inputs and to check outputs.

It shares no code with detloci.  A polynomial is a dict mapping
``(exponents, angle)`` to a nonzero ``Fraction``: the term
``q * e(angle) * t^exponents`` with ``e(a) = exp(2*pi*i*a)`` and ``angle`` a
``Fraction`` in [0, 1).  This is the group ring of the roots of unity, so
products never need a cyclotomic reduction; ``canonical`` reduces modulo the
cyclotomic polynomial only when two values are compared.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from functools import lru_cache

ZERO_ANGLE = Fraction(0)


def const(nvars: int, q=1, ang: Fraction = ZERO_ANGLE) -> dict:
    return {((0,) * nvars, ang % 1): Fraction(q)} if q else {}


def mono(exps, q=1, ang: Fraction = ZERO_ANGLE) -> dict:
    return {(tuple(exps), ang % 1): Fraction(q)}


def binomial(u, xi: Fraction) -> dict:
    """t^u - e(xi)."""
    out = mono(u)
    out[((0,) * len(u), xi % 1)] = Fraction(-1)
    return out


def add(a: dict, b: dict) -> dict:
    out = dict(a)
    for key, q in b.items():
        s = out.get(key, 0) + q
        if s:
            out[key] = s
        else:
            out.pop(key, None)
    return out


def neg(a: dict) -> dict:
    return {key: -q for key, q in a.items()}


def mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for (ea, aa), qa in a.items():
        for (eb, ab), qb in b.items():
            key = (tuple(x + y for x, y in zip(ea, eb)), (aa + ab) % 1)
            s = out.get(key, 0) + qa * qb
            if s:
                out[key] = s
            else:
                out.pop(key, None)
    return out


def power(a: dict, p: int, nvars: int) -> dict:
    out = const(nvars)
    for _ in range(p):
        out = mul(out, a)
    return out


def total_degree(a: dict) -> int:
    """Largest term degree after dividing out the monomial content."""
    if not a:
        return 0
    nvars = len(next(iter(a))[0])
    low = [min(e[i] for e, _ in a) for i in range(nvars)]
    return max(sum(x - m for x, m in zip(e, low)) for e, _ in a)


# ---------------------------------------------------------------------------
# Text form (the grammar of the detloci file formats)


def fmt(a: dict, letter: str = "t") -> str:
    if not a:
        return "0"
    pieces = []
    for (exps, ang), q in sorted(a.items(), key=lambda kv: (kv[0][0], kv[0][1])):
        factors = []
        if abs(q) != 1:
            factors.append(str(abs(q)))
        if ang:
            factors.append(f"e({ang.numerator}/{ang.denominator})")
        for i, x in enumerate(exps):
            if x:
                factors.append(f"{letter}{i + 1}" + (f"^{x}" if x != 1 else ""))
        pieces.append(("-" if q < 0 else "+") + ("*".join(factors) or "1"))
    text = "".join(pieces)
    return text[1:] if text[0] == "+" else text


_TERM = re.compile(r"([+-]?)((?:[^+-]|(?<=\^)-)+)")
_UNIT = re.compile(r"e\((\d+)/(\d+)\)$")
_VAR = re.compile(r"[st](\d+)(?:\^(-?\d+))?$")


def parse(text: str, nvars: int) -> dict:
    """Read a polynomial string as printed by detloci (no parentheses)."""
    text = "".join(text.split())
    if text == "0":
        return {}
    out: dict = {}
    pos = 0
    while pos < len(text):
        match = _TERM.match(text, pos)
        if not match or match.end() == pos:
            raise ValueError(f"cannot read term at {pos} of {text!r}")
        pos = match.end()
        q = Fraction(-1 if match.group(1) == "-" else 1)
        ang = ZERO_ANGLE
        exps = [0] * nvars
        for factor in match.group(2).split("*"):
            unit = _UNIT.match(factor)
            var = _VAR.match(factor)
            if unit:
                ang = (ang + Fraction(int(unit.group(1)), int(unit.group(2)))) % 1
            elif var:
                exps[int(var.group(1)) - 1] += int(var.group(2) or 1)
            else:
                q *= Fraction(factor)
        out = add(out, mono(exps, q, ang))
    return out


# ---------------------------------------------------------------------------
# Comparison in Q(zeta_N)


@lru_cache(maxsize=None)
def cyclotomic(n: int) -> tuple[int, ...]:
    """Integer coefficients of Phi_n, constant term first."""
    num = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            num = _exact_div(num, cyclotomic(d))
    return tuple(num)


def _exact_div(num: list[int], den: tuple[int, ...]) -> list[int]:
    num = list(num)
    quot = [0] * (len(num) - len(den) + 1)
    for k in range(len(quot) - 1, -1, -1):
        c = num[k + len(den) - 1] // den[-1]
        quot[k] = c
        for j, dj in enumerate(den):
            num[k + j] -= c * dj
    if any(num):
        raise ArithmeticError("cyclotomic division left a remainder")
    return quot


@lru_cache(maxsize=None)
def _xpow(n: int) -> tuple[tuple[int, ...], ...]:
    """x^k modulo Phi_n for k = 0 .. n-1, as integer vectors."""
    phi = cyclotomic(n)
    d = len(phi) - 1
    rows = []
    cur = [1] + [0] * (d - 1)
    for _ in range(n):
        rows.append(tuple(cur))
        top = cur[-1]
        cur = [0] + cur[:-1]
        if top:
            cur = [c - top * p for c, p in zip(cur, phi)]
    return tuple(rows)


def canonical(a: dict, n: int) -> dict:
    """Map exponents -> coefficient vector in the power basis of Q(zeta_n)."""
    table = _xpow(n)
    acc: dict = {}
    for (exps, ang), q in a.items():
        k = ang * n
        if k.denominator != 1:
            raise ValueError(f"angle {ang} is not an n-th root of unity for n={n}")
        row = table[int(k)]
        vec = acc.setdefault(exps, [Fraction(0)] * len(row))
        for j, r in enumerate(row):
            if r:
                vec[j] += q * r
    return {e: tuple(v) for e, v in acc.items() if any(v)}


def order_of(*polys: dict) -> int:
    n = 1
    for a in polys:
        for _, ang in a:
            n = math.lcm(n, ang.denominator)
    return n


def equal(a: dict, b: dict) -> bool:
    n = order_of(a, b)
    return canonical(a, n) == canonical(b, n)


# ---------------------------------------------------------------------------
# Matrices of polynomials


def identity(n: int, nvars: int) -> list[list[dict]]:
    return [[const(nvars) if i == j else {} for j in range(n)] for i in range(n)]


def matmul(a: list[list[dict]], b: list[list[dict]]) -> list[list[dict]]:
    if not a or not b:
        return [[{} for _ in range(len(b[0]) if b else 0)] for _ in a]
    out = []
    for row in a:
        out_row = []
        for j in range(len(b[0])):
            acc: dict = {}
            for k, x in enumerate(row):
                if x and b[k][j]:
                    acc = add(acc, mul(x, b[k][j]))
            out_row.append(acc)
        out.append(out_row)
    return out


def reduced(a: dict, n: int) -> dict:
    """The same value written in the power basis of Q(zeta_n)."""
    out = {}
    for exps, vec in canonical(a, n).items():
        for j, q in enumerate(vec):
            if q:
                out[(exps, Fraction(j, n) % 1)] = q
    return out
