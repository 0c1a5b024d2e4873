"""Seeded, planted inputs for the four workloads and the checks of their outputs.

Every input is built from a recipe that states its right answer.  A check
compares the program's output with that answer, or with a recomputation in
plain integer and ``Fraction`` arithmetic (``algebra``); nothing here imports
detloci.  A job spec is plain JSON:

    {"kind": ..., "inputs": {name: file object}, "args": {...}, "recipe": {...}}

The same seed gives the same specs.  Each workload's job list is made of fixed
skeletons (sizes, powers, bounds, kinds of transform) taken in turn; the seed
picks the concrete divisors, roots of unity and elementary operations inside
each skeleton, so that the work per pass hardly depends on the seed.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from fractions import Fraction

import algebra as A

WORKLOADS = ("support-planted", "minors-valuation", "smith-jordan", "loci-calculus")

# Supports u of binomials t^u - xi, in classes of equal shape: the seed picks
# inside a class (a swap of the two variables), the skeleton picks the class.
U_CLASSES = {"a": [(1, 0), (0, 1)], "b": [(1, 1)], "c": [(1, 2), (2, 1)]}


def _primitive_angles(den: int) -> list[Fraction]:
    """The primitive den-th roots of unity, as angles."""
    return [Fraction(a, den) for a in range(den) if math.gcd(a, den) == 1]


def _angle_str(a: Fraction) -> str:
    return f"{a.numerator}/{a.denominator}"


class Dealer:
    """Seeded choices that stay balanced over a pass.

    Each key has its own deck: the pool in a seeded order, dealt one card at a
    time and refilled when empty.  Keys name a skeleton and a place in it, so
    over a pass each skeleton meets every value of a pool equally often (when
    its job count is a multiple of the pool size); the seed sets the pairings.
    That keeps the work of a pass nearly the same for every seed.
    """

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.decks: dict = {}

    def __call__(self, key, pool):
        deck = self.decks.setdefault(key, [])
        if not deck:
            deck.extend(pool)
            self.rng.shuffle(deck)
        return deck.pop()

    def scope(self, *prefix):
        return lambda key, pool: self(prefix + (key if isinstance(key, tuple) else (key,)), pool)


def _shape(slot: int) -> random.Random:
    """Positions of elementary operations: fixed by the skeleton, not the seed."""
    return random.Random(f"slot:{slot}")


# ---------------------------------------------------------------------------
# Planted complexes: direct sums of [R --h^p--> R], h = t^u - xi, conjugated


def _unimodular(deal, shape, size, nvars, angles, n_ops, kind):
    """A product of elementary matrices and its inverse.

    kind "const": multipliers +-e(a); "binomial": +-(t_j - e(a)), a in angles.
    The positions (and j) come from ``shape``, the signs and roots from ``deal``.
    """
    p = A.identity(size, nvars)
    p_inv = A.identity(size, nvars)
    for op in range(n_ops if size > 1 else 0):
        a, b = shape.sample(range(size), 2)
        ang = deal((op, "angle"), angles)
        sign = deal((op, "sign"), (1, -1))
        if kind == "const":
            q = A.const(nvars, sign, ang)
        else:
            u = [0] * nvars
            u[shape.randrange(nvars)] = 1
            q = A.mul(A.const(nvars, sign), A.binomial(u, ang))
        # P := E_ab(q) P and P^-1 := P^-1 E_ab(-q)
        for j in range(size):
            p[a][j] = A.add(p[a][j], A.mul(q, p[b][j]))
        for i in range(size):
            p_inv[i][b] = A.add(p_inv[i][b], A.mul(A.neg(q), p_inv[i][a]))
    return p, p_inv


def planted_complex(deal, shape, pieces, order, op_kind, n_ops, angles=None):
    """Complex file object for a sum of pieces (degree, u, xi, p), conjugated.

    A piece of degree i is [R --(t^u - e(xi))^p--> R] in degrees (i-1, i);
    degrees are 1 or 2 and at least one piece has degree 1.  The elementary
    operations use the roots e(a) for a in ``angles`` (default: all of order).
    """
    angles = angles or [Fraction(k, order) for k in range(order)]
    nvars = len(pieces[0][1])
    firsts = [pc for pc in pieces if pc[0] == 1]
    seconds = [pc for pc in pieces if pc[0] == 2]
    n1, n2 = len(firsts), len(seconds)
    ranks = {0: n1, 1: n1 + n2, 2: n2} if n2 else {0: n1, 1: n1}

    def h(pc):
        _, u, xi, p = pc
        return A.power(A.binomial(u, xi), p, nvars)

    d = {0: [[{} for _ in range(n1)] for _ in range(n1 + n2)]}
    for j, pc in enumerate(firsts):
        d[0][j][j] = h(pc)
    if n2:
        d[1] = [[{} for _ in range(n1 + n2)] for _ in range(n2)]
        for j, pc in enumerate(seconds):
            d[1][j][n1 + j] = h(pc)
    transforms = {
        i: _unimodular(lambda key, pool: deal((i,) + key, pool), shape, r, nvars, angles, n_ops, op_kind)
        for i, r in ranks.items()
    }
    diffs = {
        i: A.matmul(A.matmul(transforms[i + 1][0], mat), transforms[i][1])
        for i, mat in d.items()
    }
    diffs = {i: [[A.reduced(e, order) for e in row] for row in mat] for i, mat in diffs.items()}
    max_degree = max(A.total_degree(e) for mat in diffs.values() for row in mat for e in row)
    obj = {
        "ring": {"nvars": nvars, "laurent": True, "cyclotomic_order": order},
        "degrees": [0, max(ranks)],
        "ranks": {str(i): r for i, r in ranks.items()},
        "differentials": {
            str(i): [[A.fmt(e) for e in row] for row in mat] for i, mat in diffs.items()
        },
    }
    return obj, max_degree


def _draw_pieces(deal, skeleton):
    """Concrete pieces for a skeleton [(degree, u class, xi den, power | "same")]."""
    pieces = []
    for k, (degree, u_class, den, power) in enumerate(skeleton):
        if power == "same":  # repeat the previous divisor, power 1
            _, u, xi, _ = pieces[-1]
            pieces.append((degree, u, xi, 1))
            continue
        u = deal((k, "u"), U_CLASSES[u_class])
        xi = deal((k, "xi"), _primitive_angles(den))
        pieces.append((degree, u, xi, power))
    return pieces


def _pieces_json(pieces):
    return [[d, list(u), _angle_str(xi), p] for d, u, xi, p in pieces]


def _pieces_from_json(rows):
    return [(d, tuple(u), Fraction(xi), p) for d, u, xi, p in rows]


def _powers(pieces):
    """{(degree, (u, xi)): [powers]} of the planted pieces."""
    out: dict = {}
    for d, u, xi, p in pieces:
        out.setdefault((d, (tuple(u), xi)), []).append(p)
    return out


# ---------------------------------------------------------------------------
# support-planted: `detloci support` on 2-variable complexes at order 6

# (pieces, transform kind, ops per transform, bound)
SUPPORT_SKELETONS = [
    ([(1, "a", 3, 2), (1, "b", 2, 1)], "const", 2, 2),
    ([(1, "a", 3, 2), (2, "b", 2, 1)], "const", 2, 3),
    ([(1, "b", 3, 1), (1, "a", 6, 1), (2, "a", 2, 2)], "const", 2, 3),
    ([(1, "a", 2, 2), (1, "b", 3, 1)], "const", 2, 4),
    ([(1, "a", 2, 1), (2, "b", 1, 2)], "binomial", 1, 2),
    ([(1, "a", 3, 2), (1, "a", 3, "same"), (2, "c", 2, 1)], "const", 2, 2),
    ([(1, "b", 2, 1), (1, "a", 3, 1)], "binomial", 1, 2),
    ([(1, "c", 1, 1), (1, "a", 3, 1)], "const", 2, 3),
]


def gen_support(dealer, n_jobs):
    jobs = []
    for j in range(n_jobs):
        slot = j % len(SUPPORT_SKELETONS)
        skeleton, kind, n_ops, bound = SUPPORT_SKELETONS[slot]
        deal = dealer.scope(slot)
        while True:
            pieces = _draw_pieces(deal, skeleton)
            obj, max_degree = planted_complex(deal, _shape(slot), pieces, 6, kind, n_ops)
            # the candidate search covers angles of denominator <= bound*max_degree
            if all(xi.denominator <= bound * max_degree for _, _, xi, _ in pieces):
                break
        jobs.append(
            {
                "kind": "support",
                "inputs": {"complex": obj},
                "args": {"bound": bound},
                "recipe": {"pieces": _pieces_json(pieces)},
            }
        )
    return jobs


def _divisor_key(d: dict) -> tuple:
    return (tuple(d["u"]), Fraction(d["xi"]))


def check_support(spec, out: str):
    data = json.loads(out)
    pieces = _pieces_from_json(spec["recipe"]["pieces"])
    powers = _powers(pieces)
    planted = {(tuple(u), xi) for _, u, xi, _ in pieces}
    got = [_divisor_key(d) for d in data["candidates"]]
    _expect(set(got) == planted and len(got) == len(planted), "candidates", got, planted)
    imin, imax = spec["inputs"]["complex"]["degrees"]
    _expect(sorted(map(int, data["degrees"])) == list(range(imin, imax + 1)), "degrees", data["degrees"], (imin, imax))
    rows = set()
    for degree, table in data["degrees"].items():
        i = int(degree)
        want0, want1, want_min = {}, {}, {}
        for (d, div), ps in powers.items():
            if d == i:
                want0[div] = sum(ps)
                want1[div] = sum(ps) - max(ps)
                want_min[div] = max(ps)
        for name, want in (("delta0", want0), ("delta1", want1), ("minimal", want_min)):
            have = {_divisor_key(d): d["mult"] for d in table[name]}
            _expect(have == {k: v for k, v in want.items() if v}, f"{name}[{i}]", have, want)
        rows |= {(i, div, m) for div, m in want_min.items()}
    table = {(r["degree"], _divisor_key(r["divisor"]), r["ord"]) for r in data["ord_jordan_table"]}
    _expect(table == rows, "ord_jordan_table", table, rows)
    for r in data["ord_jordan_table"]:
        _expect(r["ord"] == r["jordan"] and r["generic"] is True, "ord == jordan", r, "generic")


# ---------------------------------------------------------------------------
# minors-valuation: cdf/jump valuations of dense planted complexes at order 12

# (pieces, binomial operations per transform, seed of their positions)
MINORS_SKELETONS = [
    ([(1, "a", 3, 2), (1, "b", 2, 1), (1, "a", 6, 1), (1, "b", 1, 1), (1, "a", 3, "same")], 1, 7),
    ([(1, "b", 2, 1), (1, "a", 3, 1), (1, "a", 6, 2), (2, "b", 3, 1), (2, "a", 2, 1)], 1, 4),
    ([(1, "b", 2, 1), (1, "a", 3, 1), (1, "a", 6, 2), (1, "b", 3, 1), (2, "a", 2, 1)], 1, 0),
    ([(1, "a", 3, 1), (1, "b", 6, 1), (1, "a", 2, 1), (2, "b", 3, 1), (2, "a", 1, 1), (2, "a", 6, 1)], 1, 0),
]
# divisors never planted: denominators 4 and 12 are not used by the skeletons
UNPLANTED = [((1, 1), Fraction(1, 4)), ((1, 0), Fraction(5, 12))]
MINOR_KS = (0, 1, 2)
MINOR_OP_ANGLES = [Fraction(0), Fraction(1, 4), Fraction(1, 3), Fraction(1, 12)]


def gen_minors(dealer, n_jobs):
    jobs = []
    for j in range(n_jobs):
        slot = j % len(MINORS_SKELETONS)
        skeleton, n_ops, shape = MINORS_SKELETONS[slot]
        deal = dealer.scope(slot)
        pieces = _draw_pieces(deal, skeleton)
        obj, _ = planted_complex(deal, _shape(shape), pieces, 12, "binomial", n_ops, MINOR_OP_ANGLES)
        divisors = sorted({(tuple(u), xi) for _, u, xi, _ in pieces}) + UNPLANTED
        jobs.append(
            {
                "kind": "minors",
                "inputs": {"complex": obj},
                "args": {
                    "ks": list(MINOR_KS),
                    "divisors": [[list(u), _angle_str(xi)] for u, xi in divisors],
                },
                "recipe": {"pieces": _pieces_json(pieces)},
            }
        )
    return jobs


def _smallest_sums(vals: list[int], a: int):
    """Valuation of the a x a minors of diag(f_1..f_n): sum of the a smallest."""
    if a < 0:
        return 0
    if a > len(vals):
        return math.inf
    return sum(sorted(vals)[:a])


def check_minors(spec, out: str):
    data = json.loads(out)
    pieces = _pieces_from_json(spec["recipe"]["pieces"])
    divisors = [(tuple(u), Fraction(xi)) for u, xi in spec["args"]["divisors"]]
    imin, imax = spec["inputs"]["complex"]["degrees"]
    want_rows = [(i, k) for i in range(imin, imax + 1) for k in spec["args"]["ks"]]
    _expect([(i, k) for i, k, _, _ in data] == want_rows, "(degree, k) rows", data, want_rows)
    for i, k, cdf_vals, jump_vals in data:
        _expect(len(cdf_vals) == len(jump_vals) == len(divisors), "one valuation per divisor", data, divisors)
        for div, cdf_v, jump_v in zip(divisors, cdf_vals, jump_vals):
            here = [p if (tuple(u), xi) == div else 0 for d, u, xi, p in pieces if d == i]
            above = [p if (tuple(u), xi) == div else 0 for d, u, xi, p in pieces if d == i + 1]
            # cdf(i, k): minors of d^{i-1} of size n_i - k
            want_cdf = _smallest_sums(here, len(here) - k) if len(here) - k > 0 else 0
            _expect(_val(cdf_v) == want_cdf, f"cdf({i},{k}) along {div}", cdf_v, want_cdf)
            # jump(i, k): minors of d^{i-1} (+) d^i of size rank_i - k + 1, whose
            # valuation is the min-convolution of the two blocks' minor valuations
            size = len(here) + len(above) - k + 1
            want_jump = min(
                _smallest_sums(here, a) + _smallest_sums(above, size - a)
                for a in range(0, max(size, 0) + 1)
            ) if size > 0 else 0
            _expect(_val(jump_v) == want_jump, f"jump({i},{k}) along {div}", jump_v, want_jump)


def _val(v):
    return math.inf if v == "inf" else v


# ---------------------------------------------------------------------------
# smith-jordan: one-variable Smith forms, determinantal factors, specialization

SMITH_ORDERS = (1, 2, 3, 4, 6, 8, 12)
SMITH_KINDS = ("smith", "detfactors", "specialize")
# invariant factors d_1 | ... | d_n: one nondecreasing exponent column per value
SMITH_EXPONENTS = {
    4: [[0, 0, 1, 2], [0, 1, 1, 1]],
    5: [[0, 0, 1, 1, 2], [0, 0, 0, 1, 2]],
    6: [[0, 0, 0, 1, 1, 2], [0, 0, 1, 1, 1, 1]],
}
# Jordan block sizes, one list per eigenvalue
JORDAN_BLOCKS = {6: [[3, 1], [2]], 7: [[2, 1], [2], [2]], 8: [[3, 1], [2, 1], [1]]}


RATIONAL_VALUES = [(1, Fraction(0)), (2, Fraction(0)), (-1, Fraction(0))]


def _values(deal, order, count):
    """Distinct field constants c = q*e(a), as (q, a) pairs: primitive
    order-th roots of unity in a dealt order, then 1, 2, -1."""
    roots = [(1, a) for a in _primitive_angles(order)] if order > 1 else []
    roots = [deal("roots", roots) for _ in roots]  # a whole deck: a permutation
    pool = roots + [c for c in RATIONAL_VALUES if c not in roots]
    return pool[:count]


def _linear(c) -> dict:
    """s - c in one variable."""
    q, ang = c
    return A.add(A.mono((1,)), A.const(1, -q, ang))


def _factor_product(exps: dict) -> dict:
    out = A.const(1)
    for c, e in exps.items():
        out = A.mul(out, A.power(_linear(c), e, 1))
    return out


def _chain_json(chain):
    return [[[c[0], _angle_str(c[1]), e] for c, e in entry.items()] for entry in chain]


def _chain_from_json(rows):
    return [{(q, Fraction(a)): e for q, a, e in entry} for entry in rows]


def gen_smith(deal, shape, order, n):
    values = _values(deal, order, 2)
    columns = SMITH_EXPONENTS[n]
    chain = [{c: col[k] for c, col in zip(values, columns) if col[k]} for k in range(n)]
    diag = [[_factor_product(chain[k]) if i == k else {} for k in range(n)] for i in range(n)]

    def ops(n_ops):
        mat = A.identity(n, 1)
        for k in range(n_ops):
            a, b = shape.sample(range(n), 2)
            c = (1, deal(("op", k), _primitive_angles(order)))
            q = _linear(c) if k % 2 == 0 else A.const(1, deal(("sign", k), (1, -1)), c[1])
            for j in range(n):
                mat[a][j] = A.add(mat[a][j], A.mul(q, mat[b][j]))
        return mat

    u, v = ops(n), ops(n)
    # U and V are products of row operations, hence unimodular; use V^T on the right
    v_t = [[v[j][i] for j in range(n)] for i in range(n)]
    mat = A.matmul(A.matmul(u, diag), v_t)
    rows = [[A.fmt(A.reduced(e, order), "s") for e in row] for row in mat]
    return {
        "kind": "smith",
        "inputs": {"matrix": {"ring": {"nvars": 1, "laurent": False, "cyclotomic_order": order}, "rows": rows}},
        "args": {},
        "recipe": {"chain": _chain_json(chain)},
    }


def gen_detfactors(deal, shape, order, m):
    blocks = JORDAN_BLOCKS[m]
    values = _values(deal, order, len(blocks))
    sizes = [(c, size) for c, group in zip(values, blocks) for size in group]
    jordan = [[{} for _ in range(m)] for _ in range(m)]
    pos = 0
    for (q, ang), s in sizes:
        for k in range(s):
            jordan[pos + k][pos + k] = A.const(1, q, ang)
            if k + 1 < s:
                jordan[pos + k][pos + k + 1] = A.const(1)
        pos += s
    p = A.identity(m, 1)
    p_inv = A.identity(m, 1)
    for k in range(m):
        a, b = shape.sample(range(m), 2)
        q = A.const(1, shape.choice((1, 2)) * deal(("sign", k), (1, -1)))
        for j in range(m):
            p[a][j] = A.add(p[a][j], A.mul(q, p[b][j]))
        for i in range(m):
            p_inv[i][b] = A.add(p_inv[i][b], A.mul(A.neg(q), p_inv[i][a]))
    phi = A.matmul(A.matmul(p, jordan), p_inv)
    rows = [[A.fmt(A.reduced(e, order), "s") for e in row] for row in phi]
    return {
        "kind": "detfactors",
        "inputs": {"matrix": {"ring": {"nvars": 1, "laurent": False, "cyclotomic_order": order}, "rows": rows}},
        "args": {},
        "recipe": {"blocks": [[c[0], _angle_str(c[1]), s] for c, s in sizes]},
    }


SPECIALIZE_SKELETONS = [
    [(1, "a", 1, 2), (1, "b", 1, 1)],
    [(1, "a", 1, 2), (1, "a", 1, "same"), (2, "b", 1, 1)],
    [(1, "b", 1, 2), (2, "a", 1, 1)],
]


def gen_specialize(deal, shape, order, variant):
    # every xi a primitive root of the order (xi = 0 at order 1)
    skeleton = [(d, uc, order, p) for d, uc, _, p in SPECIALIZE_SKELETONS[variant % 3]]
    pieces = _draw_pieces(deal, skeleton)
    obj, _ = planted_complex(deal, shape, pieces, order, "const", 2)
    target_degree, u, xi, _ = pieces[0]
    candidates = sorted({(tuple(pu), pxi) for _, pu, pxi, _ in pieces})
    return {
        "kind": "specialize",
        "inputs": {"complex": obj},
        "args": {
            "divisor": [list(u), _angle_str(xi)],
            "degree": target_degree,
            "candidates": [[list(cu), _angle_str(cxi)] for cu, cxi in candidates],
        },
        "recipe": {"pieces": _pieces_json(pieces)},
    }


def gen_smith_jordan(dealer, n_jobs):
    jobs = []
    for j in range(n_jobs):
        # 21 combinations of kind and order; the size follows the order, and
        # the 8x8 detfactors matrices sit at orders 2 and 6 (at order 8 one
        # took about 0.9 s, half of a pass for that one combination)
        kind = SMITH_KINDS[j % 3]
        slot = (j // 3) % len(SMITH_ORDERS)
        order = SMITH_ORDERS[slot]
        deal, shape = dealer.scope(j % 21), _shape(j % 21)
        if kind == "smith":
            jobs.append(gen_smith(deal, shape, order, 4 + slot % 3))
        elif kind == "detfactors":
            jobs.append(gen_detfactors(deal, shape, order, 6 + (slot + 1) % 3))
        else:
            jobs.append(gen_specialize(deal, shape, order, slot))
    return jobs


def check_smith(spec, out: str):
    data = json.loads(out)
    chain = _chain_from_json(spec["recipe"]["chain"])
    got = [A.parse(s, 1) for s in data["diagonal"]]
    want = [_factor_product(entry) for entry in chain]
    _expect(len(got) == len(want) and all(A.equal(g, w) for g, w in zip(got, want)),
            "smith diagonal", data["diagonal"], [A.fmt(w, "s") for w in want])


def check_detfactors(spec, out: str):
    data = json.loads(out)
    blocks: dict = {}
    for q, a, s in spec["recipe"]["blocks"]:
        blocks.setdefault((q, Fraction(a)), []).append(s)
    m = sum(sum(v) for v in blocks.values())
    # b_k: every block size at each eigenvalue except the k largest
    want_b = [
        _factor_product({c: sum(sorted(v, reverse=True)[k:]) for c, v in blocks.items()})
        for k in range(m + 1)
    ]
    got_b = [A.parse(s, 1) for s in data["b"]]
    _expect(len(got_b) == len(want_b) and all(A.equal(g, w) for g, w in zip(got_b, want_b)),
            "b_k", data["b"], [A.fmt(w) for w in want_b])
    want_min = _factor_product({c: max(v) for c, v in blocks.items()})
    _expect(A.equal(A.parse(data["minimal_polynomial"], 1), want_min),
            "minimal polynomial", data["minimal_polynomial"], A.fmt(want_min))


def check_specialize(spec, out: str):
    data = json.loads(out)
    pieces = _pieces_from_json(spec["recipe"]["pieces"])
    u, xi = spec["args"]["divisor"]
    want = max(p for d, pu, pxi, p in pieces
               if d == spec["args"]["degree"] and (tuple(pu), pxi) == (tuple(u), Fraction(xi)))
    _expect(data["ord"] == data["jordan"] == want and data["generic"] is True,
            "specialization", data, want)


# ---------------------------------------------------------------------------
# loci-calculus: hyperplane-locus arithmetic in 2 to 4 dimensions


def _h(c, c0, mult=None):
    out = {"c": list(c), "c0": c0}
    if mult is not None:
        out["mult"] = mult
    return out


def _natural(rng, r, lo=0, hi=3):
    while True:
        c = [rng.randint(lo, hi) for _ in range(r)]
        if any(c):
            return c


def _canon(c, c0):
    g = 0
    for x in list(c) + [c0]:
        g = math.gcd(g, x)
    return tuple(x // g for x in c), c0 // g


def _outer_normal(rng, r):
    """A normal that can meet a missing member (s_1 its pivot) obliquely."""
    while True:
        c = _natural(rng, r, 0, 4)
        if c[0] or all(c[1:]):
            return c


def _oblique_on(c, missing_c):
    """Whether {c.s + c0 = 0} restricted to the missing member (pivot s_1,
    coefficient 1) has a nonzero coefficient on every free grid coordinate."""
    return all(c[i] != c[0] * missing_c[i] for i in range(1, len(c)))


def _grid_points(h_c, h_c0, count):
    """The first grid points the witness search visits on a hyperplane."""
    values = [0] + [v for k in range(1, 65) for v in (k, -k)]
    pivot = next(i for i, ci in enumerate(h_c) if ci)
    free = [i for i in range(len(h_c)) if i != pivot]
    out = []
    for assignment in itertools.product(values, repeat=len(free)):
        point = [Fraction(0)] * len(h_c)
        for i, v in zip(free, assignment):
            point[i] = Fraction(v)
        rest = sum(h_c[i] * point[i] for i in free)
        point[pivot] = Fraction(-h_c0 - rest, h_c[pivot])
        out.append(point)
        if len(out) == count:
            return out
    return out


def gen_loci(rng, r, line_blocker=False):
    # combine: axis members of each component plus an oblique family shared
    # by all components; this shape makes the union independent of pi
    d = rng.randint(1, 3)
    shared = [_h([d] * r, rng.randint(1, 6)) for _ in range(2)]
    components = {}
    for j in range(1, r + 1):
        members = list(shared)
        for _ in range(2):
            c = [0] * r
            c[j - 1] = rng.randint(1, 4)
            members.append(_h(c, rng.randint(1, 6)))
        components[str(j)] = {"r": r, "hyperplanes": members}
    m = [rng.randint(1, 3) for _ in range(r)]
    pis = [list(range(1, r + 1)), list(range(r, 0, -1)), rng.sample(range(1, r + 1), r)]

    # containment: outer hyperplanes and one piece; the true inner takes
    # rescaled outer members and a piece lying in an outer hyperplane
    outer_h = [_h(_outer_normal(rng, r), rng.randint(1, 9), rng.randint(1, 2)) for _ in range(4 + r)]
    outer_h = list({_canon(h["c"], h["c0"]): h for h in outer_h}.values())
    base = outer_h[0]
    axis = [0] * r
    axis[1 if [i for i, x in enumerate(base["c"]) if x] == [0] else 0] = 1
    other = _h(axis, rng.randint(1, 9))
    inner_true = {
        "r": r,
        "hyperplanes": [_h([2 * x for x in h["c"]], 2 * h["c0"]) for h in outer_h[1:3]],
        "pieces": [{"hyperplanes": [base, other]}],
    }
    # the false inner adds one hyperplane that no outer member matches; extra
    # outer members through its first grid points make the witness search walk.
    # Every outer member meets it in a hyperplane oblique to every grid axis, so
    # each blocks single grid points and never whole grid lines or planes (one
    # that blocked a plane would make the search scan 129^2 points).
    while True:
        missing_c = [1] + [rng.randint(1, 6) for _ in range(r - 1)]
        missing = _h(missing_c, rng.randint(1, 9))
        if all(_oblique_on(h["c"], missing_c) for h in outer_h):
            break
    blockers = []
    for point in _grid_points(missing["c"], missing["c0"], 2 + r):
        while True:
            c = _natural(rng, r, 0, 3)
            value = sum(ci * pi for ci, pi in zip(c, point))
            if value.denominator == 1 and _oblique_on(c, missing_c):
                blockers.append(_h(c, -int(value)))
                break
    if line_blocker:
        # a member containing the whole first grid line of the missing one
        # (x_1 = ... = x_{r-2} = 0): the witness search tests all 129 points
        # of that line before it moves on
        c = [1] + [m + 1 for m in missing_c[1:-1]] + [missing_c[-1]]
        blockers.append(_h(c, missing["c0"]))
    outer = {"r": r, "hyperplanes": outer_h + blockers, "pieces": []}
    inner_false = {"r": r, "hyperplanes": outer_h[1:2] + [missing]}

    model = {"r": r, "hyperplanes": [_h(_natural(rng, r, 0, 3), rng.randint(1, 12), rng.randint(1, 3)) for _ in range(3 + r)]}
    model["hyperplanes"] = list({(tuple(h["c"]), h["c0"]): h for h in model["hyperplanes"]}.values())
    candidates = [[_natural(rng, r, 1, 3), rng.randint(1, 20)] for _ in range(4)]
    directions = [[rng.randint(1, 3) for _ in range(r)] for _ in range(2)]
    return {
        "kind": "loci",
        "inputs": dict(
            {f"e{j}": comp for j, comp in components.items()},
            outer=outer, inner_true=inner_true, inner_false=inner_false, model=model,
        ),
        "args": {"m": m, "pis": pis, "candidates": candidates, "steps": 2, "directions": directions},
        "recipe": {"missing": missing},
    }


def gen_loci_calculus(dealer, n_jobs):
    # every sixth job (dimension 3) plants a member that blocks a grid line
    return [gen_loci(dealer.rng, 2 + j % 3, j % 6 == 1) for j in range(n_jobs)]


def _members(locus_json):
    return {(tuple(h["c"]), h["c0"]) for h in locus_json["hyperplanes"]}


def check_loci(spec, out: str):
    data = json.loads(out)
    inputs, args = spec["inputs"], spec["args"]
    r = inputs["model"]["r"]
    # combine: the same locus for every pi, equal to the union of translates
    # recomputed with integer tuples
    first = data["combine"][0]
    _expect(len(data["combine"]) == len(args["pis"]) and all(x == first for x in data["combine"]),
            "combine is pi-independent", data["combine"], "")
    want = set()
    acc = [0] * r
    for j in args["pis"][0]:
        for k in range(args["m"][j - 1]):
            v = list(acc)
            v[j - 1] += k
            for h in inputs[f"e{j}"]["hyperplanes"]:
                want.add((tuple(h["c"]), h["c0"] + sum(c * x for c, x in zip(h["c"], v))))
        acc[j - 1] += args["m"][j - 1]
    _expect(_members(first) == want and not first["pieces"], "combine members", first, want)
    # containment
    _expect(data["contain_true"] == [True, None], "true containment", data["contain_true"], "")
    ok, witness = data["contain_false"]
    _expect(ok is False and witness is not None, "false containment", data["contain_false"], "")
    point = [Fraction(x) for x in witness]

    def on(h):
        return sum(Fraction(c) * x for c, x in zip(h["c"], point)) + h["c0"] == 0

    missing = spec["recipe"]["missing"]
    _expect(on(missing), "witness on the missing inner member", witness, missing)
    outer = inputs["outer"]
    _expect(not any(on(h) for h in outer["hyperplanes"]), "witness off the outer members", witness, "")
    _expect(not any(all(on(h) for h in p["hyperplanes"]) for p in outer.get("pieces", [])),
            "witness off the outer pieces", witness, "")
    # oblique part, Exp images and slopes of the combined locus
    members = _members(first)
    oblique = {(c, c0) for c, c0 in members if all(c)}
    _expect(_members(data["oblique"]) == oblique, "oblique part", data["oblique"], oblique)
    exp = set()
    for c, c0 in members:
        g = math.gcd(*c)
        exp.add((tuple(x // g for x in c), Fraction(-c0, g) % 1))
    _expect({(tuple(u), Fraction(xi)) for u, xi in data["exp"]} == exp, "exp divisors", data["exp"], exp)
    slopes = {tuple(x // math.gcd(*c) for x in c) for c, _ in members}
    _expect({tuple(s) for s in data["slopes"]} == slopes, "slopes", data["slopes"], slopes)
    # box filter against the combined locus
    canon = {_canon(c, c0) for c, c0 in members}
    _expect(len(data["filter"]) == len(args["candidates"]), "one filter result per candidate", data["filter"], "")
    for (c, c0), got in zip(args["candidates"], data["filter"]):
        total = sum(c)
        m = c0 // total
        k = next((k for k in range(m + 1) if _canon(c, c0 - k * total) in canon), None)
        _expect(got == {"m": m, "k": k}, "filter", got, (m, k))
    # propagation: order of H' is the max order of H with H' = H shifted by
    # some v in N^r, |v| <= steps
    orders: dict = {}
    model = [(tuple(h["c"]), h["c0"], h.get("mult", 1)) for h in inputs["model"]["hyperplanes"]]
    for c, c0, mult in model:
        for v in itertools.product(range(args["steps"] + 1), repeat=r):
            if sum(v) <= args["steps"]:
                key = (c, c0 + sum(ci * vi for ci, vi in zip(c, v)))
                orders[key] = max(orders.get(key, 0), mult)
    got = {(tuple(h["c"]), h["c0"]): h["mult"] for h in data["propagate"]["hyperplanes"]}
    _expect(got == orders, "propagate", got, orders)
    # slices of the propagated model: the order sums add up to its multiplicities
    _expect(len(data["slices"]) == len(args["directions"]), "one slice per direction", data["slices"], "")
    for b, poles in zip(args["directions"], data["slices"]):
        _expect(sum(p["order_sum"] for p in poles) == sum(orders.values()), "slice order sums", poles, b)
        want_poles = {}
        for (c, c0), mult in orders.items():
            pole = Fraction(-c0, sum(ci * bi for ci, bi in zip(c, b)))
            want_poles[pole] = want_poles.get(pole, 0) + mult
        have = {Fraction(p["pole"]): p["order_sum"] for p in poles}
        _expect(have == want_poles, "slice poles", have, want_poles)


# ---------------------------------------------------------------------------


class CheckFailed(AssertionError):
    pass


def _expect(cond, what, got, want):
    if not cond:
        raise CheckFailed(f"{what}: got {got!r}, expected {want!r}")


# jobs in one cycle of each workload's skeletons: the warm-up runs one cycle,
# which leaves at most a couple of zeta_power misses for the first timed pass
CYCLES = {
    "support-planted": len(SUPPORT_SKELETONS),
    "minors-valuation": len(MINORS_SKELETONS),
    "smith-jordan": 3 * len(SMITH_ORDERS),
    "loci-calculus": 6,
}

GENERATORS = {
    "support-planted": gen_support,
    "minors-valuation": gen_minors,
    "smith-jordan": gen_smith_jordan,
    "loci-calculus": gen_loci_calculus,
}

CHECKS = {
    "support": check_support,
    "minors": check_minors,
    "smith": check_smith,
    "detfactors": check_detfactors,
    "specialize": check_specialize,
    "loci": check_loci,
}


def generate(workload: str, seed: int, n_jobs: int) -> list[dict]:
    return GENERATORS[workload](Dealer(random.Random(f"{workload}:{seed}")), n_jobs)


def check(spec: dict, out: str) -> None:
    """Raise CheckFailed when the output disagrees with the recipe."""
    CHECKS[spec["kind"]](spec, out)
