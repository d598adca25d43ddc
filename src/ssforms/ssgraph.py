"""Supersingular ell-isogeny graphs over F_{p^2} and their Atkin-Lehner split.

The vertex set and T_2 come from one breadth-first walk of the 2-isogeny
graph from a CM starting vertex.  Each step divides the known backward root
out of the cubic Phi_2(j, y), leaving a quadratic that one square root in
F_{p^2} solves; the start's known root is the F_p-rational root of
Phi_2(j0, y) that every supersingular j0 in F_p has.  Every root of
Phi_ell(j_i, y) is again supersingular, so T_ell for ell >= 3 needs no
root-finding: `hecke_matrix` evaluates Phi_ell(j_i, y) at all known vertices
at once and reads the neighbours off the zeros.  Both builds return T_ell
as a `SparseSignedMatrix` made from (row, col, multiplicity) triples, at most
ell+1 per row; no n x n array is built, and `split_atkin_lehner` forms the
Atkin-Lehner blocks from the same triples.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from importlib import resources

import numpy as np

from . import gf
from .linalg import SparseSignedMatrix

BUNDLED_LEVELS = (2, 3, 5, 7, 11, 13)

_MODPOLY_SHA256 = "9f6f7ff4e5927fa529dd254263871b264c568b10323e28faf3c2e2613ecb316e"

# The thirteen class-number-one CM pairs (discriminant, j-invariant), by |D|.
# j mod p is supersingular whenever D is a non-square mod p.
CM_PAIRS = (
    (-3, 0),
    (-4, 1728),
    (-7, -3375),
    (-8, 8000),
    (-11, -32768),
    (-12, 54000),
    (-16, 287496),
    (-19, -884736),
    (-27, -12288000),
    (-28, 16581375),
    (-43, -884736000),
    (-67, -147197952000),
    (-163, -262537412640768000),
)


class GraphError(RuntimeError):
    pass


_modpoly_cache: dict[int, dict[tuple[int, int], int]] | None = None


def bundled_modular_polynomials() -> dict[int, dict[tuple[int, int], int]]:
    """Symmetric integer coefficient grids of Phi_ell for the bundled ells.

    The data file carries only i >= k monomials; the checksum and structural
    shape are verified on first load and a failure aborts.
    """
    global _modpoly_cache
    if _modpoly_cache is not None:
        return _modpoly_cache
    text = resources.files("ssforms.data").joinpath("modular_polynomials.txt").read_text()
    digest = hashlib.sha256(text.encode()).hexdigest()
    if digest != _MODPOLY_SHA256:
        raise GraphError(f"modular polynomial table checksum mismatch: {digest}")
    table: dict[int, dict[tuple[int, int], int]] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        ell_s, i_s, k_s, c_s = line.split()
        ell, i, k, c = int(ell_s), int(i_s), int(k_s), int(c_s)
        grid = table.setdefault(ell, {})
        grid[(i, k)] = c
        if i != k:
            grid[(k, i)] = c
    for ell in BUNDLED_LEVELS:
        grid = table.get(ell)
        if grid is None:
            raise GraphError(f"Phi_{ell} missing from table")
        deg = max(i for i, _ in grid)
        if deg != ell + 1 or max(k for _, k in grid) != ell + 1:
            raise GraphError(f"Phi_{ell} has wrong degree")
        if grid.get((ell + 1, 0)) != 1:
            raise GraphError(f"Phi_{ell} is not monic in x")
    _modpoly_cache = table
    return table


def supersingular_count(p: int) -> int:
    if p < 5:
        raise ValueError("level must be at least 5")
    eps = {1: 0, 5: 1, 7: 1, 11: 2}[p % 12]
    return p // 12 + eps


def _curve_from_j(p: int, j: int) -> tuple[int, int]:
    """Short Weierstrass coefficients (a, b) of a curve with j-invariant j."""
    j %= p
    if j == 0:
        return 0, 1
    if j == 1728 % p:
        return 1, 0
    k = j * pow((1728 - j) % p, -1, p) % p
    return 3 * k % p, 2 * k % p


def _point_count(p: int, a: int, b: int, chi: np.ndarray) -> int:
    x = np.arange(p, dtype=np.int64)
    vals = (x * x % p * x + a * x + b) % p
    return int(p + 1 + chi[vals].sum())


def _legendre_table(p: int) -> np.ndarray:
    chi = -np.ones(p, dtype=np.int64)
    sq = np.arange(p, dtype=np.int64)
    chi[sq * sq % p] = 1
    chi[0] = 0
    return chi


def _fallback_scan(p: int) -> int:
    """Scan j in F_p for a supersingular j-invariant by brute point count."""
    chi = _legendre_table(p)
    for j in range(p):
        a, b = _curve_from_j(p, j)
        if _point_count(p, a, b, chi) == p + 1:
            return j
    raise GraphError(f"no rational supersingular j-invariant found for p={p}")


def find_starting_j(p: int) -> int:
    """First CM j-invariant whose discriminant is a non-square mod p, with a
    brute-force point-counting scan as the (rare) fallback."""
    if p < 5:
        raise ValueError("level must be at least 5")
    for d, j in CM_PAIRS:
        if pow(d % p, (p - 1) // 2, p) != 1:
            return j % p
    return _fallback_scan(p)


@dataclass
class SupersingularSet:
    p: int
    ctx: gf.QuadExtCtx
    vertices: list[tuple[int, int]]
    conj: np.ndarray  # conj[i] = index of vertices[i]^sigma

    def __len__(self) -> int:
        return len(self.vertices)


def build_adjacency(p: int, rng, start_j: int | None = None
                    ) -> tuple[SupersingularSet, SparseSignedMatrix]:
    """Walk the supersingular 2-isogeny graph and return its sparse T_2:
    entry (i, k) is the multiplicity of vertex k among the roots of
    Phi_2(j_i, y).  Vertices are ordered by discovery, with the Galois
    conjugate of each new vertex inserted immediately after it.

    Each vertex is visited with one root of Phi_2(j_i, y) already known: the
    vertex it was found from, since Phi_2 is symmetric.  Dividing y - back
    out of the monic cubic leaves a quadratic, which `gf.poly_roots` solves
    with one square root."""
    count = supersingular_count(p)
    ctx = gf.QuadExtCtx(gf.PrimeFieldCtx(p))
    grid = bundled_modular_polynomials()[2]
    # coef[k][i] = coefficient of y^k x^i mod p for k < 3; the y^3
    # coefficient of Phi_2 is 1
    coef = [[grid.get((i, k), 0) % p for i in range(4)] for k in range(3)]

    def low_coefficients(j):
        """(c0, c1, c2) with Phi_2(j, y) = y^3 + c2 y^2 + c1 y + c0."""
        powers = [ctx.one, j]
        for _ in range(2):
            powers.append(ctx.mul(powers[-1], j))
        return [(sum(c * x[0] for c, x in zip(row, powers)) % p,
                 sum(c * x[1] for c, x in zip(row, powers)) % p) for row in coef]

    j0 = ctx.embed(find_starting_j(p) if start_j is None else start_j)
    # Phi_2(j0, y) lies in F_p[y], and its roots are supersingular, so they
    # lie in F_{p^2}.  An irreducible cubic over F_p has its roots in F_{p^3},
    # not in F_{p^2}, so the cubic of a supersingular j0 has a root r0 in
    # F_p.  With r0 as its known root, the start is visited like any vertex.
    cubic = np.array([c[0] for c in low_coefficients(j0)] + [1], dtype=np.int64)
    rational = gf.npoly_linear_roots(cubic, p, rng)
    if not rational:
        raise GraphError(f"Phi_2({j0[0]}, y) has no root in F_{p}: "
                         "the start is not supersingular")

    vertices: list[tuple[int, int]] = []
    index: dict[tuple[int, int], int] = {}
    conj: list[int] = []

    def add_vertex(j) -> int:
        i = len(vertices)
        vertices.append(j)
        index[j] = i
        js = ctx.conj(j)
        if js == j:
            conj.append(i)
        else:
            vertices.append(js)
            index[js] = i + 1
            conj.append(i + 1)
            conj.append(i)
        return i

    add_vertex(j0)
    rows: list[int] = []  # one (row, col) pair per root; repeats add up
    cols: list[int] = []
    queue = [(0, ctx.embed(rational[0]))]  # (vertex index, known root)
    head = 0
    while head < len(queue):
        vi, back = queue[head]
        head += 1
        j = vertices[vi]
        c0, c1, c2 = low_coefficients(j)
        # synthetic division: Phi_2(j, y) = (y - back)(y^2 + q1 y + q0) + rem
        q1 = ctx.add(c2, back)
        q0 = ctx.add(c1, ctx.mul(back, q1))
        if not ctx.is_zero(ctx.add(c0, ctx.mul(back, q0))):
            raise GraphError("backward root is not a root; arithmetic bug")
        roots = gf.poly_roots([q0, q1, ctx.one], ctx, rng)
        roots.append(back)
        if len(roots) != 3:
            raise GraphError(
                f"vertex {j} has {len(roots)} of 3 isogenies in F_p^2; "
                "non-supersingular start or arithmetic bug"
            )
        for r in roots:
            k = index.get(r)
            if k is None:
                if len(vertices) >= count:
                    raise GraphError("graph exceeded the supersingular count")
                k = add_vertex(r)
                queue.append((k, j))
                kc = conj[k]
                if kc != k:
                    queue.append((kc, ctx.conj(j)))
            rows.append(vi)
            cols.append(k)
    if len(vertices) != count:
        raise GraphError(
            f"walk found {len(vertices)} vertices, expected {count} "
            f"(p={p}); non-supersingular start or arithmetic bug"
        )
    sset = SupersingularSet(p, ctx, vertices, np.array(conj, dtype=np.int64))
    return sset, SparseSignedMatrix.from_triples(count, rows, cols, np.ones(len(rows)))


# Rows of T_ell matched per step of `hecke_matrix`; its temporaries are
# _MATCH_BLOCK x n int64 arrays.
_MATCH_BLOCK = 256


def _power_table(j_re: np.ndarray, j_im: np.ndarray, deg: int, p: int,
                 xi2: int) -> tuple[np.ndarray, np.ndarray]:
    """(re, im) parts of j^m for m = 0..deg, one row per element j of F_{p^2}."""
    re = np.zeros((len(j_re), deg + 1), dtype=np.int64)
    im = np.zeros_like(re)
    re[:, 0] = 1
    for m in range(1, deg + 1):
        a, b = re[:, m - 1], im[:, m - 1]
        re[:, m] = (a * j_re % p + xi2 * (b * j_im % p)) % p
        im[:, m] = (a * j_im + b * j_re) % p
    return re, im


def hecke_matrix(sset: SupersingularSet, ell: int) -> SparseSignedMatrix:
    """Sparse T_ell in the vertex order of `sset`, which must list every
    supersingular j: entry (i, k) is the multiplicity of j_k as a root of
    Phi_ell(j_i, y).

    For a block of rows, the y-coefficients of Phi_ell(j_i, y) come from one
    product of the power table j_i^m with the coefficient grid, and their
    values at every vertex from a second one.  A root's multiplicity is the
    number of leading Hasse derivatives D^m f = sum_k C(k, m) c_k y^(k-m)
    that vanish there; unlike f^(m) / m!, these stay defined when p <= ell+1.
    Every dot product sums ell+2 terms below (p-1)^2 in int64.  Only
    _MATCH_BLOCK x n temporaries are built, never an n x n array.
    """
    p, n = sset.p, len(sset)
    if ell == p:
        raise ValueError("ell must differ from p")
    if (ell + 2) * (p - 1) ** 2 >= 2**63:
        raise gf.ModulusError(f"p={p} overflows the int64 evaluation of Phi_{ell}")
    deg = ell + 1
    xi2 = sset.ctx.n
    grid = bundled_modular_polynomials()[ell]
    coef = np.array([[grid.get((m, k), 0) % p for k in range(deg + 1)]
                     for m in range(deg + 1)], dtype=np.int64)
    hasse = np.array([[math.comb(k, m) % p for k in range(deg + 1)]
                      for m in range(deg + 1)], dtype=np.int64)
    verts = np.array(sset.vertices, dtype=np.int64).reshape(n, 2)
    pw_re, pw_im = _power_table(verts[:, 0], verts[:, 1], deg, p, xi2)
    pwt_re, pwt_im = pw_re.T.copy(), pw_im.T.copy()

    conj = sset.conj
    reps = np.nonzero(conj >= np.arange(n))[0]
    found = []  # (rows, cols, multiplicities) per block of rows
    for start in range(0, len(reps), _MATCH_BLOCK):
        block = reps[start : start + _MATCH_BLOCK]
        c_re = pw_re[block] @ coef % p
        c_im = pw_im[block] @ coef % p
        # a root needs a zero real part; the candidates are then checked in
        # full, and their multiplicities counted, one derivative at a time
        val_re = (c_re @ pwt_re % p + xi2 * (c_im @ pwt_im % p)) % p
        r, v = np.nonzero(val_re == 0)
        mult = np.zeros(len(r), dtype=np.int64)
        alive = np.arange(len(r))
        for m in range(deg + 1):
            h_re = c_re[r[alive], m:] * hasse[m, m:] % p
            h_im = c_im[r[alive], m:] * hasse[m, m:] % p
            y_re = pw_re[v[alive], : deg + 1 - m]
            y_im = pw_im[v[alive], : deg + 1 - m]
            d_re = ((h_re * y_re).sum(axis=1) % p
                    + xi2 * ((h_im * y_im).sum(axis=1) % p)) % p
            d_im = ((h_re * y_im).sum(axis=1) % p + (h_im * y_re).sum(axis=1) % p) % p
            alive = alive[(d_re == 0) & (d_im == 0)]
            if not len(alive):
                break
            mult[alive] += 1
        rows = block[r]
        # the row of a non-rational vertex's conjugate is its row, conjugated
        moved = conj[rows] != rows
        found += [(rows, v, mult), (conj[rows[moved]], conj[v[moved]], mult[moved])]
    rows, cols, mults = map(np.concatenate, zip(*found))
    # the float64 sums of these small counts are exact
    degree = np.bincount(rows, weights=mults, minlength=n)
    short = np.nonzero(degree != deg)[0]
    if len(short):
        i = int(short[0])
        raise GraphError(
            f"vertex {sset.vertices[i]} has {int(degree[i])} of {deg} "
            f"{ell}-isogenies among the {n} known vertices (p={p}); "
            "incomplete vertex set or arithmetic bug")
    return SparseSignedMatrix.from_triples(n, rows, cols, mults)


@dataclass
class ALSplitMatrices:
    plus: SparseSignedMatrix
    minus: SparseSignedMatrix
    plus_orbits: list[tuple[int, int]]   # (i, conj_i) with i < conj_i
    minus_orbits: list[tuple[int, int]]  # (i, conj_i) with i <= conj_i


def split_atkin_lehner(T: SparseSignedMatrix, sset: SupersingularSet) -> ALSplitMatrices:
    """Matrices of the operator in the Galois-invariant basis
    {e_j + e_{j^sigma}} (minus block, all orbits) and the anti-invariant
    basis {e_j - e_{j^sigma}} (plus block, non-rational orbits only).

    Entry (orbit of j1, orbit of j2) sums T[i][j2] over the rows i in the
    orbit of j1, where j2 is the orbit's first vertex; in the plus block the
    row of the second vertex j1^sigma enters with sign -1.
    """
    conj = sset.conj
    idx = np.arange(len(sset))
    first = np.minimum(idx, conj)  # the orbit's first vertex
    minus_rep, plus_rep = idx <= conj, idx < conj
    minus_at = np.cumsum(minus_rep) - 1  # orbit number, read at first vertices
    plus_at = np.cumsum(plus_rep) - 1
    rows, cols, data = T.triples()

    keep = minus_rep[cols]
    minus = SparseSignedMatrix.from_triples(
        int(minus_rep.sum()), minus_at[first[rows[keep]]], minus_at[cols[keep]], data[keep])
    keep = plus_rep[cols] & (conj[rows] != rows)
    sign = np.where(plus_rep[rows[keep]], 1, -1)
    plus = SparseSignedMatrix.from_triples(
        int(plus_rep.sum()), plus_at[first[rows[keep]]], plus_at[cols[keep]],
        sign * data[keep])
    return ALSplitMatrices(
        plus=plus,
        minus=minus,
        plus_orbits=list(zip(idx[plus_rep].tolist(), conj[plus_rep].tolist())),
        minus_orbits=list(zip(idx[minus_rep].tolist(), conj[minus_rep].tolist())),
    )


# ---------------------------------------------------------------------------
# Graph cache files: exact integer text format.
# ---------------------------------------------------------------------------


def graph_to_text(sset: SupersingularSet, T: SparseSignedMatrix) -> str:
    lines = [f"{sset.p} {len(sset)}"]
    lines.extend(f"{a} {b}" for (a, b) in sset.vertices)
    lines.extend(f"{i} {k} {c}" for i, k, c in zip(*(x.tolist() for x in T.triples())))
    return "\n".join(lines) + "\n"


def graph_from_text(text: str) -> tuple[SupersingularSet, SparseSignedMatrix]:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    p, count = map(int, lines[0].split())
    ctx = gf.QuadExtCtx(gf.PrimeFieldCtx(p))
    numbers = np.array(" ".join(lines[1:]).split(), dtype=np.int64)
    vertices = list(map(tuple, numbers[: 2 * count].reshape(-1, 2).tolist()))
    index = {v: i for i, v in enumerate(vertices)}
    conj = np.array([index[ctx.conj(v)] for v in vertices], dtype=np.int64)
    T = SparseSignedMatrix.from_triples(count, *numbers[2 * count :].reshape(-1, 3).T)
    return SupersingularSet(p, ctx, vertices, conj), T
