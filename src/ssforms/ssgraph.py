"""Supersingular ell-isogeny graphs over F_{p^2} and their Atkin-Lehner split.

The vertex set comes from one breadth-first walk of the 2-isogeny graph from
a CM starting vertex, finding the roots of the classical modular polynomial
Phi_2(j, y) at each step and reusing the known backward root to drop one
degree.  Every root of Phi_ell(j_i, y) is again supersingular, so T_ell for
ell >= 3 needs no root-finding: `hecke_matrix` evaluates Phi_ell(j_i, y) at
all known vertices at once and reads the neighbours off the zeros.  In both
builds, rows at Galois-conjugate vertices are filled by conjugating, never
recomputed.
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

    def rational_mask(self) -> np.ndarray:
        return self.conj == np.arange(len(self.vertices))


class _PhiEvaluator:
    """Phi_ell(j, y) as a polynomial in y over F_{p^2}, for varying j."""

    def __init__(self, ell: int, ctx: gf.QuadExtCtx):
        grid = bundled_modular_polynomials()[ell]
        self.ell = ell
        self.ctx = ctx
        p = ctx.p
        deg = ell + 1
        # rows[k][i] = coefficient of y^k x^i, reduced mod p
        self.rows = [
            [grid.get((i, k), 0) % p for i in range(deg + 1)] for k in range(deg + 1)
        ]

    def at(self, j) -> list:
        ctx = self.ctx
        deg = self.ell + 1
        powers = [ctx.one]
        for _ in range(deg):
            powers.append(ctx.mul(powers[-1], j))
        out = []
        for k in range(deg + 1):
            acc = ctx.zero
            row = self.rows[k]
            for i, c in enumerate(row):
                if c:
                    acc = ctx.add(acc, ctx.mul(ctx.embed(c), powers[i]))
            out.append(acc)
        return gf.poly_trim(out, ctx)


def build_adjacency(p: int, ell: int, rng,
                    start_j: int | None = None) -> tuple[SupersingularSet, np.ndarray]:
    """Explore the supersingular ell-isogeny graph; B[i][k] = multiplicity of
    vertex k among the roots of Phi_ell(j_i, y).  Vertices are ordered by
    discovery, with the Galois conjugate of each new vertex inserted
    immediately after it."""
    if ell == p:
        raise ValueError("ell must differ from p")
    count = supersingular_count(p)
    ctx = gf.QuadExtCtx(gf.PrimeFieldCtx(p))
    phi = _PhiEvaluator(ell, ctx)

    j0 = ctx.embed(find_starting_j(p) if start_j is None else start_j)
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
    B = np.zeros((count, count), dtype=np.int64)
    queue = [(0, None)]  # (vertex index, known backward root or None)
    head = 0
    while head < len(queue):
        vi, back = queue[head]
        head += 1
        j = vertices[vi]
        f = phi.at(j)
        if back is not None:
            f, rem = gf.poly_divrem(f, [ctx.neg(back), ctx.one], ctx)
            if rem:
                raise GraphError("backward root is not a root; arithmetic bug")
        roots = gf.poly_roots(f, ctx, rng)
        if back is not None:
            roots.append(back)
        if len(roots) != ell + 1:
            raise GraphError(
                f"vertex {j} has {len(roots)} of {ell + 1} isogenies in F_p^2; "
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
            if B.shape[0] <= max(vi, k):
                raise GraphError("index overflow")
            B[vi][k] += 1
    if len(vertices) != count:
        raise GraphError(
            f"BFS found {len(vertices)} vertices, expected {count} "
            f"(p={p}, ell={ell}); non-supersingular start or arithmetic bug"
        )
    return SupersingularSet(p, ctx, vertices, np.array(conj, dtype=np.int64)), B


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


def hecke_matrix(sset: SupersingularSet, ell: int) -> np.ndarray:
    """T_ell in the vertex order of `sset`, which must list every
    supersingular j: B[i][k] = multiplicity of j_k as a root of
    Phi_ell(j_i, y).

    For a block of rows, the y-coefficients of Phi_ell(j_i, y) come from one
    product of the power table j_i^m with the coefficient grid, and their
    values at every vertex from a second one.  A root's multiplicity is the
    number of leading Hasse derivatives D^m f = sum_k C(k, m) c_k y^(k-m)
    that vanish there; unlike f^(m) / m!, these stay defined when p <= ell+1.
    Every dot product sums ell+2 terms below (p-1)^2 in int64.
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
    B = np.zeros((n, n), dtype=np.int64)
    for start in range(0, len(reps), _MATCH_BLOCK):
        rows = reps[start : start + _MATCH_BLOCK]
        c_re = pw_re[rows] @ coef % p
        c_im = pw_im[rows] @ coef % p
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
        B[rows[r], v] = mult
    others = np.nonzero(conj < np.arange(n))[0]
    B[others] = B[conj[others]][:, conj]

    short = np.nonzero(B.sum(axis=1) != deg)[0]
    if len(short):
        i = int(short[0])
        raise GraphError(
            f"vertex {sset.vertices[i]} has {int(B[i].sum())} of {deg} "
            f"{ell}-isogenies among the {n} known vertices (p={p}); "
            "incomplete vertex set or arithmetic bug")
    return B


@dataclass
class ALSplitMatrices:
    plus: SparseSignedMatrix
    minus: SparseSignedMatrix
    plus_orbits: list[tuple[int, int]]   # (i, conj_i) with i < conj_i
    minus_orbits: list[tuple[int, int]]  # (i, conj_i) with i <= conj_i


def split_atkin_lehner(B: np.ndarray, sset: SupersingularSet) -> ALSplitMatrices:
    """Matrices of the operator in the Galois-invariant basis
    {e_j + e_{j^sigma}} (minus block, all orbits) and the anti-invariant
    basis {e_j - e_{j^sigma}} (plus block, non-rational orbits only)."""
    conj = sset.conj
    n = len(sset)
    minus_orbits = [(i, int(conj[i])) for i in range(n) if i <= conj[i]]
    plus_orbits = [(i, int(conj[i])) for i in range(n) if i < conj[i]]
    mi = {o[0]: t for t, o in enumerate(minus_orbits)}
    pi = {o[0]: t for t, o in enumerate(plus_orbits)}

    minus = np.zeros((len(minus_orbits), len(minus_orbits)), dtype=np.int64)
    for (j1, j1c) in minus_orbits:
        r = mi[j1]
        row = B[j1] if j1 == j1c else B[j1] + B[j1c]
        for (j2, j2c) in minus_orbits:
            minus[r][mi[j2]] = row[j2]
    plus = np.zeros((len(plus_orbits), len(plus_orbits)), dtype=np.int64)
    for (j1, j1c) in plus_orbits:
        r = pi[j1]
        row = B[j1] - B[j1c]
        for (j2, j2c) in plus_orbits:
            plus[r][pi[j2]] = row[j2]
    return ALSplitMatrices(
        plus=SparseSignedMatrix.from_dense(plus),
        minus=SparseSignedMatrix.from_dense(minus),
        plus_orbits=plus_orbits,
        minus_orbits=minus_orbits,
    )


# ---------------------------------------------------------------------------
# Graph cache files: exact integer text format.
# ---------------------------------------------------------------------------


def graph_to_text(sset: SupersingularSet, B: np.ndarray) -> str:
    lines = [f"{sset.p} {len(sset)}"]
    for (a, b) in sset.vertices:
        lines.append(f"{a} {b}")
    nz = np.nonzero(B)
    for i, k in zip(*nz):
        lines.append(f"{i} {k} {B[i][k]}")
    return "\n".join(lines) + "\n"


def graph_from_text(text: str) -> tuple[SupersingularSet, np.ndarray]:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    p, count = map(int, lines[0].split())
    ctx = gf.QuadExtCtx(gf.PrimeFieldCtx(p))
    vertices = []
    for ln in lines[1 : 1 + count]:
        a, b = map(int, ln.split())
        vertices.append((a, b))
    index = {v: i for i, v in enumerate(vertices)}
    conj = np.array([index[ctx.conj(v)] for v in vertices], dtype=np.int64)
    B = np.zeros((count, count), dtype=np.int64)
    for ln in lines[1 + count :]:
        i, k, c = map(int, ln.split())
        B[i][k] = c
    return SupersingularSet(p, ctx, vertices, conj), B
