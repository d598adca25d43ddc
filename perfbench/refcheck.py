"""Compare ssforms outputs with a stored reference by mathematical content.

The content of a level is its status and, for each newform record,
``al_sign``, ``dim``, ``a2_minpoly``, ``field_disc`` and every coefficient
``a_n`` as an algebraic number, written as its characteristic polynomial
over Q.  None of these depend on the run seed, on the defining polynomial
chosen for the Hecke field, or on the integral basis the coefficients are
written in.  Per Atkin-Lehner block it also keeps the block's dimension
and the number of Galois orbits found there, and for sieve runs the degrees
the block eliminated and its certified remainder.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from pathlib import Path


def _mat_mul(a, b):
    n = len(a)
    return [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)] for i in range(n)]


def _companion(f):
    """Matrix of multiplication by the root of the monic ``f`` (lowest
    coefficient first) on the power basis; column k is theta * theta^k."""
    d = len(f) - 1
    c = [[0] * d for _ in range(d)]
    for k in range(d - 1):
        c[k + 1][k] = 1
    for i in range(d):
        c[i][d - 1] = -f[i]
    return c


def _int_charpoly(m) -> list[int]:
    """Characteristic polynomial of an integer matrix, lowest coefficient
    first, from the power sums tr(m^k) and Newton's identities."""
    d = len(m)
    power_sums = []
    acc = m
    for k in range(d):
        if k:
            acc = _mat_mul(acc, m)
        power_sums.append(sum(acc[i][i] for i in range(d)))
    e = [1]
    for k in range(1, d + 1):
        s = sum((-1) ** (i - 1) * e[k - i] * power_sums[i - 1] for i in range(1, k + 1))
        e.append(s // k)  # exact: the e_k of an integer matrix are integers
    return [(-1) ** (d - j) * e[d - j] for j in range(d + 1)]


class _FieldRecord:
    """An element's coordinates in the record's basis -> its charpoly."""

    def __init__(self, record):
        f = [int(c) for c in record["field_minpoly"]]
        basis = [[Fraction(x) for x in elt] for elt in record["basis"]]
        self.d = len(f) - 1
        self.den = math.lcm(*(x.denominator for elt in basis for x in elt))
        self.basis = [[int(x * self.den) for x in elt] for elt in basis]
        comp = _companion(f)
        ident = [[int(i == j) for j in range(self.d)] for i in range(self.d)]
        self.powers = [ident]
        for _ in range(1, self.d):
            self.powers.append(_mat_mul(self.powers[-1], comp))

    def charpoly(self, coords) -> list[str]:
        d = self.d
        c = [int(x) for x in coords]
        # den * a_n as a power-basis polynomial in theta, integer coefficients
        poly = [sum(c[i] * self.basis[i][j] for i in range(d)) for j in range(d)]
        m = [[sum(poly[j] * self.powers[j][r][s] for j in range(d)) for s in range(d)]
             for r in range(d)]
        e = _int_charpoly(m)
        # charpoly of m/den: the x^j coefficient scales by den^(j-d)
        return [str(Fraction(e[j], self.den ** (d - j))) for j in range(d + 1)]


def canonical_record(record) -> dict:
    fld = _FieldRecord(record)
    return {
        "al_sign": int(record["al_sign"]),
        "dim": int(record["dim"]),
        "a2_minpoly": [str(int(c)) for c in record["a2_minpoly"]],
        "field_disc": str(int(record["field_disc"])),
        "coeff_charpolys": [fld.charpoly(row) for row in record["coeffs"]],
    }


def _sort_key(canon: dict) -> str:
    return json.dumps(canon, sort_keys=True)


def canonical_level(level_line: dict, records: list[dict]) -> dict:
    """Content of one level from its ``levels.jsonl`` line and the canonical
    forms of its ``newforms.jsonl`` records."""
    out = {"status": level_line["status"], "records": sorted(records, key=_sort_key)}
    blocks, sieve = {}, {}
    for name, block in (level_line.get("blocks") or {}).items():
        blocks[name] = {k: int(block[k]) for k in ("dim", "orbits") if k in block}
        rep = block.get("sieve")
        if isinstance(rep, dict):
            sieve[name] = {"eliminated": sorted(rep["eliminated"]),
                           "certified_remainder": rep["certified_remainder"]}
    if blocks:
        out["blocks"] = blocks
    if sieve:
        out["sieve"] = sieve
    return out


def compare_level(ref: dict, got: dict) -> list[str]:
    """Problems with ``got`` against ``ref``; empty when they agree."""
    problems = []
    if got["status"] != ref["status"]:
        problems.append(f"status {got['status']!r}, reference {ref['status']!r}")
    ref_recs = [_sort_key(r) for r in ref["records"]]
    got_recs = [_sort_key(r) for r in got["records"]]
    if ref_recs != got_recs:
        missing = len([r for r in ref_recs if r not in got_recs])
        extra = len([r for r in got_recs if r not in ref_recs])
        problems.append(f"records differ: {missing} missing, {extra} unexpected "
                        f"({len(got_recs)} produced, {len(ref_recs)} in reference)")
    for name, ref_block in ref.get("blocks", {}).items():
        got_block = got.get("blocks", {}).get(name)
        if got_block != ref_block:
            problems.append(f"block {name}: {got_block}, reference {ref_block}")
    for name, ref_sieve in ref.get("sieve", {}).items():
        got_sieve = got.get("sieve", {}).get(name)
        if got_sieve is None:
            problems.append(f"sieve report missing for block {name}")
            continue
        lost = sorted(set(ref_sieve["eliminated"]) - set(got_sieve["eliminated"]))
        if lost:
            problems.append(f"block {name}: degrees {lost} no longer eliminated")
        a, b = ref_sieve["certified_remainder"], got_sieve["certified_remainder"]
        if a is not None and b is not None and a != b:
            problems.append(f"block {name}: certified remainder {b}, reference {a}")
    return problems


def read_outputs(out_dir, memo: dict | None = None) -> dict[int, dict]:
    """Canonical content per level from ``levels.jsonl`` and
    ``newforms.jsonl`` in ``out_dir``.  ``memo`` maps a raw record line to
    its canonical form, so repeated identical outputs are read cheaply."""
    out_dir = Path(out_dir)
    memo = {} if memo is None else memo
    by_level: dict[int, list] = {}
    for line in (out_dir / "newforms.jsonl").read_text().splitlines():
        if line not in memo:
            rec = json.loads(line)
            memo[line] = (int(rec["level"]), canonical_record(rec))
        level, canon = memo[line]
        by_level.setdefault(level, []).append(canon)
    content = {}
    for line in (out_dir / "levels.jsonl").read_text().splitlines():
        lvl = json.loads(line)
        p = int(lvl["level"])
        content[p] = canonical_level(lvl, by_level.get(p, []))
    return content
