"""Seeded inputs, CLI command ladders and closed-form oracles.

Every expected answer here is computed without mobiuskit: posets are built
and factored by this file, Mobius values come from closed forms or from the
defining recursion, and magnitudes of subsets of the line come from
Leinster's formula 1 + sum tanh(gap / 2).  The library only ever sees the
files written by ``build``.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass
from typing import Callable

MAGNITUDE_REL_TOL = 1e-9


@dataclass
class Rung:
    """One CLI command of a ladder and the check of its report."""

    label: str
    argv: list
    exit_code: int
    check: Callable[[dict], bool]


@dataclass
class Ladder:
    rungs: list
    small: int  # index of the smallest rung
    large: int  # index of the rung that takes longest


# posets


def divisor_poset(n: int):
    """Divisors of n under divisibility, with the classical mu(b / a)."""
    elements = [d for d in range(1, n + 1) if n % d == 0]
    return elements, lambda a, b: b % a == 0, lambda a, b: classical_mu(b // a)


def chain_square(k: int):
    """The product of two k-chains, with mu the product of the chain mu's."""
    elements = [(i, j) for i in range(k) for j in range(k)]
    return (
        elements,
        lambda a, b: a[0] <= b[0] and a[1] <= b[1],
        lambda a, b: chain_mu(a[0], b[0]) * chain_mu(a[1], b[1]),
    )


def random_poset(rng: random.Random, n: int, arrows: int, density: float = 0.12):
    """Transitive closure of a random DAG on n points with exactly `arrows`
    arrows, identities included; objects appear in a random order."""
    while True:
        above = [set() for _ in range(n)]
        for i in reversed(range(n)):
            for j in range(i + 1, n):
                if j not in above[i] and rng.random() < density:
                    above[i] |= {j} | above[j]
        if n + sum(len(s) for s in above) == arrows:
            break
    order = list(range(n))
    rng.shuffle(order)

    def leq(a, b):
        return a == b or b in above[a]

    mu = mobius_by_recursion(order, leq)
    return order, leq, lambda a, b: mu[(a, b)]


def object_name(x) -> str:
    if isinstance(x, tuple):
        return ".".join(str(v) for v in x)
    return str(x)


def arrow_name(a, b) -> str:
    return f"{object_name(a)}<={object_name(b)}"


def poset_document(elements, leq) -> dict:
    pairs = [(a, b) for a in elements for b in elements if leq(a, b)]
    below = {}
    for a, b in pairs:
        below.setdefault(b, []).append(a)
    compose = [
        [arrow_name(b, c), arrow_name(a, b), arrow_name(a, c)]
        for b, c in pairs
        for a in below[b]
    ]
    return {
        "objects": [object_name(x) for x in elements],
        "arrows": [{"name": arrow_name(a, b), "src": object_name(a), "tgt": object_name(b)} for a, b in pairs],
        "identities": {object_name(x): arrow_name(x, x) for x in elements},
        "compose": compose,
    }


def mobius_by_recursion(elements, leq) -> dict:
    """mu(a, b) = -sum over a <= c < b of mu(a, c), on every pair a <= b."""
    mu = {}
    for a in elements:
        interval = [b for b in elements if leq(a, b)]
        # a linear extension of the elements above a: shorter intervals first
        up = sorted(interval, key=lambda b: sum(1 for c in interval if leq(c, b)))
        for b in up:
            mu[(a, b)] = 1 if a == b else -sum(mu[(a, c)] for c in up if c != b and leq(c, b))
    return mu


def factor(n: int) -> dict:
    out, p = {}, 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def classical_mu(n: int) -> int:
    exponents = factor(n).values()
    if any(e > 1 for e in exponents):
        return 0
    return -1 if len(exponents) % 2 else 1


def chain_mu(i: int, j: int) -> int:
    return 1 if i == j else -1 if j == i + 1 else 0


# report checks


def report_check(command: str, rig: str, results: Callable[[dict], bool]):
    def check(report: dict) -> bool:
        return (
            report.get("command") == command
            and report.get("rig") == rig
            and report.get("warnings") == []
            and results(report.get("results", {}))
        )

    return check


def fine_rung(label, path, elements, leq, mu):
    expected = {arrow_name(a, b): str(mu(a, b)) for a in elements for b in elements if leq(a, b)}
    want = {"algebra": "fine", "status": "ok", "mobius": expected}
    argv = ["mobius", "--algebra", "fine", "--rig", "rat", "--category", path]
    return Rung(label, argv, 0, report_check("mobius", "rat", lambda r: r == want))


def coarse_matrix(elements, leq, mu):
    return {
        "objects": [object_name(x) for x in elements],
        "matrix": [[str(mu(a, b)) if leq(a, b) else "0" for b in elements] for a in elements],
    }


def family_rung(family: str, start: int, end: int, mu: Callable[[int, int], int]):
    indices = range(start, end + 1)
    want = {
        "family": family,
        "algebra": "patch",
        "objects": [str(i) for i in indices],
        "mobius": [[str(mu(m, n)) for n in indices] for m in indices],
    }
    argv = ["mobius", "--family", family, "--from", str(start), "--to", str(end)]
    return Rung(f"{family} {start}..{end}", argv, 0, report_check("mobius", "rat", lambda r: r == want))


def dinj_mu(m, n):
    return (-1) ** (n - m) * math.comb(n, m) if m <= n else 0


def dsurj_mu(m, n):
    if m == n == 0:
        return 1
    return (-1) ** (m - n) * math.comb(m - 1, n - 1) if m >= n >= 1 else 0


def divisibility_mu(m, n):
    return classical_mu(n // m) if n % m == 0 else 0


def line_magnitude(xs) -> float:
    xs = sorted(xs)
    return 1.0 + sum(math.tanh((b - a) / 2.0) for a, b in zip(xs, xs[1:]))


def magnitude_rung(label, path, expected: float):
    def results(r):
        try:
            value = float(r.get("magnitude"))
        except (TypeError, ValueError):
            return False
        return r.get("status") == "ok" and abs(value - expected) <= MAGNITUDE_REL_TOL * abs(expected)

    return Rung(label, ["magnitude", "--metric", path], 0, report_check("magnitude", "real", results))


# files


class Writer:
    def __init__(self, directory: str):
        self.directory = directory
        os.makedirs(directory, exist_ok=True)

    def __call__(self, name: str, document) -> str:
        path = os.path.join(self.directory, name)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=1)
        return path


def poset_file(write: Writer, name: str, elements, leq) -> str:
    return write(name, poset_document(elements, leq))


def segment(n: int, length: float = 2.0):
    return [length * i / (n - 1) for i in range(n)]


def coords_file(write: Writer, name: str, xs) -> str:
    return write(name, {"points": [f"p{i}" for i in range(len(xs))], "coords": [[x] for x in xs]})


def distances_file(write: Writer, name: str, xs, twin_of=None) -> str:
    """Distance matrix of points xs on the line; with twin_of = i a copy of
    point i is appended at distance 1e-300 from it."""
    rows = [[abs(a - b) for b in xs] for a in xs]
    points = [f"p{i}" for i in range(len(xs))]
    if twin_of is not None:
        for i, row in enumerate(rows):
            row.append(1e-300 if i == twin_of else row[twin_of])
        rows.append([1e-300 if j == twin_of else d for j, d in enumerate(rows[twin_of])])
        rows[-1][-1] = 0.0
        points.append("twin")
    return write(name, {"points": points, "distances": rows})


# ladders


def fine_ladder(write: Writer, rng: random.Random) -> Ladder:
    rungs, paths = [], {}
    for label, (elements, leq, mu) in (
        ("divisors(12)", divisor_poset(12)),
        ("chain(3)^2", chain_square(3)),
        ("chain(4)^2", chain_square(4)),
        ("divisors(240)", divisor_poset(240)),
        ("random(24)", random_poset(rng, 24, 130)),
        ("divisors(720)", divisor_poset(720)),
    ):
        paths[label] = poset_file(write, label.replace("^", "_") + ".json", elements, leq)
        rungs.append(fine_rung(f"mobius fine {label}", paths[label], elements, leq, mu))
    # a poset is skeletal, Mobius, and its fine and coarse zeta invert over Z
    classified = {
        "skeletal": True,
        "nontrivial_isos": [],
        "nontrivial_idempotents": [],
        "nontrivial_endos": [],
        "mobius_category": True,
        "fine_inversion_q": "ok",
        "fine_inversion_z": "ok",
        "coarse_inversion_q": "ok",
        "coarse_inversion_z": "ok",
    }
    rungs.append(
        Rung("classify divisors(240)", ["classify", "--category", paths["divisors(240)"]], 0,
             report_check("classify", "rat", lambda r: r == classified))
    )
    return Ladder(rungs, small=0, large=5)


def patch_ladder(write: Writer, rng: random.Random) -> Ladder:
    elements, leq, mu = chain_square(7)
    path = poset_file(write, "chain(7)_2.json", elements, leq)
    patch = {"algebra": "patch", "status": "ok", "mobius": coarse_matrix(elements, leq, mu)}
    valid = {"valid": True, "objects": len(elements), "arrows": sum(1 for a in elements for b in elements if leq(a, b))}
    rungs = [
        family_rung("dinj", 0, 4, dinj_mu),
        family_rung("dinj", 0, 20, dinj_mu),
        family_rung("dsurj", 0, 20, dsurj_mu),
        family_rung("divisibility", 1, 240, divisibility_mu),
        family_rung("nat_leq", 0, 32, chain_mu),
        Rung("validate chain(7)^2", ["validate", "--category", path], 0,
             report_check("validate", "rat", lambda r: r == valid)),
        Rung("euler chain(7)^2", ["euler", "--category", path], 0,
             report_check("euler", "rat", lambda r: r == {"status": "ok", "euler_characteristic": "1"})),
        Rung("mobius patch chain(7)^2", ["mobius", "--algebra", "patch", "--category", path], 0,
             report_check("mobius", "rat", lambda r: r == patch)),
    ]
    return Ladder(rungs, small=0, large=7)


def magnitude_ladder(write: Writer, rng: random.Random) -> Ladder:
    rungs = []
    for n in (8, 250, 500):
        xs = segment(n)
        rungs.append(magnitude_rung(f"segment({n})", coords_file(write, f"segment{n}.json", xs), line_magnitude(xs)))
    grid = rng.sample(range(1200), 400)
    xs = [0.01 * i for i in grid]
    rungs.append(magnitude_rung("line subset(400)", distances_file(write, "subset400.json", xs), line_magnitude(xs)))
    xs = segment(1000)
    rungs.append(magnitude_rung("segment(1000)", coords_file(write, "segment1000.json", xs), line_magnitude(xs)))
    xs = [0.05 * i for i in rng.sample(range(200), 60)]
    path = distances_file(write, "twin60.json", xs, twin_of=rng.randrange(len(xs)))
    refused = report_check("magnitude", "real", lambda r: r.get("status") == "not_invertible")
    rungs.append(Rung("near-coincident pair", ["magnitude", "--metric", path], 2, refused))
    return Ladder(rungs, small=0, large=4)


def build(workload: str, seed: int, directory: str) -> Ladder:
    """Write the workload's input files under `directory` and return its
    ladder with every expected report."""
    return LADDERS[workload](Writer(directory), random.Random(f"{workload}:{seed}"))


LADDERS = {"fine_ladder": fine_ladder, "patch_ladder": patch_ladder, "magnitude_ladder": magnitude_ladder}
WORKLOADS = tuple(LADDERS)
