"""Seeded input generators for the four benchmark workloads.

Pure Python on purpose: nothing here imports numpy or qtopo, so a set-up
probe can time the package import from a clean interpreter, and the
program under test only ever sees the generated inputs.

Every workload is a sequence of blocks. A block holds a fixed multiset of
job sizes (its "slots") in a seeded order; the seed only chooses matrix
entries, moduli within a size class, move scripts, orientations and the
like. So a run of whole blocks has the same size mix for every seed, and
its medians and tails stay put while the inputs change.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field

# Integer entries at least this large push the seed's multivariate sum onto
# its arbitrary-precision path for the large-entry slot's modulus, while
# one slide of a 2x2 or 3x3 matrix stays far below 2**63.
LARGE_ENTRY = 1.5e17

OVERFLOW_INPUT = '{"J": [[100000000000000000000]]}'


@dataclass
class Job:
    """One unit of closed-loop work: a kind, its inputs and their properties."""

    kind: str
    data: dict
    props: dict = field(default_factory=dict)


def block_rng(workload: str, seed: int, index: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{index}")


# ---------------------------------------------------------------------------
# Integer matrices and move scripts


def random_symmetric(rng: random.Random, m: int, lo: int, hi: int) -> list[list[int]]:
    rows = [[0] * m for _ in range(m)]
    for i in range(m):
        for j in range(i, m):
            rows[i][j] = rows[j][i] = rng.randint(lo, hi)
    return rows


def slide(rows: list[list[int]], i: int, j: int, sign: int) -> None:
    """Handle slide of component i over j, in place: congruence by I + sign*e_j e_i^T."""
    m = len(rows)
    for r in range(m):
        rows[r][i] += sign * rows[r][j]
    for c in range(m):
        rows[i][c] += sign * rows[j][c]


def congruent_to_diagonal(rng: random.Random, diag: list[int], slides: int) -> list[list[int]]:
    """D transformed by `slides` random handle slides; its inertia is that of D."""
    m = len(diag)
    rows = [[diag[i] if i == j else 0 for j in range(m)] for i in range(m)]
    for _ in range(slides):
        i, j = rng.sample(range(m), 2)
        slide(rows, i, j, rng.choice((1, -1)))
    return rows


def move_script(rng: random.Random, m: int, ups: int, slides: int) -> list[tuple]:
    """Legal Kirby-move script: `ups` blow-ups, then `slides` slides, then one blow-down.

    The order is fixed so that every seed evaluates matrices of the same
    sizes; the seed picks signs and slide indices. The newest blown-up
    component is never slid, so it is still a split +-1 unknot at the end
    and the script closes by blowing it down again. Slides need two other
    components; when there are fewer, they are left out.
    """
    script: list[tuple] = [("blow_up", rng.choice((1, -1))) for _ in range(ups)]
    cur = m + ups
    protected = cur - 1 if ups else None
    free = [c for c in range(cur) if c != protected]
    if len(free) >= 2:
        for _ in range(slides):
            i, j = rng.sample(free, 2)
            script.append(("slide", i, j, rng.choice((1, -1))))
    if protected is not None:
        script.append(("blow_down", protected))
    return script


# ---------------------------------------------------------------------------
# kirby-small


# (k, m, checked invariant, blow-ups, slides): one block of twenty-five.
# Eight tiny jobs sit below a plateau of nine identical small jobs, which
# holds the median, so p50 is the median of many like samples rather than
# a rank on a steep slope of mixed sizes. Above them: five medium jobs, the
# large-entry job and two heavy ones that set the tail.
KIRBY_SLOTS = [
    (5, 1, "su2k3", 1, 1), (13, 1, "abelian", 1, 1), (25, 1, "dw", 1, 1), (29, 1, "abelian", 1, 1),
    (5, 2, "dw", 1, 1), (25, 1, "abelian", 1, 1), (13, 1, "su2k3", 2, 1), (5, 2, "abelian", 1, 1),
    *[(13, 2, "dw", 1, 1)] * 9,
    (5, 4, "su2k3", 1, 2), (25, 3, "su2k3", 1, 1), (29, 3, "su2k3", 1, 1), (5, 6, "su2k3", 2, 2),
    (13, 4, "su2k3", 1, 2),
    (5, 7, "abelian", 1, 2), (5, 7, "abelian", 1, 2),
]
KIRBY_LARGE_SLOT = (13, 2, "su2k3", 1, 1)


def kirby_block(seed: int, index: int) -> list[Job]:
    rng = block_rng("kirby-small", seed, index)
    jobs = []
    for slot in KIRBY_SLOTS + [KIRBY_LARGE_SLOT]:
        k, m, invariant, ups, slides = slot
        large = slot is KIRBY_LARGE_SLOT
        if large:
            rows = [[0] * m for _ in range(m)]
            for i in range(m):
                for j in range(i, m):
                    mag = rng.randint(int(LARGE_ENTRY), int(4 * LARGE_ENTRY / 3))
                    rows[i][j] = rows[j][i] = rng.choice((1, -1)) * mag
        else:
            rows = random_symmetric(rng, m, -3, 3)
        script = move_script(rng, m, ups, slides)
        m_max = m + ups
        width = 2 if invariant == "su2k3" else k
        props = {
            "m": m,
            "k": k,
            "max_terms": max(k**m, width**m_max),
            "large_entry": large,
            "checked": invariant,
        }
        jobs.append(Job("kirby", {"rows": rows, "k": k, "invariant": invariant, "script": script}, props))
    rng.shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# large-link


def _odd_prime_power(n: int) -> int:
    """The base p if n = p**e for an odd prime p, else 0."""
    for p in range(3, math.isqrt(n) + 1, 2):
        if n % p == 0:
            while n % p == 0:
                n //= p
            return p if n == 1 else 0
    return n if n % 2 else 0


def moduli_near(target: int, primes: int = 4) -> list[int]:
    """Odd prime powers within 3% of target: every proper power there, and a few primes.

    Scalar Gauss sums cost O(k) at the seed, so keeping k within 3% keeps
    a slot's cost the same for every seed.
    """
    window = range(int(0.97 * target), int(1.03 * target) + 1)
    powers = [n for n in window if _odd_prime_power(n) not in (0, n)]
    plain = [n for n in range(target, window[-1] + 1) if _odd_prime_power(n) == n][:primes]
    return powers + plain


# (m, size class, modulus near): one block of thirteen. The median falls in
# the middle of the seven identical light m=24 slots; the three big jobs
# cost about the same, so the tail sits inside their latencies.
LARGE_SLOTS = [(16, "light", 1000)] * 3 + [(24, "light", 6561)] * 7 + [
    (32, "large", 100000), (32, "large", 100000), (64, "wide", 14641)]
LARGE_MODULI = {target: moduli_near(target) for _, _, target in LARGE_SLOTS}

# Diagonal magnitudes, cycled to length m: every job of a size class has the
# same count of each magnitude, so the same count of zero and non-unit
# entries mod k, and its scalar sums cost the same for every seed.
DIAG_MAGNITUDES = [1, 2, 3, 5, 6, 7, 1, 2, 3, 5, 0]


def large_link_block(seed: int, index: int) -> list[Job]:
    rng = block_rng("large-link", seed, index)
    jobs = []
    for m, size, target in LARGE_SLOTS:
        jobs.append(large_link_job(rng, m, rng.choice(LARGE_MODULI[target]), size))
    rng.shuffle(jobs)
    return jobs


def large_link_job(rng: random.Random, m: int, k: int, size: str) -> Job:
    """J = U^T D U for a random unimodular U, so its signature is that of D."""
    diag = [DIAG_MAGNITUDES[i % len(DIAG_MAGNITUDES)] * rng.choice((1, -1)) for i in range(m)]
    rng.shuffle(diag)
    rows = congruent_to_diagonal(rng, diag, 2 * m)
    sig = sum(1 for d in diag if d > 0) - sum(1 for d in diag if d < 0)
    props = {"m": m, "k": k, "size": size, "max_terms": k, "large_entry": False}
    return Job("large", {"text": json.dumps({"m": m, "J": rows}), "k": k, "signature": sig}, props)


# ---------------------------------------------------------------------------
# geometry: chains of polygonal rings with twisted framings

RING_RADIUS = 2.0
RING_SPACING = 3.0
DELTA = 0.2

# Sign of lk(ring i, ring i+1) when both run counterclockwise in their own
# (e1, e2) frame; the sign depends on whether ring i lies in the xy-plane
# (i even) or the xz-plane (i odd). Confirmed against the crossing-count
# oracle in the benchmark's tests.
CHAIN_SIGN = {0: -1, 1: 1}
# lk(curve, push-off) for a framing that turns t times about the tangent
# is FRAMING_SIGN * t for the right-handed (e1, e2, e1 x e2) ring frame.
FRAMING_SIGN = -1

# (ring count, vertex counts): one block of fifteen. The median falls in
# the middle of the seven 3-ring 12-gon jobs; the tail falls among the three
# 3-ring 20-gons, below the one 4-ring job.
GEOMETRY_SLOTS = [(2, (12, 12))] * 4 + [(3, (12, 12, 12))] * 7 + [(3, (20, 20, 20))] * 3 + [
    (4, (12, 16, 24, 48))]


def _rotation(rng: random.Random) -> list[list[float]]:
    """Uniformly random proper rotation, from a random unit quaternion."""
    q = [rng.gauss(0.0, 1.0) for _ in range(4)]
    n = math.sqrt(sum(x * x for x in q))
    w, x, y, z = (v / n for v in q)
    return [
        [1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)],
        [2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)],
        [2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)],
    ]


def _apply(rot, v):
    return [sum(rot[r][c] * v[c] for c in range(3)) for r in range(3)]


def ring_chain(rng: random.Random, sizes: tuple[int, ...]) -> tuple[dict, list[list[int]]]:
    """Polygonal link JSON data and its linking matrix, known by construction.

    Ring i is a regular polygon of radius 2 centred at (3i, 0, 0), lying in
    the xy-plane for even i and the xz-plane for odd i, so consecutive rings
    are Hopf-linked and all others are split. Each ring gets a random
    orientation, vertex phase and framing twist; the whole link then gets
    a random rotation and translation, which preserve every linking number.
    """
    c = len(sizes)
    rot = _rotation(rng)
    shift = [rng.uniform(-5.0, 5.0) for _ in range(3)]
    orient = [rng.choice((1, -1)) for _ in range(c)]
    twists = [rng.randint(-2, 2) for _ in range(c)]
    comps = []
    for i, n in enumerate(sizes):
        e1 = [1.0, 0.0, 0.0]
        e2 = [0.0, 1.0, 0.0] if i % 2 == 0 else [0.0, 0.0, 1.0]
        normal = [e1[1] * e2[2] - e1[2] * e2[1], e1[2] * e2[0] - e1[0] * e2[2], e1[0] * e2[1] - e1[1] * e2[0]]
        center = [RING_SPACING * i, 0.0, 0.0]
        phase = rng.uniform(0.0, 2.0 * math.pi / n)
        points, offsets = [], []
        for v in range(n):
            a = orient[i] * (phase + 2.0 * math.pi * v / n)
            radial = [math.cos(a) * e1[d] + math.sin(a) * e2[d] for d in range(3)]
            # the twist follows the geometric angle, so reversing a ring's
            # orientation leaves its push-off curve, and its framing, unchanged
            off = [math.cos(twists[i] * a) * radial[d] + math.sin(twists[i] * a) * normal[d] for d in range(3)]
            pt = [center[d] + RING_RADIUS * radial[d] for d in range(3)]
            points.append([p + s for p, s in zip(_apply(rot, pt), shift)])
            offsets.append(_apply(rot, off))
        comps.append({"points": points, "offsets": offsets})
    J = [[0] * c for _ in range(c)]
    for i in range(c):
        J[i][i] = FRAMING_SIGN * twists[i]
        if i + 1 < c:
            J[i][i + 1] = J[i + 1][i] = CHAIN_SIGN[i % 2] * orient[i] * orient[i + 1]
    return {"components": comps, "delta": DELTA}, J


def geometry_block(seed: int, index: int) -> list[Job]:
    rng = block_rng("geometry", seed, index)
    jobs = []
    for c, sizes in GEOMETRY_SLOTS:
        sizes = tuple(rng.sample(sizes, len(sizes)))
        data, J = ring_chain(rng, sizes)
        props = {"m": c, "k": 5, "vertices": sum(sizes), "max_terms": 2**c, "large_entry": False}
        jobs.append(Job("geometry", {"text": json.dumps(data), "J": J}, props))
    rng.shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# cli

SIM_BIG_K = [1009, 1013, 1019, 1021]
SIM_SMALL_K = [101, 103, 107, 109, 113, 127, 131, 137]
CLI_KINDS = ["tau-abelian", "tau-su2k3", "tau-dw", "gauss-sum", "gauss-sum", "linking-matrix", "check",
             "simulate", "simulate", "simulate", "simulate-small", "overflow-dw", "overflow-su2k3"]


def _primes(lo: int, hi: int) -> list[int]:
    return [n for n in range(max(lo, 3), hi + 1) if n % 2 and all(n % d for d in range(3, math.isqrt(n) + 1, 2))]


GAUSS_PRIMES = _primes(3, 1021)


def _coprime(rng: random.Random, k: int) -> int:
    while True:
        a = rng.randint(1, 4 * k)
        if math.gcd(a, k) == 1:
            return a


def cli_block(seed: int, index: int) -> list[Job]:
    """One block of thirteen CLI runs; the two overflow runs are 2/13 of every block."""
    rng = block_rng("cli", seed, index)
    jobs = []
    for kind in CLI_KINDS:
        data: dict = {"kind": kind}
        props: dict = {"large_entry": False}
        if kind == "tau-abelian":
            m = rng.randint(2, 5)
            k = rng.choice([5, 7, 13, 25, 27])
            data.update(rows=random_symmetric(rng, m, -3, 3), k=k)
            props.update(m=m, k=k, max_terms=0)
        elif kind == "tau-su2k3":
            m = rng.randint(3, 8)
            data.update(rows=random_symmetric(rng, m, -3, 3))
            props.update(m=m, k=3, max_terms=2**m)
        elif kind == "tau-dw":
            m = rng.randint(2, 4)
            k = rng.choice([3, 5, 7])
            data.update(rows=random_symmetric(rng, m, -3, 3), k=k, range=rng.choice(["paper", "full"]))
            props.update(m=m, k=k, max_terms=k**m)
        elif kind == "gauss-sum":
            k = rng.choice(GAUSS_PRIMES)
            data.update(k=k, a=_coprime(rng, k), method=rng.choice(["brute", "closed"]))
            props.update(k=k, max_terms=k)
        elif kind == "linking-matrix":
            link, J = ring_chain(rng, (12, 12))
            data.update(text=json.dumps(link), J=J)
            props.update(m=2, vertices=24)
        elif kind == "check":
            m = rng.randint(2, 3)
            invariant = rng.choice(["su2k3", "abelian", "dw"])
            data.update(rows=random_symmetric(rng, m, -3, 3), invariant=invariant, k=5,
                        moves=3, seed=rng.randrange(1000))
            props.update(m=m, k=3 if invariant == "su2k3" else 5)
        elif kind in ("simulate", "simulate-small"):
            k = rng.choice(SIM_BIG_K if kind == "simulate" else SIM_SMALL_K)
            data.update(k=k, a=_coprime(rng, k), eps=0.05, seed=rng.randrange(1000))
            props.update(k=k)
        else:  # the documented int64 overflow input, kept in on purpose
            data.update(text=OVERFLOW_INPUT, k=5)
            props.update(m=1, k=5 if kind == "overflow-dw" else 3, large_entry=True)
        jobs.append(Job(kind, data, props))
    rng.shuffle(jobs)
    return jobs


BLOCKS = {
    "kirby-small": kirby_block,
    "large-link": large_link_block,
    "geometry": geometry_block,
    "cli": cli_block,
}
