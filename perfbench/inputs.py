"""Seeded inputs for every workload, as plain data.

The program only ever receives what these functions return: catalog ids,
exact strings, generator arguments and integer matrices. The seed never
reaches it. Inputs are organised in rounds: round ``r`` of a workload is a
function of (workload, seed, r) alone, so a traced replay of the same rounds
sees the same inputs, and every round has the same mix of item kinds, so the
seed changes the values but not the composition of the work.
"""

from __future__ import annotations

import random
from fractions import Fraction

WORKLOADS = ("sweep-rational", "sweep-pi2", "build-measure", "cli")
RATIONAL_POOL = (
    "ex03_poisson_planes", "ex04_stit", "ex05_cubic", "ex06a_triangle_columns",
    "ex09a_voronoi_stratum", "ex09d_stit_stratum", "ex10c_coned_stit",
    "ex15_split_prism", "ex17_stratum_prism",
)
PI2_POOL = (
    "ex01_voronoi", "ex02_delaunay", "ex08_divided_delaunay",
    "ex13a_weighted_mixture", "ex13b_equal_mixture",
)
WEIGHT_DENOMINATOR = 16
SAMPLE_COUNT = 2
# (k, n) for spoke_cube and core_prism_cube in even and odd rounds, kept
# cheaper to build than divided_cube so that the round's heavy items are
# always the same kinds
SPOKE_SIZES = ((1, 0), (2, 0))
CORE_SIZES = ((1, 1), (0, 1))


def _rng(workload: str, seed: int, round_index: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{round_index}")


def plate_cap(ve: Fraction) -> Fraction:
    return 6 * (1 - 2 / ve)


def face_to_face_tuple(rng: random.Random, above_cap: bool = False) -> tuple[str, str, str]:
    """(ve, ep, pv) as exact strings. Below the cap the tuple is feasible;
    ``above_cap`` puts ep just above 6(1 - 2/ve), with pv in the range where
    only the plates-per-edge cap is violated."""
    ve = Fraction(4) + Fraction(rng.randint(0, 48), 8)
    cap = plate_cap(ve)
    if above_cap:
        ep = cap + Fraction(1, rng.randint(8, 64))
        pv_lo = max(Fraction(3), ve * ep / (2 * (ve - 2)))
    else:
        ep = 3 + (cap - 3) * Fraction(rng.randint(0, 32), 32)
        pv_lo = Fraction(3)
    pv_hi = ve * ep / (ve - 2)
    pv = pv_lo + (pv_hi - pv_lo) * Fraction(rng.randint(1, 31), 32)
    return str(ve), str(ep), str(pv)


def _weights(rng: random.Random) -> tuple[str, str]:
    k = rng.randint(1, WEIGHT_DENOMINATOR - 1)
    return (str(Fraction(k, WEIGHT_DENOMINATOR)),
            str(Fraction(WEIGHT_DENOMINATOR - k, WEIGHT_DENOMINATOR)))


def sweep_round(workload: str, seed: int, round_index: int) -> list[dict]:
    """One pass over the catalog pool, in seeded order. Each item mixes a
    catalog tuple with a seeded face-to-face tuple at a seeded weight. The
    rational sweep adds one above-cap face-to-face tuple per round and a
    sampler call to every item."""
    rng = _rng(workload, seed, round_index)
    rational = workload == "sweep-rational"
    pool = list(RATIONAL_POOL if rational else PI2_POOL)
    rng.shuffle(pool)
    items = []
    for entry_id in pool:
        items.append({"kind": "mixture", "catalog": entry_id,
                      "tuple": face_to_face_tuple(rng), "weights": _weights(rng)})
    if rational:
        items.insert(rng.randint(0, len(items)),
                     {"kind": "above_cap", "tuple": face_to_face_tuple(rng, True)})
        for i, item in enumerate(items):
            item["sample"] = {"count": SAMPLE_COUNT, "seed": rng.randrange(1 << 30),
                              "face_to_face": (round_index + i) % 2 == 0}
    return items


def unimodular(rng: random.Random, shears: int = 2) -> tuple[tuple[int, int, int], ...]:
    """A seeded integer matrix with determinant +-1: `shears` shears, then a
    signed permutation of the rows."""
    rows = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    for _ in range(shears):
        i, j = rng.sample(range(3), 2)
        c = rng.choice((-1, 1))
        rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
    rng.shuffle(rows)
    if rng.random() < 0.5:
        rows[0] = [-a for a in rows[0]]
    return tuple(tuple(r) for r in rows)


def _translation(rng: random.Random) -> tuple[str, str, str]:
    return tuple(str(Fraction(rng.randint(-8, 8), 8)) for _ in range(3))


def _offsets(rng: random.Random, count: int) -> list[str]:
    # distinct modulo 1, as prism_columns requires
    q = rng.choice((9, 11, 13))
    return [str(Fraction(k, q) + rng.randint(0, 1))
            for k in rng.sample(range(q), count)]


def build_round(seed: int, round_index: int) -> list[dict]:
    """Every generator once, cubic supercells m = 1, 2, 3, one more
    supercell and three unimodular images. Items that name a ``base`` must
    measure exactly what that earlier item of the round measured. Shapes and
    sizes follow the round index alone; the seed picks the supercell axis,
    matrices, translations and offsets, so it changes coordinates but not
    which complexes a pass builds, and a pass costs about the same for
    every seed."""
    rng = _rng("build-measure", seed, round_index)
    axis = rng.randrange(3)
    factors = tuple(2 if i == axis else 1 for i in range(3))
    parity = round_index % 2
    base = ("square", "triangle")[parity]
    k, n = SPOKE_SIZES[parity]
    ck, cn = CORE_SIZES[parity]

    def item(generator, args=None, replicate=None, affine=None, base_key=None,
             key=None, scaling=False):
        return {"generator": generator, "args": args or {}, "replicate": replicate,
                "affine": affine, "base": base_key, "key": key, "scaling": scaling}

    return [
        item("cubic_lattice", key="cubic", scaling=True),
        item("cubic_lattice", replicate=(2, 2, 2), base_key="cubic", scaling=True),
        item("cubic_lattice", replicate=(3, 3, 3), base_key="cubic", scaling=True),
        item("parallel_pyramids", key="pyramids"),
        item("parallel_pyramids", replicate=factors, base_key="pyramids"),
        item("parallel_pyramids", affine=(unimodular(rng), _translation(rng)),
             base_key="pyramids"),
        item("divided_cube", key="divided"),
        item("divided_cube", affine=(unimodular(rng, shears=0), _translation(rng)),
             base_key="divided"),
        item("split_prism"),
        item("prism_columns", {"base": base,
                               "offsets": _offsets(rng, 4 if base == "square" else 8)}),
        item("stratum_prism", key="stratum"),
        item("stratum_prism", affine=(unimodular(rng), _translation(rng)),
             base_key="stratum"),
        item("spoke_cube", {"k": k, "n": n}),
        item("core_prism_cube", {"k": ck, "n": cn}),
    ]


def cli_round(seed: int, round_index: int) -> list[tuple[list[str], int]]:
    """One command per kind, as (argv, expected exit code)."""
    rng = _rng("cli", seed, round_index)
    ve, ep, pv = face_to_face_tuple(rng)
    feasible = face_to_face_tuple(rng)
    above = face_to_face_tuple(rng, above_cap=True)
    first, second = rng.sample(RATIONAL_POOL, 2)
    w1, w2 = _weights(rng)
    region_ve = str(Fraction(4) + Fraction(rng.randint(0, 48), 8))
    return [
        (["derive", f"ve={ve}", f"ep={ep}", f"pv={pv}"], 0),
        (["derive", "--catalog", "ex08_divided_delaunay",
          "--digits", str(rng.randint(40, 60))], 0),
        (["check"] + [f"{k}={v}" for k, v in zip(("ve", "ep", "pv"), feasible)], 0),
        (["check"] + [f"{k}={v}" for k, v in zip(("ve", "ep", "pv"), above)], 1),
        (["region", "--type", "pv-ep", "--ve", region_ve], 0),
        (["transform", "--op", "mixture", "--component", f"{first}={w1}",
          "--component", f"{second}={w2}"], 0),
        (["sample", "--count", "3", "--seed", str(rng.randrange(1 << 30))], 0),
        (["catalog", "verify"], 0),
        (["measure", "--generator", "prism_columns", "--arg", "base=square",
          "--arg", "offsets=" + ",".join(_offsets(rng, 4)), "--validate"], 0),
        (["measure", "--generator", "stratum_prism", "--validate"], 0),
    ]
