"""Seeded plant files for the benchmark.

Each family is a plant shape from the stabring corpus with small integer
coefficients c, e.g. the rows (1 - c^3 z^3)/(1 - c^2 z^2) of a delay plant.
A family has four fixed variants and the workload seed picks one per
family.  The lists are short so that every variant has a recorded reference
output (references.json).

The variants of the costly families differ by the substitution z -> -z
(every c negated) and by the name of the delay variable.  Neither changes
the amount of work: z -> -z is a ring automorphism that maps every step of
the computation to one with the same coefficient sizes.  A seed therefore
changes the inputs and every output, but not the cost, so the spread of a
timing between seeds is the machine's.  Variants with other magnitudes of c
cost up to a third more or less, which would make that spread wider than
any bound the benchmark can set.  The two cheap families (delay2 and the
Q[x,y] plants) vary the magnitudes too.

The three files in fixtures/ are copied byte for byte.  The program only
ever sees the files written here.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

FIXTURES = ("delay_plant", "siso_delay_plant", "xy_plant")

XY_RING = {"kind": "polynomial_ring", "variables": ["x", "y"], "z_mode": "zero_ideal"}


def _delay_ring(var: str, generators: list[int]) -> dict:
    return {"kind": "monomial_subalgebra", "variable": var,
            "generators": generators, "z_mode": "zero_constant_term"}


def _ratio(var: str, c: int, num_power: int, den_power: int) -> str:
    """The text of (1 - c^num_power v^num_power)/(1 - c^den_power v^den_power)."""
    def poly(power):
        coeff = c ** power
        return f"1 {'-' if coeff > 0 else '+'} {abs(coeff)}*{var}^{power}"
    return f"({poly(num_power)})/({poly(den_power)})"


def _column(ring: dict, rows: list[str]) -> dict:
    return {"ring": ring, "inputs": 1, "outputs": len(rows),
            "entries": [[r] for r in rows]}


def delay_column(var: str, *cs: int) -> dict:
    """n-output plant over Q[z^2,z^3], row i = (1 - c_i^3 z^3)/(1 - c_i^2 z^2)."""
    return _column(_delay_ring(var, [2, 3]), [_ratio(var, c, 3, 2) for c in cs])


def semigroup345(var: str, *cs: int) -> dict:
    """2-output plant over Q[z^3,z^4,z^5], row i = (1 - c_i^4 z^4)/(1 - c_i^3 z^3)."""
    return _column(_delay_ring(var, [3, 4, 5]), [_ratio(var, c, 4, 3) for c in cs])


def semigroup4567(var: str, *cs: int) -> dict:
    """2-output plant over Q[z^4..z^7], row i = (1 - c_i^5 z^5)/(1 - c_i^4 z^4)."""
    return _column(_delay_ring(var, [4, 5, 6, 7]), [_ratio(var, c, 5, 4) for c in cs])


def delay_2x2(var: str, a: int, b: int) -> dict:
    """2x2 plant over Q[z^2,z^3]: delay entries on the diagonal, z^2 and z^3 off it."""
    return {"ring": _delay_ring(var, [2, 3]), "inputs": 2, "outputs": 2,
            "entries": [[_ratio(var, a, 3, 2), f"{var}^2"],
                        [f"{var}^3", _ratio(var, b, 3, 2)]]}


def xy_stabilizable(c: int) -> dict:
    """[x; y] / (1 + c x y) over Q[x,y]: 1 = d - c*y*x, so it is stabilizable."""
    return _column(XY_RING, [f"x/(1 + {c}*x*y)", f"y/(1 + {c}*x*y)"])


def xy_unstabilizable(c: int) -> dict:
    """[x; x + c y] / y over Q[x,y]: every entry and d vanish at x = y = 0."""
    return _column(XY_RING, ["x/y", f"(x + {c}*y)/y"])


def _mirrored(*cs: int) -> list[tuple]:
    """The four work-preserving variants: c or -c, delay variable z or q."""
    neg = tuple(-c for c in cs)
    return [("z", *cs), ("z", *neg), ("q", *cs), ("q", *neg)]


# family -> (builder, the builder's arguments for each variant)
FAMILIES = {
    "delay2": (delay_column, [("z", 2, 3), ("z", 1, 3), ("z", -2, 3), ("q", 2, -3)]),
    "delay3": (delay_column, _mirrored(1, 2, 3)),
    "delay4": (delay_column, _mirrored(1, 2, 3, 4)),
    "sg345": (semigroup345, _mirrored(1, 2)),
    "sg4567": (semigroup4567, _mirrored(1, 2)),
    "mimo2x2": (delay_2x2, _mirrored(1, 2)),
    "xy_stab": (xy_stabilizable, [(2,), (3,), (5,), (7,)]),
    "xy_unstab": (xy_unstabilizable, [(2,), (3,), (5,), (7,)]),
}


def choose_variants(seed: int) -> dict[str, int]:
    """The variant index of every family for a seed (same seed, same inputs)."""
    rng = random.Random(seed)
    return {family: rng.randrange(len(variants))
            for family, (_, variants) in FAMILIES.items()}


def plant_bytes(family: str, variant: int) -> bytes:
    builder, variants = FAMILIES[family]
    return (json.dumps(builder(*variants[variant]), indent=2) + "\n").encode()


def all_plant_ids() -> list[str]:
    """Every plant id any seed can produce, fixtures first."""
    ids = [f"fixture.{name}" for name in FIXTURES]
    for family, (_, variants) in FAMILIES.items():
        ids += [f"{family}.v{k}" for k in range(len(variants))]
    return ids


def seed_plant_ids(seed: int) -> dict[str, str]:
    """Map from family (or fixture name) to the plant id a seed uses."""
    out = {name: f"fixture.{name}" for name in FIXTURES}
    for family, k in choose_variants(seed).items():
        out[family] = f"{family}.v{k}"
    return out


def family_of(plant_id: str) -> str:
    """The family (or fixture name) of a plant id such as delay3.v1 or fixture.xy_plant."""
    kind, _, rest = plant_id.partition(".")
    return rest if kind == "fixture" else kind


def plant_content(root: Path, plant_id: str) -> bytes:
    kind, _, rest = plant_id.partition(".")
    if kind == "fixture":
        return (root / "fixtures" / f"{rest}.json").read_bytes()
    return plant_bytes(kind, int(rest.lstrip("v")))


def write_plants(root: Path, plant_ids, out_dir: Path) -> dict[str, Path]:
    """Write each plant file into out_dir; returns plant id -> path."""
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = {}
    for pid in plant_ids:
        path = out_dir / f"{pid}.json"
        path.write_bytes(plant_content(root, pid))
        paths[pid] = path
    return paths


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()
