"""Optimal active sets of the contour base-point LP, generated by HiGHS.

contour_base_point solves one LP per constraint structure
(quadrature._BasePointLP).  An active set whose multipliers are all
positive gives the unique optimum wherever its vertex is feasible, so the
sets HiGHS finds optimal for the shipped structures are found once, here,
and each _BasePointLP starts from the sets listed under the digest of its
rows and cost, after checking each again.  The structures are the seven
eval_mb integrands and the Mellin splits with one to four inner
variables, the latter sampled at SAMPLES points s in [0.4, 2]^k drawn
from random.Random(SAMPLE_SEED).  Only unique optima are stored, so the
dict does not depend on the HiGHS version.  Regenerate it with

    python -m whittaker_mb._lp_seeds
"""

EVAL_STRUCTURES = (
    ("gl", 2), ("gl", 3), ("so_even", 2), ("so_odd", 1), ("so_odd", 2), ("sp", 1), ("sp", 2),
)
SPLITS = (("gl", 3), ("gl", 4), ("so_even", 3), ("so_odd", 2), ("sp", 2))
S_RANGE = (0.4, 2.0)
SAMPLES = 200
SAMPLE_SEED = 0

SEEDS = {
    # gl 2 wave function
    # so_odd 1 wave function
    # sp 1 wave function
    "38cc8c80042e3b6e": (
        (0, 1, 5),
    ),
    # gl 3 wave function
    "c5a0ab4c2d3f032f": (
        (1, 2, 4, 5, 6, 7, 17),
    ),
    # so_even 2 wave function
    "e382e7013cdfe3c1": (
        (0, 1, 2, 3, 10),
    ),
    # so_odd 2 wave function
    "e3db727015e8257d": (
        (0, 1, 2, 5, 8, 9, 10, 11, 24),
    ),
    # sp 2 wave function
    "4afd150569cba213": (
        (0, 1, 2, 6, 8, 9, 10, 11, 24),
    ),
    # gl 3 Mellin split
    "c77412f2978f26d5": (
        (0, 2, 3),
        (1, 2, 3),
    ),
    # gl 4 Mellin split
    "c086afd7e23f5992": (
        (0, 5, 6, 8, 9, 10, 11),
        (3, 5, 6, 8, 9, 10, 11),
    ),
    # so_even 3 Mellin split
    "b93e01b5e77c75da": (
        (0, 2, 8, 9, 10, 11, 12),
    ),
    # so_odd 2 Mellin split
    "3cc34351a0b24632": (
        (0, 1, 4, 6, 7),
        (0, 2, 4, 6, 7),
    ),
    # sp 2 Mellin split
    "ed215bcaa2c5f229": (
        (0, 1, 5, 6, 7),
        (0, 2, 5, 6, 7),
    ),
}


def generate():
    """The seed dict as HiGHS finds it from empty models, and a label
    naming the structures of each digest."""
    import random

    from .mellin import assemble_mb_integrand, mellin_of_whittaker
    from .quadrature import Infeasible, _BasePointLP

    seeds, labels = {}, {}

    def run(label, integrand, names, points):
        model = _BasePointLP(tuple(integrand.constraints), tuple(integrand.variables), names)
        model.stored.clear()
        for point in points:
            try:
                model(point)
            except Infeasible:
                pass
        if model.stored:
            sets = {tuple(rows.tolist()) for rows, _ in model.stored}
            seeds[model.digest] = tuple(sorted(sets | set(seeds.get(model.digest, ()))))
            labels.setdefault(model.digest, []).append(label)

    for family, n in EVAL_STRUCTURES:
        run(f"{family} {n} wave function", assemble_mb_integrand(family, n), (), [()])
    for family, n in SPLITS:
        split = mellin_of_whittaker(family, n)
        k = len(split.outer_vars)
        rng = random.Random(SAMPLE_SEED)
        points = [tuple(rng.uniform(*S_RANGE) for _ in range(k)) for _ in range(SAMPLES)]
        names = tuple(("s", j + 1) for j in range(k))
        run(f"{family} {n} Mellin split", split.inner, names, points)
    return seeds, labels


def _render(seeds, labels):
    lines = ["SEEDS = {"]
    for digest, sets in seeds.items():
        lines += [f"    # {label}" for label in labels[digest]]
        lines.append(f'    "{digest}": (')
        lines += [f"        {rows!r}," for rows in sets]
        lines.append("    ),")
    return "\n".join(lines + ["}"]) + "\n"


def main():
    from pathlib import Path

    path = Path(__file__)
    text = path.read_text()
    start = text.index("SEEDS = {")
    end = text.index("\n}\n", start) + 3
    path.write_text(text[:start] + _render(*generate()) + text[end:])


if __name__ == "__main__":
    main()
