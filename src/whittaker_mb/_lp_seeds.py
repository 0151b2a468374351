"""Optimal active sets of the contour base-point LPs, generated by HiGHS.

contour_base_point solves two LPs per constraint structure
(quadrature._LPPhase).  An active set whose multipliers are all positive
gives the unique optimum wherever its vertex is feasible, so the sets
HiGHS finds optimal for the shipped structures are found once, here, and
each _LPPhase starts from the sets listed under the digest of its rows
and cost, after checking each again.  The structures are the seven
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
    # gl 2 wave function, phase two
    # so_odd 1 wave function, phase two
    # sp 1 wave function, phase two
    "7e3fa82ce26a9b20": (
        (0, 1),
    ),
    # gl 3 wave function, phase two
    "9af989798350a04f": (
        (1, 2, 4, 5, 7, 9),
    ),
    # so_even 2 wave function, phase two
    "356a9692c3686d58": (
        (0, 1, 2, 4),
    ),
    # so_odd 2 wave function, phase two
    "7cc8140487cfb4de": (
        (0, 1, 2, 5, 8, 10, 12, 14),
    ),
    # sp 2 wave function, phase two
    "8ee085c4c6568a96": (
        (0, 1, 2, 6, 8, 10, 12, 14),
    ),
    # gl 3 Mellin split, phase one
    "ec4fb4c6c45e971f": (
        (0, 2),
        (1, 2),
    ),
    # gl 3 Mellin split, phase two
    "45f3d9a80f808729": (
        (2, 3),
    ),
    # gl 4 Mellin split, phase two
    "b52c70dfb1fd24c4": (
        (5, 6, 8, 9, 11, 13),
    ),
    # so_even 3 Mellin split, phase one
    "8d2027ecb264791d": (
        (0, 2, 8, 9),
    ),
    # so_even 3 Mellin split, phase two
    "6556d68daf578fdb": (
        (0, 8, 9, 10, 12, 14),
    ),
    # so_odd 2 Mellin split, phase one
    "2d1289ff9080111f": (
        (0, 1, 4),
        (0, 2, 4),
    ),
    # so_odd 2 Mellin split, phase two
    "1e7e81855dfc30a3": (
        (0, 4, 6, 8),
    ),
    # sp 2 Mellin split, phase one
    "61394ab2bdbcdfd2": (
        (0, 1, 5),
        (0, 2, 5),
    ),
    # sp 2 Mellin split, phase two
    "5fea9b6104eb011c": (
        (0, 5, 6, 8),
    ),
}


def generate():
    """The seed dict as HiGHS finds it from empty phases, and a label
    naming the structures and phase of each digest."""
    import random

    from .mellin import assemble_mb_integrand, mellin_of_whittaker
    from .quadrature import Infeasible, _BasePointLP, _inner_integrand, contour_base_point

    margin, cap = contour_base_point.__defaults__[-2:]
    seeds, labels = {}, {}

    def run(label, integrand, names, points):
        model = _BasePointLP(
            tuple(integrand.constraints), tuple(integrand.variables), names, margin, cap
        )
        phases = (("phase one", model.phase1), ("phase two", model.phase2))
        for _, phase in phases:
            phase.stored.clear()
        for point in points:
            try:
                model(point)
            except Infeasible:
                pass
        for name, phase in phases:
            if phase.stored:
                sets = {tuple(rows.tolist()) for rows, _ in phase.stored}
                seeds[phase.digest] = tuple(sorted(sets | set(seeds.get(phase.digest, ()))))
                labels.setdefault(phase.digest, []).append(f"{label}, {name}")

    for family, n in EVAL_STRUCTURES:
        run(f"{family} {n} wave function", assemble_mb_integrand(family, n), (), [()])
    for family, n in SPLITS:
        split = mellin_of_whittaker(family, n)
        k = len(split.outer_vars)
        rng = random.Random(SAMPLE_SEED)
        points = [tuple(rng.uniform(*S_RANGE) for _ in range(k)) for _ in range(SAMPLES)]
        names = tuple(("s", j + 1) for j in range(k))
        run(f"{family} {n} Mellin split", _inner_integrand(split), names, points)
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
