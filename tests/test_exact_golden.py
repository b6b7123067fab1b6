"""Printed exact-layer output against a committed corpus.

Seeded targets in dims 2-6, with coefficients over mixed monomials and log
powers 0-2, are put through the representation search, the formal
transform, the mass-scale derivative, the inverse transform and the surface
expansion, and everything printed is compared byte for byte with
``tests/data/exact_golden.txt``.  Regenerate the corpus (only for a change
that is meant to alter the printed output) with

    PYTHONPATH=src python tests/test_exact_golden.py
"""

import random
from pathlib import Path

from diffreg.algebra import PositionFunction
from diffreg.fourier import cs_derivative, fourier_base, fourier_formal, inverse_fourier_base
from diffreg.parser import parse_position
from diffreg.printer import format_momentum, format_operator, format_position
from diffreg.regulate import find_representation
from diffreg.surface import surface_expansion

CORPUS = Path(__file__).resolve().parent / "data" / "exact_golden.txt"

# monomials over (pi, gammaE, ln2, zeta3), mixed products among them
_MONOS = ("", "pi", "gammaE", "ln2", "zeta3", "pi^2", "pi*gammaE", "ln2^2*zeta3")


def _coefficient(rng: random.Random) -> str:
    parts = []
    for mono in rng.sample(_MONOS, rng.randint(1, 3)):
        q = f"{rng.randint(1, 40)}/{rng.randint(1, 12)}"
        parts.append(f"{rng.choice('+-')} {q}{'*' + mono if mono else ''}")
    return " ".join(parts).removeprefix("+ ")


def _targets(count_per_dim: int = 8):
    """(dim, target text): box^m applied to a seed whose exponents lie in
    the window -n < e <= min(-1, 2m - n), so that the target is
    representable."""
    rng = random.Random("exact-golden")
    for n in (2, 3, 4, 5, 6):
        for _ in range(count_per_dim):
            m = rng.randint(1, 3)
            exps = list(range(-n + 1, min(-1, 2 * m - n) + 1))
            pairs = [(e, k) for e in exps for k in range(3)]
            seed = " + ".join(f"({_coefficient(rng)})*r^{e}*log(r^2*M^2)^{k}"
                              for e, k in rng.sample(pairs, min(len(pairs), rng.randint(1, 3))))
            yield n, f"box^{m}*({seed})"


def corpus() -> str:
    out = []
    for n, text in _targets():
        # away from the origin: a resonant seed term leaves deltas there
        target = PositionFunction.build(n, parse_position(text, n).radial)
        if target.is_zero():  # the seed lay wholly in the kernel of box^m
            continue
        rep = find_representation(target)
        F = fourier_formal(rep)
        out += [
            f"dim {n}: {text}",
            f"target: {format_position(target)}",
            f"seed: {format_position(rep.g)}",
            f"L: {format_operator(rep.L)}",
            f"F: {format_momentum(F)}",
            f"cs: {format_momentum(cs_derivative(F))}",
            f"inverse: {format_position(inverse_fourier_base(fourier_base(rep.g)))}",
        ]
        se = surface_expansion(rep.L, rep.g)
        out += [f"surface eps^{m} log^{k}: {format_momentum(E)}" for (m, k), E in se.entries]
        out.append("")
    return "\n".join(out)


def test_printed_output_matches_corpus():
    assert corpus() == CORPUS.read_text()


if __name__ == "__main__":
    CORPUS.parent.mkdir(exist_ok=True)
    CORPUS.write_text(corpus())
