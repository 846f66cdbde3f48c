"""Output checks, run outside the timed region.

Every pass: both commands exit 0, verify prints `engine pass` (and `oracle
pass` when m is within the oracle cap), and the certificate is identical
to the one checked in the first pass. In the first pass each certificate
is also checked on its own terms: PERM and SIGNS are well formed, and tree
generators are re-derived one string at a time through
tern2jw.clifford.conjugate_circuit, independent of the batch engine under
measurement. All 2m+1 generators are re-derived when m is within the cap,
and their ranks must cover 1..2m+1; larger trees get a seeded sample.
"""

from __future__ import annotations

import random
from collections import Counter

from workloads import TreeInput

ORACLE_CAP = 8  # tern2jw verify's default --oracle-cap
SAMPLED_GENERATORS = 2
DIRECTIVES = ("QUBITS", "PERM", "SIGNS")


def verdict_problems(tree: TreeInput, verdict: str) -> list[str]:
    lines = verdict.splitlines()
    problems = []
    if lines[:1] != ["engine pass"]:
        problems.append(f"verify printed {verdict.strip()!r}, not 'engine pass'")
    if tree.m <= ORACLE_CAP and "oracle pass" not in lines:
        problems.append(f"verify printed {verdict.strip()!r} without 'oracle pass'")
    return problems


def gate_counts(cert: str) -> Counter:
    """Gates in certificate text, by kind."""
    kinds = (line.split(None, 1)[0] for line in cert.splitlines() if line.strip())
    return Counter(kind for kind in kinds if kind not in DIRECTIVES)


def certificate_problems(tree: TreeInput, cert: str, rng: random.Random) -> list[str]:
    from tern2jw.clifford import circuit_parse, conjugate_circuit
    from tern2jw.pauli import PauliString

    m, n = tree.m, 2 * tree.m + 1
    found = {}
    for line in cert.splitlines():
        tokens = line.split()
        if tokens and tokens[0] in ("PERM", "SIGNS"):
            found[tokens[0]] = tokens[1:]
    perm = [int(tok) if tok.isdigit() else 0 for tok in found.get("PERM", [])]
    signs = found.get("SIGNS", [])
    if sorted(perm) != list(range(1, m + 1)):
        return [f"PERM is not a permutation of 1..{m}"]
    if len(signs) != n or set(signs) - {"+", "-"}:
        return [f"SIGNS is not {n} entries of + and -"]
    try:
        circuit, _ = circuit_parse(cert, m, directives=("PERM", "SIGNS"))
    except ValueError as exc:
        return [f"certificate does not parse: {exc}"]

    full = m <= ORACLE_CAP
    picks = range(n) if full else sorted(rng.sample(range(n), SAMPLED_GENERATORS))
    problems, ranks = [], []
    for j, letters in _leaf_products(tree, picks):
        image = conjugate_circuit(circuit, PauliString(letters))
        renamed = tuple(image.letters[q - 1] for q in perm)
        match = _jw_rank(renamed, image.phase)
        if match is None:
            problems.append(f"generator {j + 1} does not map onto a signed JW string")
            continue
        rank, sign = match
        if sign != (1 if signs[j] == "+" else -1):
            problems.append(f"generator {j + 1} has sign {sign:+d}, SIGNS says {signs[j]}")
        ranks.append(rank)
    if len(set(ranks)) != len(ranks):
        problems.append(f"re-derived ranks repeat: {sorted(ranks)}")
    elif full and sorted(ranks) != list(range(1, n + 1)) and not problems:
        problems.append(f"re-derived ranks {sorted(ranks)} do not cover 1..{n}")
    return problems


def _leaf_products(tree: TreeInput, picks) -> list[tuple[int, tuple[int, ...]]]:
    """Letter codes (1 x, 2 y, 3 z) of the picked leaves' path products.

    Leaves are ranked depth-first with x < y < z, the order of the tree's
    generators.
    """
    parent: dict[int, tuple[int, int]] = {}
    leaves: list[tuple[int, int]] = []
    stack = [(tree.root, 0)]
    while stack:
        q, slot = stack.pop()
        if slot == 3:
            continue
        stack.append((q, slot + 1))
        child = tree.kids[q - 1][slot]
        if child:
            parent[child] = (q, slot)
            stack.append((child, 0))
        else:
            leaves.append((q, slot))
    out = []
    for j in picks:
        letters = [0] * tree.m
        q, slot = leaves[j]
        while True:
            letters[q - 1] = slot + 1
            if q not in parent:
                break
            q, slot = parent[q]
        out.append((j, tuple(letters)))
    return out


def _jw_rank(letters: tuple[int, ...], phase: int) -> tuple[int, int] | None:
    """(rank, sign) when the string is a signed JW generator, else None.

    Written here rather than taken from the library so the check stays
    independent of the code it checks.
    """
    if phase not in (0, 2):
        return None
    sign = 1 if phase == 0 else -1
    for i, letter in enumerate(letters):
        if letter == 3:
            continue
        if letter not in (1, 2) or any(letters[i + 1 :]):
            return None
        return 2 * i + letter, sign
    return 2 * len(letters) + 1, sign
