"""Command-line front end.

One subcommand per operation, plain line-oriented text in and out, so the
outputs diff cleanly and pipe into each other (straighten's certificate
feeds verify unchanged).

Inputs come from repeated -e flags or file paths; inline texts are consumed
first (they are invariably tree snippets, and the tree slots come first in
every subcommand).

Exit codes: 0 success, 1 verification failed, 2 parse or usage error, a
tree too large to certify (over MAX_LETTER_CELLS letter-matrix cells), or
a tree too large for the dense oracle (a 4^m-entry matrix over
MAX_LETTER_CELLS bytes, i.e. m >= 13, whatever --oracle-cap says).
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from typing import Callable, Sequence

from .clifford import circuit_format, peephole_cancel
from .oracle import DEFAULT_CAP, oracle_check
from .pauli import LETTERS
from .straighten import (
    TransformReport,
    certificate_format,
    certificate_parse,
    fix_signs,
    map_between,
    straighten,
    verify_transform,
)
from .tree import TernaryTree, _batch_product, tree_format, tree_generators, tree_parse

_NEEDS = {
    "generators": ("TREE",),
    "straighten": ("TREE",),
    "map": ("TREE_A", "TREE_B"),
    "verify": ("TREE", "CIRCUIT"),
    "stats": ("TREE",),
    "augment": ("TREE",),
}
_LETTER_BYTES = bytes.maketrans(bytes(range(4)), LETTERS.encode())


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tern2jw",
        description="Synthesize and check Clifford circuits between "
        "ternary-tree fermion encodings and the Jordan-Wigner chain.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="subcommand")

    def add(name: str, help_text: str) -> argparse.ArgumentParser:
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("files", nargs="*", metavar="FILE", help="input file(s)")
        sp.add_argument(
            "-e",
            dest="inline",
            action="append",
            default=[],
            metavar="TEXT",
            help="inline input text, used before any files",
        )
        return sp

    add("generators", "print the 2m+1 path products in canonical leaf order")
    st = add("straighten", "emit the chain-reduction certificate for a tree")
    st.add_argument(
        "--fix-signs",
        action="store_true",
        help="append the Pauli layer that makes ranks 1..2m positive",
    )
    st.add_argument(
        "--swaps",
        action="store_true",
        help="realize the qubit reordering as SWAP gates (PERM becomes 1..m)",
    )
    add("map", "emit the circuit taking the first tree's encoding to the second's")
    vf = add("verify", "check a certificate against its tree")
    vf.add_argument(
        "--oracle-cap",
        type=int,
        default=DEFAULT_CAP,
        metavar="N",
        help=f"largest m checked against the dense matrix oracle (default {DEFAULT_CAP})",
    )
    add("stats", "print the generator weight histogram")
    add("augment", "print the completed tree in canonical form")
    return parser


def _gather_inputs(args: argparse.Namespace) -> list[tuple[str, str]]:
    texts = [("<inline>", text) for text in args.inline]
    for path in args.files:
        with open(path, "r", encoding="utf-8") as fh:
            texts.append((path, fh.read()))
    names = _NEEDS[args.command]
    if len(texts) != len(names):
        raise ValueError(
            f"{args.command} needs {len(names)} input(s): {', '.join(names)};"
            f" got {len(texts)}"
        )
    return texts


def _parse_tree(name: str, text: str) -> TernaryTree:
    try:
        return tree_parse(text)
    except ValueError as exc:
        raise ValueError(f"{name}: {exc}") from None


def _cmd_generators(args: argparse.Namespace) -> int:
    (name, text), = _gather_inputs(args)
    gens = tree_generators(_parse_tree(name, text))
    for j, column in enumerate(gens.letters.T, start=1):  # each of phase +1
        print(f"e{j} +{column.tobytes().translate(_LETTER_BYTES).decode()}")
    print(f"product {_batch_product(gens.letters, 0)}")
    return 0


def _cmd_straighten(args: argparse.Namespace) -> int:
    (name, text), = _gather_inputs(args)
    result = straighten(_parse_tree(name, text), swaps=args.swaps)
    if args.fix_signs:
        result = fix_signs(result)
    sys.stdout.write(certificate_format(result))
    return 0


def _cmd_map(args: argparse.Namespace) -> int:
    (name_a, text_a), (name_b, text_b) = _gather_inputs(args)
    result = map_between(_parse_tree(name_a, text_a), _parse_tree(name_b, text_b))
    sys.stdout.write(circuit_format(peephole_cancel(result.circuit)))
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    (tree_name, tree_text), (cert_name, cert_text) = _gather_inputs(args)
    t = _parse_tree(tree_name, tree_text)
    try:
        cert = certificate_parse(cert_text, num_qubits=t.num_qubits)
    except ValueError as exc:
        raise ValueError(f"{cert_name}: {exc}") from None
    ok = _print_report("engine", verify_transform(t, cert))
    if t.num_qubits <= args.oracle_cap:
        ok = _print_report("oracle", oracle_check(t, cert, cap=args.oracle_cap)) and ok
    else:
        print(f"oracle skip m={t.num_qubits} cap={args.oracle_cap}")
    return 0 if ok else 1


def _print_report(check: str, report: TransformReport) -> bool:
    """Print one check's verdict line; True when it passed."""
    if report.ok:
        print(f"{check} pass")
    else:
        print(f"{check} fail " + " ".join(f"e{j}" for j in report.failed_ranks))
    return report.ok


def _cmd_stats(args: argparse.Namespace) -> int:
    (name, text), = _gather_inputs(args)
    gens = tree_generators(_parse_tree(name, text))
    weights = (gens.letters != 0).sum(axis=0).tolist()
    hist = Counter(weights)
    for w in sorted(hist):
        print(f"weight {w} {hist[w]}")
    print(f"max {max(weights)}")
    print(f"mean {sum(weights) / len(weights):.4f}")
    return 0


def _cmd_augment(args: argparse.Namespace) -> int:
    (name, text), = _gather_inputs(args)
    print(tree_format(_parse_tree(name, text)))
    return 0


_COMMANDS: dict[str, Callable[[argparse.Namespace], int]] = {
    "generators": _cmd_generators,
    "straighten": _cmd_straighten,
    "map": _cmd_map,
    "verify": _cmd_verify,
    "stats": _cmd_stats,
    "augment": _cmd_augment,
}


def run_cli(argv: Sequence[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run_cli())
