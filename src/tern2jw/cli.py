"""Command-line front end.

One subcommand per operation, plain line-oriented text in and out, so the
outputs diff cleanly and pipe into each other (straighten's certificate
feeds verify unchanged).

Each subcommand is declared once, in _parser, which stores its handler and
the names of its inputs on the subparser's defaults; run_cli parses a
command's arguments with its subparser alone. Inputs come from
repeated -e flags or file paths; inline texts are consumed first (they are
invariably tree snippets, and the tree slots come first in every
subcommand). run_cli parses the TREE inputs and hands the handler the
trees and the raw text of any other input. generators and stats read the
tree's one generator set (tree_generators), so both run its self-check.

Exit codes: 0 success, 1 verification failed, 2 parse or usage error, a
tree too large to certify (over MAX_LETTER_CELLS generator letters), or a
tree past the exact oracle's limit (m > MAX_ORACLE_QUBITS = 12, whatever
--oracle-cap says).
"""

from __future__ import annotations

import argparse
import functools
import sys
from collections import Counter
from itertools import accumulate
from typing import Callable, Sequence

from .clifford import circuit_format, peephole_cancel
from .pauli import LETTERS
from .straighten import (
    TransformReport,
    certificate_format,
    certificate_parse,
    fix_signs,
    map_between,
    oracle_check,
    straighten,
    verify_transform,
)
from .tree import TernaryTree, _rows_product, tree_format, tree_generators, tree_parse

_LETTER_BYTES = bytes.maketrans(bytes(range(4)), LETTERS.encode())
DEFAULT_CAP = 8  # verify's default --oracle-cap; the library's oracle has none


@functools.cache
def _parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The argument parser and each subcommand's own parser, by name, built
    on the first call and reused after."""
    parser = argparse.ArgumentParser(
        prog="tern2jw",
        description="Synthesize and check Clifford circuits between "
        "ternary-tree fermion encodings and the Jordan-Wigner chain.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="subcommand")

    def add(name: str, handler: Callable, inputs: tuple[str, ...], help_text: str):
        sp = sub.add_parser(name, help=help_text)
        sp.set_defaults(handler=handler, inputs=inputs)
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

    add("generators", _cmd_generators, ("TREE",),
        "print the 2m+1 path products in canonical leaf order")
    st = add("straighten", _cmd_straighten, ("TREE",),
             "emit the chain-reduction certificate for a tree")
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
    add("map", _cmd_map, ("TREE_A", "TREE_B"),
        "emit the circuit taking the first tree's encoding to the second's")
    vf = add("verify", _cmd_verify, ("TREE", "CIRCUIT"), "check a certificate against its tree")
    vf.add_argument(
        "--oracle-cap",
        type=int,
        default=DEFAULT_CAP,
        metavar="N",
        help=f"largest m checked against the exact matrix oracle (default {DEFAULT_CAP})",
    )
    add("stats", _cmd_stats, ("TREE",), "print the generator weight histogram")
    add("augment", _cmd_augment, ("TREE",), "print the completed tree in canonical form")
    return parser, sub.choices


def _parsed(name: str, parse: Callable, text: str):
    """parse(text), with the input's name prefixed to a parse error."""
    try:
        return parse(text)
    except ValueError as exc:
        raise ValueError(f"{name}: {exc}") from None


def _read_inputs(args: argparse.Namespace) -> list:
    """The declared inputs in order: TREE inputs parsed, others as (name, text)."""
    texts = [("<inline>", text) for text in args.inline]
    for path in args.files:
        with open(path, "r", encoding="utf-8") as fh:
            texts.append((path, fh.read()))
    if len(texts) != len(args.inputs):
        raise ValueError(
            f"{args.command} needs {len(args.inputs)} input(s): {', '.join(args.inputs)};"
            f" got {len(texts)}"
        )
    return [
        _parsed(name, tree_parse, text) if kind.startswith("TREE") else (name, text)
        for kind, (name, text) in zip(args.inputs, texts)
    ]


def _cmd_generators(args: argparse.Namespace, t: TernaryTree) -> int:
    gens = tree_generators(t)  # its self-check raises on a library bug
    for j, letters in enumerate(gens.letters(), start=1):  # each of phase +1
        print(f"e{j} +{letters.translate(_LETTER_BYTES).decode()}")
    print(f"product {_rows_product(gens.rows(), len(gens), 0)}")
    return 0


def _cmd_straighten(args: argparse.Namespace, t: TernaryTree) -> int:
    result = straighten(t, swaps=args.swaps)
    if args.fix_signs:
        result = fix_signs(result)
    sys.stdout.write(certificate_format(result))
    return 0


def _cmd_map(args: argparse.Namespace, a: TernaryTree, b: TernaryTree) -> int:
    sys.stdout.write(circuit_format(peephole_cancel(map_between(a, b).circuit)))
    return 0


def _cmd_verify(args: argparse.Namespace, t: TernaryTree, cert_input: tuple[str, str]) -> int:
    name, text = cert_input
    cert = _parsed(name, functools.partial(certificate_parse, num_qubits=t.num_qubits), text)
    ok = _print_report("engine", verify_transform(t, cert))
    if t.num_qubits <= args.oracle_cap:
        ok = _print_report("oracle", oracle_check(t, cert)) and ok
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


def _cmd_stats(args: argparse.Namespace, t: TernaryTree) -> int:
    gens, m = tree_generators(t), t.num_qubits
    # qubit q is not I on its subtree's columns, x run start to z run end
    cover = [0] * (len(gens) + 1)  # differences of the counts
    for (lo, _), (_, hi) in zip(gens.runs[:m], gens.runs[m:]):
        cover[lo] += 1
        cover[hi] -= 1
    weights = list(accumulate(cover[:-1]))
    hist = Counter(weights)
    for w in sorted(hist):
        print(f"weight {w} {hist[w]}")
    print(f"max {max(weights)}")
    print(f"mean {sum(weights) / len(weights):.4f}")
    return 0


def _cmd_augment(args: argparse.Namespace, t: TernaryTree) -> int:
    print(tree_format(t))
    return 0


def run_cli(argv: Sequence[str] | None = None) -> int:
    parser, commands = _parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    # a named subcommand's own parser reads the rest in one argparse pass;
    # the full parser words the usage errors and the top-level help
    command = argv[0] if argv and not argv[0].startswith("-") else None
    try:
        if command in commands:
            args = commands[command].parse_args(argv[1:], argparse.Namespace(command=command))
        else:
            args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.handler(args, *_read_inputs(args))
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run_cli())
