import math
import os
import re
import shlex
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import tern2jw
from tern2jw import (
    circuit_parse,
    conjugate_circuit,
    full_ternary,
    jw_chain,
    pauli_format,
    random_tree,
    tree_format,
    tree_generators,
    tree_leaves,
    tree_parse,
)
from tern2jw import cli
from tern2jw.cli import run_cli
from tern2jw.engine import GATE_CODES
from tern2jw.oracle import MAX_ORACLE_QUBITS
from tern2jw.pauli import PauliString
from tern2jw.straighten import MAX_LETTER_CELLS

from conftest import BINARY3, TRIPLE_FORK
from reference import path_product, pauli_mul, pauli_weight
from shapes import realize, shapes

JW4 = "(q1 :z (q2 :z (q3 :z (q4))))"
SRC = Path(__file__).resolve().parents[1] / "src"


def _run(capsys, *argv):
    code = run_cli(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _fresh(*argv):
    """Run a Python interpreter with this checkout's src/ on its path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True, env=env)


def test_generators_golden(capsys):
    code, out, err = _run(capsys, "generators", "-e", BINARY3)
    assert code == 0 and err == ""
    assert out == (
        "e1 +XXI\n"
        "e2 +XYI\n"
        "e3 +XZI\n"
        "e4 +YIX\n"
        "e5 +YIY\n"
        "e6 +YIZ\n"
        "e7 +ZII\n"
        "product -iIII\n"
    )


def test_generators_from_file(tmp_path, capsys):
    f = tmp_path / "tree.txt"
    f.write_text(BINARY3)
    code, out, _ = _run(capsys, "generators", str(f))
    assert code == 0
    assert out.endswith("product -iIII\n")


def test_straighten_fixed_point_golden(capsys):
    code, out, err = _run(capsys, "straighten", "-e", JW4)
    assert code == 0 and err == ""
    assert out == "QUBITS 4\nPERM 1 2 3 4\nSIGNS + + + + + + + + +\n"


def test_straighten_golden_same_depth_forks(capsys):
    # nodes take their turns in reversed walk order, children first: the
    # fork on the z branch (q4) before the fork on the x branch (q5), then
    # the root; the CZ order pins that order. Single-qubit gates wait on
    # their wire for its next CZ (the root's S rides past CZ 1 3 as a
    # diagonal remainder) or for the end.
    tree = "(q1 :x (q5 :x (q2) :y (q6)) :y (q3) :z (q4 :y (q7) :z (q8)))"
    code, out, err = _run(capsys, "straighten", "-e", tree)
    assert code == 0 and err == ""
    assert out == (
        "QUBITS 8\n"
        "H 4\nCZ 4 8\n"
        "CZ 2 5\n"
        "CZ 1 3\nS 1\nH 1\nS 4\nH 4\nCZ 1 4\nCZ 1 8\nCZ 1 7\n"
        "S 1\nH 1\nS 5\nH 5\n"
        "PERM 1 7 8 4 3 5 2 6\n"
        "SIGNS - + - - - - + - + - - - + - - - -\n"
    )
    assert _run(capsys, "verify", "-e", tree, "-e", out) == (0, "engine pass\noracle pass\n", "")


def test_straighten_output_feeds_verify(tmp_path, capsys):
    code, cert, _ = _run(capsys, "straighten", "-e", TRIPLE_FORK)
    assert code == 0
    cert_file = tmp_path / "cert.txt"
    cert_file.write_text(cert)
    code, out, err = _run(capsys, "verify", "-e", TRIPLE_FORK, str(cert_file))
    assert code == 0, err
    assert out == "engine pass\noracle pass\n"


@pytest.mark.parametrize("flags", [("--fix-signs",), ("--swaps",), ("--fix-signs", "--swaps")])
def test_straighten_flag_variants_verify(tmp_path, capsys, flags):
    code, cert, _ = _run(capsys, "straighten", *flags, "-e", TRIPLE_FORK)
    assert code == 0
    cert_file = tmp_path / "cert.txt"
    cert_file.write_text(cert)
    code, out, _ = _run(capsys, "verify", "-e", TRIPLE_FORK, str(cert_file))
    assert code == 0
    assert "engine pass" in out and "oracle pass" in out


def test_straighten_fix_signs_clears_movable_ranks(capsys):
    from tern2jw import fix_signs, straighten

    code, cert, _ = _run(capsys, "straighten", "--fix-signs", "-e", TRIPLE_FORK)
    assert code == 0
    signs_line = next(l for l in cert.splitlines() if l.startswith("SIGNS"))
    tokens = signs_line.split()[1:]
    # token j belongs to generator j, whose chain rank straighten records;
    # every rank up to 2m must come out positive
    ranks = fix_signs(straighten(tree_parse(TRIPLE_FORK))).ranks
    assert len(tokens) == 15
    assert all(tok == "+" for tok, rank in zip(tokens, ranks) if rank <= 14)


def test_straighten_swaps_identity_perm(capsys):
    code, cert, _ = _run(capsys, "straighten", "--swaps", "-e", TRIPLE_FORK)
    assert code == 0
    assert "PERM 1 2 3 4 5 6 7\n" in cert
    assert "SWAP" in cert


def test_verify_rejects_corrupted_certificate(tmp_path, capsys):
    code, cert, _ = _run(capsys, "straighten", "-e", TRIPLE_FORK)
    assert code == 0
    signs_line = next(l for l in cert.splitlines() if l.startswith("SIGNS"))
    tokens = signs_line.split()
    tokens[1] = "-" if tokens[1] == "+" else "+"
    bad = cert.replace(signs_line, " ".join(tokens))
    cert_file = tmp_path / "bad.txt"
    cert_file.write_text(bad)
    code, out, _ = _run(capsys, "verify", "-e", TRIPLE_FORK, str(cert_file))
    assert code == 1
    assert "engine fail e1" in out
    assert "oracle fail e1" in out


def test_verify_oracle_skip(tmp_path, capsys):
    code, cert, _ = _run(capsys, "straighten", "-e", TRIPLE_FORK)
    cert_file = tmp_path / "cert.txt"
    cert_file.write_text(cert)
    code, out, _ = _run(
        capsys, "verify", "--oracle-cap", "5", "-e", TRIPLE_FORK, str(cert_file)
    )
    assert code == 0
    assert out == "engine pass\noracle skip m=7 cap=5\n"


def test_verify_at_the_oracles_widest(capsys):
    # sign-fixed certificates of random trees on 12 qubits, the most the
    # oracle takes, pass both checks; one deleted gate or one flipped SIGNS
    # entry fails both, on the same generators
    assert MAX_ORACLE_QUBITS == 12
    for seed in (3, 4):
        tree = tree_format(random_tree(12, seed))
        code, cert, _ = _run(capsys, "straighten", "--fix-signs", "-e", tree)
        assert code == 0
        verify = ("verify", "--oracle-cap", "12", "-e", tree, "-e")
        assert _run(capsys, *verify, cert) == (0, "engine pass\noracle pass\n", "")
        lines = cert.splitlines(keepends=True)
        gates = [i for i, line in enumerate(lines) if line.split()[0] in GATE_CODES]
        deleted = (gates[0], gates[len(gates) // 2], gates[-1])
        tampered = ["".join(lines[:i] + lines[i + 1 :]) for i in deleted]
        signs = next(i for i, line in enumerate(lines) if line.startswith("SIGNS"))
        for j in (1, 13, 25):
            tokens = lines[signs].split()
            tokens[j] = "-" if tokens[j] == "+" else "+"
            tampered.append("".join(lines[:signs] + [" ".join(tokens) + "\n"] + lines[signs + 1 :]))
        for bad in tampered:
            code, out, err = _run(capsys, *verify, bad)
            engine, oracle = out.splitlines()
            assert (code, err) == (1, "") and engine.startswith("engine fail e"), out
            assert oracle == "oracle fail" + engine[len("engine fail") :], out


def test_verify_refuses_oracle_over_dense_limit(tmp_path, capsys):
    # 13 qubits are past the oracle's own limit whatever --oracle-cap allows
    tree = tree_format(jw_chain(13))
    code, cert, _ = _run(capsys, "straighten", "-e", tree)
    cert_file = tmp_path / "cert.txt"
    cert_file.write_text(cert)
    code, out, err = _run(
        capsys, "verify", "--oracle-cap", "40", "-e", tree, str(cert_file)
    )
    assert code == 2
    assert out == "engine pass\n"
    assert err.startswith("error:") and f"limit of {MAX_ORACLE_QUBITS} qubits" in err


def test_verify_malformed_certificate(tmp_path, capsys):
    cert_file = tmp_path / "nonsense.txt"
    cert_file.write_text("PERM 1 2\n")
    code, out, err = _run(capsys, "verify", "-e", "(q1 :z (q2))", str(cert_file))
    assert code == 2
    assert err.startswith("error:")
    assert "SIGNS" in err


def test_map_self_is_empty(capsys):
    code, out, _ = _run(capsys, "map", "-e", TRIPLE_FORK, "-e", TRIPLE_FORK)
    assert code == 0
    assert out == "QUBITS 7\n"


def test_map_semantics(capsys):
    a = jw_chain(3)
    code, out, _ = _run(
        capsys, "map", "-e", "(q1 :z (q2 :z (q3)))", "-e", BINARY3
    )
    assert code == 0
    circuit, _ = circuit_parse(out)
    b_letters = {p.letters for p in tree_generators(tree_parse(BINARY3)).strings}
    for p in tree_generators(a).strings:
        img = conjugate_circuit(circuit, p)
        assert img.phase in (0, 2)
        assert img.letters in b_letters


def test_stats_full_ternary_golden(capsys):
    text = tree_format(full_ternary(2))
    code, out, _ = _run(capsys, "stats", "-e", text)
    assert code == 0
    assert out == "weight 3 27\nmax 3\nmean 3.0000\n"


def test_stats_binary_tree_golden(capsys):
    code, out, _ = _run(capsys, "stats", "-e", BINARY3)
    assert code == 0
    assert out == "weight 1 1\nweight 2 6\nmax 2\nmean 1.8571\n"


def _path_products(t):
    return [path_product(t, path) for path in tree_leaves(t)]


def _generators_text(t):
    strings = _path_products(t)
    product = strings[0]
    for p in strings[1:]:
        product = pauli_mul(product, p)
    lines = [f"e{j} {pauli_format(p)}" for j, p in enumerate(strings, start=1)]
    return "\n".join(lines + [f"product {pauli_format(product)}"]) + "\n"


def _stats_text(t):
    weights = [pauli_weight(p) for p in _path_products(t)]
    hist = Counter(weights)
    lines = [f"weight {w} {hist[w]}" for w in sorted(hist)]
    lines += [f"max {max(weights)}", f"mean {sum(weights) / len(weights):.4f}"]
    return "\n".join(lines) + "\n"


# every shape with m <= 7, and two trees wide enough that generators
# prints them in more than one block of columns (448 and 832 columns a
# block), shared out among the seeds below
_SHAPES_AND_WIDE = [realize(s) for m in range(1, 8) for s in shapes(m)]
_SHAPES_AND_WIDE += [full_ternary(6), random_tree(600, 7)]


@pytest.mark.parametrize("seed", (0, 1, 2))
def test_generators_and_stats_match_path_products(capsys, seed):
    for t in [random_tree(m, seed) for m in range(1, 41)] + _SHAPES_AND_WIDE[seed::3]:
        text = tree_format(t)
        assert _run(capsys, "generators", "-e", text) == (0, _generators_text(t), "")
        assert _run(capsys, "stats", "-e", text) == (0, _stats_text(t), "")


def test_generators_and_stats_on_long_chain(capsys):
    m = 1500
    text = tree_format(jw_chain(m))
    code, out, _ = _run(capsys, "generators", "-e", text)
    lines = out.splitlines()
    assert code == 0 and len(lines) == 2 * m + 2
    # the pair at node k multiplies to i Z_k, and the last generator is the
    # all-Z string, so the JW set multiplies to i^m times identity
    assert lines[-1] == "product " + pauli_format(PauliString((0,) * m, m % 4))
    code, out, _ = _run(capsys, "stats", "-e", text)
    # ranks 2k-1 and 2k have weight k, rank 2m+1 has weight m
    hist = [f"weight {k} 2" for k in range(1, m)] + [f"weight {m} 3"]
    mean = f"mean {m * (m + 2) / (2 * m + 1):.4f}"
    assert code == 0 and out.splitlines() == hist + [f"max {m}", mean]


def test_augment_canonicalizes(capsys):
    code, out, _ = _run(capsys, "augment", "-e", "(q1 :y (q3) :x (q2))")
    assert code == 0
    assert out == "(q1 :x (q2) :y (q3))\n"
    assert tree_parse(out) == tree_parse(BINARY3)


def test_missing_file(capsys):
    code, _, err = _run(capsys, "generators", "/nonexistent/tree.txt")
    assert code == 2
    assert err.startswith("error:")


def test_oversized_tree_exits_2(tmp_path, capsys):
    m = math.isqrt(MAX_LETTER_CELLS // 2) + 1  # generator letters just over the cap
    tree = tmp_path / "chain.txt"
    tree.write_text(tree_format(jw_chain(m)))
    for command in ("straighten", "generators", "stats"):
        code, out, err = _run(capsys, command, str(tree))
        assert code == 2 and out == "", command
        assert f"m={m} " in err and f"cap of {MAX_LETTER_CELLS} cells" in err, command
    cert = tmp_path / "cert.txt"
    perm = " ".join(str(q) for q in range(1, m + 1))
    cert.write_text(f"PERM {perm}\nSIGNS {' '.join('+' * (2 * m + 1))}\n")
    code, out, err = _run(capsys, "verify", str(tree), str(cert))
    assert code == 2 and out == "" and f"m={m} " in err


def test_wrong_input_count(capsys):
    code, _, err = _run(capsys, "map", "-e", BINARY3)
    assert code == 2
    assert "map needs 2 input(s)" in err
    code, _, err = _run(capsys, "generators", "-e", BINARY3, "-e", BINARY3)
    assert code == 2
    assert "generators needs 1 input(s)" in err


def test_unknown_subcommand(capsys):
    code, _, _ = _run(capsys, "shuffle", "-e", BINARY3)
    assert code == 2


def test_tree_parse_error_reports_position(capsys):
    code, _, err = _run(capsys, "generators", "-e", "(q1 :w (q2))")
    assert code == 2
    assert err.startswith("error: <inline>:")
    assert "position" in err


def test_inline_text_fills_first_slot(tmp_path, capsys):
    # -e gives the tree, the file the certificate, regardless of argv order
    code, cert, _ = _run(capsys, "straighten", "-e", JW4)
    cert_file = tmp_path / "cert.txt"
    cert_file.write_text(cert)
    code, out, _ = _run(capsys, "verify", str(cert_file), "-e", JW4)
    assert code == 0
    assert "engine pass" in out


def test_calls_in_one_process_match_fresh_interpreters(capsys):
    # the parser is built once and reused: flags, -e lists and the oracle
    # cap of one call must not leak into the next
    _, cert, _ = _run(capsys, "straighten", "-e", TRIPLE_FORK)
    calls = [
        ("straighten", "--fix-signs", "--swaps", "-e", TRIPLE_FORK),
        ("straighten", "-e", TRIPLE_FORK),
        ("verify", "-e", TRIPLE_FORK, "-e", cert),
        ("generators", "-e", BINARY3),
        ("verify", "--oracle-cap", "3", "-e", TRIPLE_FORK, "-e", cert),
        ("verify", "-e", TRIPLE_FORK, "-e", cert),
    ]
    expected = []
    for argv in calls:
        proc = _fresh("-m", "tern2jw", *argv)
        expected.append((proc.returncode, proc.stdout, proc.stderr))
    assert [_run(capsys, *argv) for argv in calls] == expected
    assert expected[1][1] == cert and expected[4][1] == "engine pass\noracle skip m=7 cap=3\n"
    assert cli._parser.cache_info().misses == 1


def test_subcommands_parse_in_one_pass(capsys, monkeypatch):
    # run_cli reads a named subcommand's arguments with its own parser:
    # the handler gets the Namespace the full parser gives, and usage
    # errors still exit 2
    parser, commands = cli._parser()
    _, cert, _ = _run(capsys, "straighten", "-e", TRIPLE_FORK)
    calls = [
        ("generators", "-e", BINARY3),
        ("straighten", "--fix-signs", "--swaps", "-e", TRIPLE_FORK),
        ("map", "-e", "(q1 :z (q2 :z (q3)))", "-e", BINARY3),
        ("verify", "--oracle-cap", "3", "-e", TRIPLE_FORK, "-e", cert),
        ("stats", "-e", BINARY3),
        ("augment", "-e", BINARY3),
    ]
    assert sorted(argv[0] for argv in calls) == sorted(commands)
    seen = []
    read_inputs = cli._read_inputs
    monkeypatch.setattr(cli, "_read_inputs", lambda args: seen.append(args) or read_inputs(args))
    for argv in calls:
        code, out, err = _run(capsys, *argv)
        assert code == 0 and out and not err, argv
        assert vars(seen.pop()) == vars(parser.parse_args(argv)), argv
    for argv, message in (
        (
            ("straighten", "--bogus", "-e", TRIPLE_FORK),
            "tern2jw straighten: error: unrecognized arguments: --bogus",
        ),
        ((), "tern2jw: error: the following arguments are required: subcommand"),
        (("frob",), "tern2jw: error: argument subcommand: invalid choice: 'frob'"),
        (("-e", BINARY3, "stats"), "tern2jw: error: argument subcommand: invalid choice"),
    ):
        code, out, err = _run(capsys, *argv)
        assert code == 2 and not out and message in err, (argv, err)
    assert cli._parser.cache_info().misses == 1


def test_module_entry_point():
    proc = _fresh("-m", "tern2jw", "generators", "-e", BINARY3)
    assert proc.returncode == 0
    assert proc.stdout.endswith("product -iIII\n")


def test_readme_library_example():
    # the README's `## Library` block runs as written, and imports only
    # names that tern2jw.__all__ lists
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## Library\n+```python\n(.*?)```", readme, re.S).group(1)
    imported = re.findall(r"^from tern2jw import (.+)$", block, re.M)
    assert imported and set(", ".join(imported).split(", ")) <= set(tern2jw.__all__)
    exec(block, {})


def test_readme_command_examples(capsys):
    # every README block that runs one `$ tern2jw ...` command prints what
    # the block shows under it
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    examples = re.findall(r"^```\n\$ tern2jw ([^\n]*)\n([^$`]*)```", readme, re.M)
    assert [shlex.split(command)[0] for command, _ in examples] == ["generators", "straighten"]
    for command, printed in examples:
        assert _run(capsys, *shlex.split(command)) == (0, printed, "")


def _declared_entry_point() -> str:
    # tomllib is in the standard library from Python 3.11; on 3.10 the test
    # extra installs tomli, which has the same interface
    tomllib = pytest.importorskip("tomllib" if sys.version_info >= (3, 11) else "tomli")
    with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as f:
        return tomllib.load(f)["project"]["scripts"]["tern2jw"]


def test_console_script_entry_point():
    # run the entry point pyproject.toml declares the way an installed
    # wrapper script does: import it and exit with what it returns
    module, func = _declared_entry_point().split(":")
    proc = _fresh(
        "-c", f"import sys; from {module} import {func}; sys.exit({func}())", "stats", "-e", BINARY3
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("weight 1 1\n")


@pytest.mark.skipif(shutil.which("tern2jw") is None, reason="no tern2jw script on PATH")
def test_installed_console_script():
    proc = subprocess.run(
        ["tern2jw", "stats", "-e", BINARY3],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("weight 1 1\n")
