"""Same bits between two trees: the standard CLI walkthrough, file by file.

    python tests/same_bits.py [--env KEY=VALUE ...] TREE_A TREE_B
    python tests/same_bits.py [--env KEY=VALUE ...] --rev REV [TREE]

The second form compares git revision REV of this checkout (extracted with
`git archive`) against the worktree TREE, by default this checkout. Each
`--env KEY=VALUE` sets that variable for the B run only, so one tree can be
compared with itself on two stacks:

    python tests/same_bits.py --env OPENBLAS_CORETYPE=Haswell . .

In each tree the walkthrough runs one `python -m protoadapt.cli` process
per command, with the tree's `src` on PYTHONPATH and one BLAS thread unless
the environment sets another count:

    gen-data --preset standard; train with the acceptance FROZEN config;
    estimate; adapt --iters 50; eval --out for the trained and the adapted
    model; diagnose; export-embeddings of both models with --gmm on the
    target split, and of the trained model on the labeled source split.

Every file the commands write, and each command's exit code and stdout,
is compared byte for byte. Only the `wall_clock` line of `diagnostics.txt`
and the `source_data` line of a `.meta` sidecar are masked: one is a time,
the other an absolute path. It prints one line per file, the verdict, and
each tree's `src/` line counts (`wc -l src/protoadapt/*.py`), in total and
per file, and exits 1 on any difference. Under each file that differs it
says where: for a text file, the first line that differs (numbered in the
masked text), from each tree; for a binary file (one that holds a NUL byte
or is not UTF-8), the first byte offset that differs. pytest does not
collect this file.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

CHECKOUT = Path(__file__).resolve().parents[1]

# tests/test_acceptance.py's FROZEN config at tau 0.97, as a config file.
CONFIG = """\
source_steps=2500
lr=3e-3
adapt_lr=1.2e-3
adapt_steps=350
pseudo_batch=384
tau_fit=0.97
tau_filter=0.97
seed=0
"""

COMMANDS = [
    ("gen-data", ["gen-data", "--preset", "standard", "--out", "data"]),
    ("train", ["train", "--config", "config.txt", "--data", "data/source", "--out", "run/model.mdl1"]),
    ("estimate", ["estimate", "--config", "config.txt", "--ckpt", "run/model.mdl1",
                  "--data", "data/source", "--out", "run/model.gmm1"]),
    ("adapt", ["adapt", "--config", "config.txt", "--ckpt", "run/model.mdl1", "--gmm", "run/model.gmm1",
               "--target", "data/target_train", "--iters", "50", "--out", "run/adapted"]),
    ("eval-pre", ["eval", "--ckpt", "run/model.mdl1", "--data", "data/target_eval", "--out", "run/eval_pre.txt"]),
    ("eval-post", ["eval", "--ckpt", "run/adapted/adapted.mdl1", "--data", "data/target_eval",
                   "--out", "run/eval_post.txt"]),
    ("diagnose", ["diagnose", "--report", "run/adapted"]),
    ("export-gmm", ["export-embeddings", "--ckpt", "run/adapted/adapted.mdl1", "--ckpt-pre", "run/model.mdl1",
                    "--gmm", "run/model.gmm1", "--data", "data/target_train", "--out", "run/emb_target"]),
    ("export-source", ["export-embeddings", "--ckpt", "run/model.mdl1", "--data", "data/source",
                       "--out", "run/emb_source"]),
]

# Lines that may differ between two runs of the same code: (file suffix, line prefix).
MASKED = [("diagnostics.txt", b"wall_clock="), (".meta", b"source_data=")]


def run_walkthrough(tree: Path, workdir: Path, extra_env: dict) -> None:
    """Run COMMANDS for `tree` in `workdir` with `extra_env` set, recording
    each command's exit code and stdout under `workdir/log/`."""
    workdir.mkdir(parents=True)
    (workdir / "config.txt").write_text(CONFIG)
    (workdir / "log").mkdir()
    env = {**os.environ, **extra_env, "PYTHONPATH": str(tree / "src")}
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env.setdefault(var, "1")
    for i, (label, argv) in enumerate(COMMANDS):
        proc = subprocess.run(
            [sys.executable, "-m", "protoadapt.cli", *argv],
            cwd=workdir, env=env, capture_output=True,
        )
        (workdir / "log" / f"{i}-{label}.txt").write_bytes(b"exit=%d\n" % proc.returncode + proc.stdout)
        if proc.returncode:
            sys.stderr.write(f"{tree}: {label} exited {proc.returncode}\n{proc.stderr.decode()}")


def masked_bytes(path: Path) -> bytes:
    data = path.read_bytes()
    for suffix, prefix in MASKED:
        if path.name.endswith(suffix):
            data = b"".join(line for line in data.splitlines(True) if not line.startswith(prefix))
    return data


def text_lines(data: bytes) -> list[str] | None:
    """The lines of `data`, or None when it is binary: holds a NUL byte or is not UTF-8."""
    try:
        return None if b"\0" in data else data.decode().splitlines()
    except UnicodeDecodeError:
        return None


def first_difference(a: bytes, b: bytes) -> str:
    """Where the unequal contents `a` and `b` first part, as a short line."""
    lines = [text_lines(a), text_lines(b)]
    if None not in lines and lines[0] != lines[1]:
        at = next((i for i, (x, y) in enumerate(zip(*lines)) if x != y), min(map(len, lines)))
        shown = [repr(rows[at]) if at < len(rows) else "(no such line)" for rows in lines]
        return f"line {at + 1}: A {shown[0]}, B {shown[1]}"
    # Binary, or text whose lines agree (a line ending differs): the first byte.
    n, block = min(len(a), len(b)), 4096
    at = next((i for i in range(0, n, block) if a[i:i + block] != b[i:i + block]), n)
    at = next((i for i in range(at, min(at + block, n)) if a[i] != b[i]), n)
    return f"first differing byte at offset {at} (sizes A {len(a)}, B {len(b)})"


def compare(a: Path, b: Path) -> int:
    """Print one line per file under either directory; the count that differ."""
    names = sorted(
        {p.relative_to(root).as_posix() for root in (a, b) for p in root.rglob("*") if p.is_file()}
    )
    differ = 0
    for name in names:
        pa, pb = a / name, b / name
        account = None  # where a file in both trees differs
        if not (pa.is_file() and pb.is_file()):
            verdict = "only in " + ("A" if pa.is_file() else "B")
        elif (ma := masked_bytes(pa)) == (mb := masked_bytes(pb)):
            verdict = "equal"
        else:
            verdict, account = "DIFFER", first_difference(ma, mb)
        differ += verdict != "equal"
        print(f"{verdict:<9} {name}")
        if account:
            print(f"{'':<9} {account}")
    print(f"{len(names) - differ} of {len(names)} files equal")
    return differ


def src_lines(tree: Path) -> dict:
    """`wc -l src/protoadapt/*.py` in `tree`: file name -> line count."""
    return {p.name: p.read_bytes().count(b"\n") for p in (tree / "src" / "protoadapt").glob("*.py")}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("trees", nargs="*", type=Path, help="TREE_A TREE_B, or the worktree with --rev")
    parser.add_argument("--rev", help="git revision of this checkout to compare against the worktree")
    parser.add_argument("--env", action="append", default=[], metavar="KEY=VALUE",
                        help="set an environment variable for the B run only (repeatable)")
    args = parser.parse_args(argv)
    env_b = {}
    for item in args.env:
        key, sep, value = item.partition("=")
        if not key or not sep:
            parser.error(f"--env takes KEY=VALUE, got {item!r}")
        env_b[key] = value
    if args.rev is None and len(args.trees) != 2:
        parser.error("give two trees, or --rev REV and at most one tree")
    if args.rev is not None and len(args.trees) > 1:
        parser.error("--rev takes at most one worktree")

    work = Path(tempfile.mkdtemp(prefix="same_bits-"))
    try:
        if args.rev is None:
            trees = [t.resolve() for t in args.trees]
        else:
            rev_tree = work / "rev-tree"
            rev_tree.mkdir()
            archive = subprocess.run(
                ["git", "-C", str(CHECKOUT), "archive", args.rev, "src"],
                capture_output=True, check=True,
            ).stdout
            subprocess.run(["tar", "-x", "-C", str(rev_tree)], input=archive, check=True)
            trees = [rev_tree, (args.trees[0] if args.trees else CHECKOUT).resolve()]
        runs = [work / "A", work / "B"]
        for label, tree, run, extra_env in zip("AB", trees, runs, ({}, env_b)):
            shown = "".join(f" {k}={v}" for k, v in extra_env.items())
            print(f"{label}: {tree}{shown}")
            run_walkthrough(tree, run, extra_env)
        differ = compare(*runs)
        counts = [src_lines(tree) for tree in trees]
        print("src/ lines: " + ", ".join(f"{label} {sum(c.values())}" for label, c in zip("AB", counts)))
        for name in sorted(counts[0].keys() | counts[1].keys()):  # "-": no such file in that tree
            print(f"  {name:<16}" + "".join(f" {label} {c.get(name, '-'):>4}" for label, c in zip("AB", counts)))
        return 1 if differ else 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
