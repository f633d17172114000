"""How far a change moves the acceptance means: criteria 4, 5 and 7, per seed.

    python tests/acceptance_shift.py [--env KEY=VALUE ...] TREE_A TREE_B
    python tests/acceptance_shift.py [--env KEY=VALUE ...] --rev REV [TREE]

The command line is tests/same_bits.py's: the second form compares git
revision REV of this checkout against the worktree TREE, by default this
checkout, and each `--env KEY=VALUE` is set for the B run only.

For each tree, one child process, with the tree's `src` on PYTHONPATH and
one BLAS thread unless the environment sets another count, runs the frozen
experiment of tests/test_acceptance.py. It trains each acceptance seed once,
because the standard-shift and zero-shift arms share the source split and
training reads no threshold. From that model it runs estimate, eval, adapt
and eval for tau = 0, 0.8 and 0.97 on the standard shift, and for the
zero-shift (null) arm at the default tau. These are `run_experiment`'s
mIoUs; the bound diagnostics are left out, as criteria 4, 5 and 7 do not
read them. A tree takes about a minute on a 2-vCPU host.

It prints each tree's 5-seed means, each next to its `COMMITTED_*` constant
and its distance to it, then each value's shift per seed from A to B. It
measures one change's spend of the +-0.005 band, not the band's noise.
pytest does not collect this file.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from same_bits import parse_trees, tree_parser

# value name -> printed label, in print order
NAMES = {
    "pre": "pre (tau=0.97)",
    "post_0.0": "post tau=0",
    "post_0.8": "post tau=0.8",
    "post_0.97": "post tau=0.97",
    "null_pre": "null pre",
    "null_post": "null post",
}


def measure() -> dict:
    """Per-seed mIoUs of this process's protoadapt, name -> [value per seed],
    and under "committed" the constants they are held to, by name."""
    from protoadapt.adaptation import (
        ExperimentConfig,
        adapt_source_free,
        estimate_stage,
        evaluate_miou,
        train_source,
    )
    from protoadapt.datasets import DomainSpec, Shift, gen_grid_seg
    from test_acceptance import (
        COMMITTED_NULL_DRIFT,
        COMMITTED_POST_MIOU,
        COMMITTED_PRE_MIOU,
        FROZEN,
        SEEDS,
        STANDARD_SHIFT,
        TAUS,
    )

    values = {name: [] for name in NAMES}
    for seed in SEEDS:
        xs, ys = gen_grid_seg(DomainSpec(K=5, n_images=2000, seed=seed * 10))
        model, _ = train_source(ExperimentConfig(seed=seed, **FROZEN), xs, ys)
        arms = [(f"post_{tau}", STANDARD_SHIFT, dict(tau_fit=tau, tau_filter=tau)) for tau in TAUS]
        for name, shift, kw in [*arms, ("null_post", Shift(), {})]:
            shifted = not shift.is_zero()
            spec = DomainSpec(K=5, n_images=2000, seed=seed * 10 + 1, shift=shift)
            xt, _ = gen_grid_seg(spec, shifted=shifted)
            spec = DomainSpec(K=5, n_images=500, seed=seed * 10 + 2, shift=shift)
            xe, ye = gen_grid_seg(spec, shifted=shifted)
            cfg = ExperimentConfig(seed=seed, **FROZEN, **kw)
            gmm, _ = estimate_stage(model, xs, ys, cfg)
            adapted, _ = adapt_source_free(model, gmm, xt, cfg)
            values[name].append(float(evaluate_miou(adapted, xe, ye)[1]))
            if name in ("post_0.97", "null_post"):
                values["pre" if shifted else "null_pre"].append(float(evaluate_miou(model, xe, ye)[1]))
    committed = {f"post_{tau}": c for tau, c in COMMITTED_POST_MIOU.items()}
    committed.update(pre=COMMITTED_PRE_MIOU, null_drift=COMMITTED_NULL_DRIFT)
    return {**values, "committed": committed}


def run_tree(tree: Path, extra_env: dict) -> dict:
    env = {**os.environ, **extra_env, "PYTHONPATH": str(tree / "src")}
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env.setdefault(var, "1")
    proc = subprocess.run([sys.executable, __file__, "--child"], env=env, stdout=subprocess.PIPE, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def means(values: dict) -> dict:
    """5-seed means, and the null arm's drift |post - pre| of its means."""
    out = {name: sum(values[name]) / len(values[name]) for name in NAMES}
    out["null_drift"] = abs(out["null_post"] - out["null_pre"])
    return out


def report(values: dict) -> None:
    committed = values["committed"]
    for name, mean in means(values).items():
        line = f"  {NAMES.get(name, 'null drift'):<15} {mean:.6f}"
        if name in committed:
            line += f"  constant {committed[name]:.4f}  distance {mean - committed[name]:+.6f}"
        print(line)


def main(argv=None) -> int:
    parser = tree_parser(__doc__.split("\n\n")[0])
    work = Path(tempfile.mkdtemp(prefix="acceptance_shift-"))
    try:
        trees, env_b = parse_trees(parser, argv, work)
        runs = []
        for label, tree, extra_env in zip("AB", trees, ({}, env_b)):
            t0 = time.perf_counter()
            runs.append(run_tree(tree, extra_env))
            shown = "".join(f" {k}={v}" for k, v in extra_env.items())
            print(f"{label}: {tree}{shown} ({time.perf_counter() - t0:.0f} s)")
            report(runs[-1])
        a, b = runs
        mean_a, mean_b = means(a), means(b)
        print("shift B - A: per seed; of the 5-seed mean")
        for name in NAMES:
            per_seed = [y - x for x, y in zip(a[name], b[name])]
            print(f"  {NAMES[name]:<15} " + " ".join(f"{d:+.6f}" for d in per_seed)
                  + f"; {mean_b[name] - mean_a[name]:+.6f}")
        print(f"  {'null drift':<15} {mean_b['null_drift'] - mean_a['null_drift']:+.6f}")
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    if sys.argv[1:] == ["--child"]:
        print(json.dumps(measure()))
        sys.exit(0)
    sys.exit(main())
