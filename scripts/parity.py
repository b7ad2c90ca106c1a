"""Digest every public output of tcvm, to compare two checkouts bit for bit.

Usage, from the root of a tcvm checkout:

    python3 scripts/parity.py [--src DIR]

Imports tcvm from DIR (default: ``src`` of this checkout), so the same
script can digest another checkout; two checkouts agree bit for bit where
their digests agree.  Prints one JSON object, keys sorted, mapping each
output to the sha256 of the ``float.hex`` of its values (ints and flags
as floats).  ``digests(workers)`` returns that object for the tcvm already
importable, which the tests load and pin, running the engine's outputs
with 1 and 2 workers:

* ``batch_<kinds>_n<n>``: ``batch_statistics`` with each kind alone and
  with all five, on seeded normal, t(1) and Lognormal(0, 3) rows at
  n = 5, 50, 1,000 and 3,000; at 3,000 the rows include some that reach
  past the whole-line limit (CVM = +inf), one of them by construction;
* ``critvals_*``, ``null_crits``, ``power_*``, ``moments`` and
  ``constant_c``: the engine's outputs on small seeded runs;
* ``scalar_<name>``: AD, W', BCMR, Royston W, the whole-line statistic,
  ``compute_tstar`` (every field), the direct oracle and ``tcvm_test``
  (statistic, critical value, decision, interpolation flag) on seeded
  samples;
* ``cli_test``: exit code, stdout and stderr of ``tcvm.cli.main(["test",
  file])``, in CSV and in JSON, with each of the ``scalar_`` samples
  written to a temporary file; ``cli_test_errors``: the same for four
  refused inputs: ``--alpha 0.03`` (not a table level), a constant sample,
  n = 3 and n = 20,000 (past the table); the temporary directory is masked
  in stderr;
* ``psi``, ``H``: the public antiderivatives on a grid of [-56, 56];
  ``c_n``, ``d_n``, ``a_n``: the per-n constants;
* ``sample``, ``replication_rng``: the seeded draws.

Runs in about 4 s on one core (x86-64, numpy 2.4).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIZES = {5: 600, 50: 300, 1000: 24, 3000: 12}  # n -> rows per family


def digest(values) -> str:
    import numpy as np

    flat = np.asarray(values, dtype=float).ravel().tolist()
    return hashlib.sha256(",".join(v.hex() for v in flat).encode()).hexdigest()


def run_cli(main, argv, tmp: str) -> list:
    """[exit code, stdout, stderr] of ``main(argv)``, with ``tmp`` masked."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv, out=out)
    return [code, out.getvalue(), err.getvalue().replace(tmp, "<tmp>")]


def digest_runs(runs) -> str:
    return hashlib.sha256(json.dumps(runs).encode()).hexdigest()


def digests(workers: int = 1) -> dict:
    """Every output's digest, keys sorted, from the ``tcvm`` on ``sys.path``;
    the engine's runs use ``workers`` workers, which must not move a bit."""
    import numpy as np
    import tcvm
    from tcvm import BaselineKind, cli, normal

    out = {}
    rng = np.random.default_rng(20)
    kinds = list(BaselineKind)

    for n, rows in SIZES.items():
        block = np.vstack(
            [
                rng.standard_normal((rows, n)),
                rng.standard_t(1, (rows, n)),
                rng.lognormal(0.0, 3.0, (rows, n)),
            ]
        )
        block[0, 0] = 1e6  # max |y| ~ sqrt(n - 1): past the limit from n = 1,354
        for kind in kinds:
            out[f"batch_{kind.value}_n{n}"] = digest(tcvm.batch_statistics(block, [kind])[kind])
        together = tcvm.batch_statistics(block, kinds)
        out[f"batch_all_n{n}"] = digest([together[kind] for kind in kinds])
        out[f"batch_cvm_inf_rows_n{n}"] = digest(np.isinf(together[BaselineKind.CVM]))

    for n, reps in ((5, 2000), (50, 9000)):
        row = tcvm.estimate_critical_values(n, reps=reps, seed=1, workers=workers)
        out[f"critvals_n{n}"] = digest(list(row.critical_values.values()) + [row.a_n, row.c_n])
    table = tcvm.simulate_table([10, 11, 40], reps=1000, seed=2, workers=workers)
    out["critvals_table"] = digest(
        [list(r.critical_values.values()) + [r.n, r.a_n, r.c_n] for r in table.rows.values()]
    )
    crits = tcvm.estimate_null_critical_values(
        kinds, 50, 0.05, reps=3000, seed=3, workers=workers
    )
    out["null_crits"] = digest([crits[kind] for kind in kinds])
    for spec in ("LoConN(0.5,4)", "Lognormal(0,3)"):
        rep = tcvm.estimate_power(
            kinds, tcvm.parse_spec(spec), 50, 0.05, 3000, 4, crits, workers=workers
        )
        out[f"power_{spec}"] = digest([[rep.rates[k], rep.stderr[k]] for k in kinds])
    checks = tcvm.verify_fourth_moments(
        [(0.0, 0.0), (0.3, 1.1)], 20, reps=20_000, seed=5, workers=workers
    )
    out["moments"] = digest([[c.empirical, c.exact, c.stderr, c.z_score] for c in checks])
    est = tcvm.estimate_constant_c(100, reps=300, seed=6, workers=workers)
    out["constant_c"] = digest([est.value, est.stderr])

    samples = [rng.standard_normal(n) for n in (4, 5, 10, 50, 200, 2000)]
    samples += [rng.standard_t(1, 60), rng.lognormal(0.0, 3.0, 1500)]
    samples += [np.r_[1e6, rng.standard_normal(1999)]]
    scalars = {
        "ad": tcvm.anderson_darling,
        "sf": tcvm.shapiro_francia,
        "bcmr": tcvm.bcmr,
        "sw": tcvm.shapiro_wilk,
        "untruncated": tcvm.compute_untruncated,
    }
    for name, fn in scalars.items():
        out[f"scalar_{name}"] = digest([fn(x) for x in samples])
    results = [tcvm.compute_tstar(x) for x in samples]
    out["scalar_tstar"] = digest(
        [[r.t_star, r.t_centered, r.n, r.a_n, r.c_n, r.k, r.m] for r in results]
    )
    out["scalar_tstar_direct"] = digest([tcvm.compute_tstar_direct(x) for x in samples[1:5]])
    decisions = []
    for x in samples[2:]:
        outcome, result = tcvm.tcvm_test(x, alpha=0.05)
        decisions.append(
            [outcome.statistic, outcome.critical_value, outcome.reject, outcome.interpolated]
        )
    out["scalar_tcvm_test"] = digest(decisions)

    cli_rng = np.random.default_rng(23)
    with tempfile.TemporaryDirectory() as tmp:

        def write(name, values):
            path = os.path.join(tmp, name)
            with open(path, "w") as fh:
                fh.write("".join(f"{float(v)!r}\n" for v in values))
            return path

        files = [write(f"sample{i}.txt", x) for i, x in enumerate(samples)]
        out["cli_test"] = digest_runs(
            [run_cli(cli.main, ["test", f, "--format", fmt], tmp)
             for f in files for fmt in ("csv", "json")]
        )
        refused = [
            [files[3], "--alpha", "0.03"],
            [write("constant.txt", np.full(10, 2.0))],
            [write("n3.txt", cli_rng.standard_normal(3))],
            [write("n20000.txt", cli_rng.standard_normal(20_000))],
        ]
        out["cli_test_errors"] = digest_runs(
            [run_cli(cli.main, ["test"] + argv, tmp) for argv in refused]
        )

    grid = np.concatenate([np.linspace(-56.0, 56.0, 40_001), [-0.0, 1e-300, -37.7, 37.7]])
    out["psi"] = digest(normal.recip_pdf_antiderivative(grid))
    out["H"] = digest(normal.cdf_over_pdf_antiderivative(grid))
    sizes = list(range(2, 3000)) + [10**4, 10**5, 10**6, 10**7]
    out["a_n"] = digest([tcvm.endpoint(n).a_n for n in sizes])
    out["c_n"] = digest([tcvm.c_n(n) for n in sizes[2:]])
    out["d_n"] = digest([tcvm.d_n(n) for n in sizes[2:]])

    specs = [tcvm.parse_spec(text) for _, _, text in tcvm.TABLE1_ALTERNATIVES]
    out["sample"] = digest([tcvm.sample(spec, 50, 7) for spec in specs])
    out["replication_rng"] = digest([tcvm.replication_rng(8, r).random(5) for r in range(100)])

    return dict(sorted(out.items()))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=os.path.join(ROOT, "src"))
    args = parser.parse_args()

    sys.path.insert(0, os.path.abspath(args.src))
    t0 = time.perf_counter()
    out = digests()
    json.dump(out, sys.stdout, indent=1)
    sys.stdout.write("\n")
    print(f"parity: {len(out)} digests in {time.perf_counter() - t0:.1f} s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
