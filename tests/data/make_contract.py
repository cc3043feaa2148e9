"""Write ``contract.json``: the outputs a change to gavekit must keep.

The contract is the 48 rows of ``specs/table{1..4}.spec`` at m = 100 and
150 with one repeat (IT, RES as its ``%.4e`` text, ``converged`` and the
per-step inner iteration counts of the inexact rows), and the lhs, rhs and
verdict of two certificate sets: the 13 conditions on example41 m = 24,
mu = 4 with ngs and Omega = hatM, and InexactEq15 on ``gen_certified(600,
seed=1)`` with ngs, which holds. ``tests/test_contract.py`` recomputes the
same quantities with the functions below and compares them with the file.

Run from the repository root, with the library importable:

    PYTHONPATH=src python tests/data/make_contract.py

A change that rewrites the file says why in CHANGES.md.
"""

import json
import pathlib

from gavekit import bench, certify, gen_certified, gen_example41

HERE = pathlib.Path(__file__).resolve().parent
SPECS = HERE.parents[1] / "specs"
TABLE_SPECS = ("table1.spec", "table2.spec", "table3.spec", "table4.spec")
M_VALUES = (100, 150)
ALL_CONDITIONS = [condition.value for condition in certify.Condition]


def table_rows(spec_name):
    """The contract rows of one table spec, in the order ``gavekit bench`` runs them."""
    spec = bench.parse_spec((SPECS / spec_name).read_text(encoding="utf-8"))
    rows = []
    for m in M_VALUES:
        _, problem, hat = gen_example41(m, spec.mu)
        for method in spec.methods:
            splitting = bench.build_method(problem, method, hat)
            report, _ = bench.run_method(problem, method, splitting, repeats=1)
            row = dict(spec=spec_name, method=method.display_name(), m=m, IT=report.iterations,
                       RES=f"{report.final_res:.4e}", converged=report.converged)
            if method.config.inner == "lsqr":
                row["inner_iters"] = report.inner_iters.tolist()
            rows.append(row)
    return rows


def _certify(name, problem, hat, options, conditions, theta, omega_scalar=None):
    """``gavekit certify --method ngs`` with ``options``: condition, lhs, rhs and verdict."""
    method = bench.method_spec("ngs", options)
    splitting = bench.build_method(problem, method, hat)
    certificates = certify.evaluate(
        conditions, A=problem.A, B=problem.B, M=splitting.M, N=splitting.N,
        omega=splitting.omega, theta=theta, gamma=method.kind.gamma,
        omega_scalar=omega_scalar,
    )
    return [dict(set=name, condition=c.condition.value, lhs=c.lhs, rhs=c.rhs, verdict=c.verdict)
            for c in certificates]


def certificates():
    """The certificates of both sets, each tagged with its set's name."""
    _, example, hat = gen_example41(24, 4.0)
    return _certify(
        "example41_m24_mu4_ngs_mhat", example, hat, {"omega": "mhat", "gamma": "1"},
        ALL_CONDITIONS, theta=0.3, omega_scalar=2.0,
    ) + _certify(
        "certified_n600_seed1_ngs", gen_certified(600, seed=1), None, {}, ["InexactEq15"],
        theta=0.3,
    )


if __name__ == "__main__":
    contract = {
        "rows": [row for name in TABLE_SPECS for row in table_rows(name)],
        "certificates": certificates(),
    }
    # one row or certificate per line, so a changed row is one changed line
    path = HERE / "contract.json"
    path.write_text("{" + ",\n".join(
        f"{json.dumps(key)}: [\n" + ",\n".join(map(json.dumps, items)) + "\n]"
        for key, items in contract.items()) + "}\n", encoding="utf-8")
    print(f"wrote {path}")
