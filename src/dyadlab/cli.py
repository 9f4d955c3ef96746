"""Command-line front end.

Subcommands: char, sweep, test-conditions, corona, lemmas, cz, norm.  Every
command is deterministic: identical configs and flags produce byte-identical
outputs (runtimes are logged separately and excluded from that contract).
Exit codes: 0 when every asserted check passes, 1 when a check fails, 2 for
malformed input or configuration.

`main` builds its parser once per process and dispatches by name: a command
runs the `cmd_<name>` this module holds at call time, so a wrapper put in
its place is the one that runs.  `build_parser()` returns a fresh parser.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .grid import GridError, GridFunction, build_grid, check_natural
from .weights import WeightError, ap_characteristic, dual_weight
from .shifts import OperatorNormError, ShiftError, cz_decompose, operator_norm
from .corona import STOPPING_FACTOR, carleson_check, corona_invariant_violation, packing_check
from .estimates import (
    jn_check,
    paraproduct_identity,
    testing_constants,
    weak_boundedness_from_t1_check,
)
from .experiments import (
    JN_DEPTH,
    ExperimentConfig,
    _WEIGHT_KEYS,
    build_config_shift,
    build_config_weight,
    class_corona,
    corona_for,
    jn_boundary_family,
    run_sweep,
    sweep_models,
)
from .serialize import FormatError, dumps_json

SCHEMA = "dyadlab-cli/1"

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_INPUT = 2


class CliError(Exception):
    """Bad command-line input; maps to exit code 2."""


def _emit(payload: dict, out: str | None):
    payload = {"schema": SCHEMA, **payload}
    text = dumps_json(payload)
    if out:
        os.makedirs(os.path.dirname(out) or ".", exist_ok=True)
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    sys.stdout.write(text)


def _load_config(path: str | None) -> ExperimentConfig:
    obj = {}
    if path:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                obj = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise CliError(f"cannot read config {path}: {exc}") from exc
        if not isinstance(obj, dict):
            raise CliError(f"config {path} is not a JSON object")
    return ExperimentConfig.from_dict(obj)


def _flag_shift(args, grid):
    """The config and shift that the --d/--N, --shift, --tau, --seed and
    --separated flags describe."""
    cfg = ExperimentConfig(d=args.d, N=args.N, shift_kind=args.shift, tau=args.tau,
                           shift_seed=args.seed, separated=args.separated)
    return cfg, build_config_shift(cfg, grid)


def _resolve_weight(args, grid):
    """The weight of the flags: --weight-file, or --family with its own keys."""
    spec = ({"family": "file", "path": args.weight_file} if args.weight_file else
            {k: v for k, v in vars(args).items() if k in _WEIGHT_KEYS[args.family]})
    return build_config_weight(spec, grid)


def cmd_char(args) -> int:
    grid = build_grid(args.d, args.N)
    wid, w = _resolve_weight(args, grid)
    rep = ap_characteristic(w, args.p)
    _emit({"command": "char", "grid": {"d": args.d, "N": args.N},
           "weight": wid, "report": rep.to_dict()}, args.out)
    return EXIT_OK


def cmd_norm(args) -> int:
    grid = build_grid(args.d, args.N)
    cfg, T = _flag_shift(args, grid)
    wid, w = _resolve_weight(args, grid)
    sigma, mu = (None, None) if args.lebesgue else (w, dual_weight(w))
    value = operator_norm(T, sigma, mu, method=args.method)
    _emit({
        "command": "norm", "grid": {"d": args.d, "N": args.N},
        "shift": cfg.to_dict()["shift"], "weight": wid,
        "method": args.method, "norm": value,
    }, args.out)
    return EXIT_OK


def cmd_cz(args) -> int:
    grid = build_grid(args.d, args.N)
    rng = np.random.default_rng(check_natural(args.seed, "seed", CliError))
    vals = rng.standard_normal(grid.cell_count) ** 2
    f = GridFunction(grid, vals)
    f = f * (1.0 / f.l1_norm())
    cz = cz_decompose(f, args.lam)
    integrals = cz.bad_integrals()
    bad_integral = float(np.abs(integrals).max()) if integrals.size else 0.0
    packing = cz.bad_measure() * args.lam
    checks = {
        "bad_mean_zero": bad_integral <= 1e-12,
        "bad_measure_bound": packing <= 1.0 + 1e-12,
        "good_sup_bound": cz.good.sup_norm() <= (2 ** grid.d) * args.lam + 1e-12,
    }
    _emit({
        "command": "cz", "grid": {"d": args.d, "N": args.N},
        "seed": args.seed, "lam": args.lam,
        "bad_cube_count": len(cz.bad_cubes),
        "bad_measure": cz.bad_measure(),
        "worst_bad_integral": bad_integral,
        "checks": checks,
    }, args.out)
    return EXIT_OK if all(checks.values()) else EXIT_CHECK_FAILED


def cmd_corona(args) -> int:
    grid = build_grid(args.d, args.N)
    wid, w = _resolve_weight(args, grid)
    corona = corona_for(w)
    pk = packing_check(corona)
    cr = carleson_check(corona)
    violation = corona_invariant_violation(corona)
    checks = {
        "density_invariants": violation <= 1e-12,
        "packing_quarter": pk.child_union_ratio <= 1.0 / STOPPING_FACTOR + 1e-12,
        "carleson_bound": cr.worst_ratio <= 1.0 + 1e-10,
    }
    _emit({
        "command": "corona", "grid": {"d": args.d, "N": args.N},
        "weight": wid,
        "a2": cr.a2,
        "packing": {"child_union_ratio": pk.child_union_ratio,
                    "overlap_ratio": pk.overlap_ratio},
        "carleson_worst_ratio": cr.worst_ratio,
        "invariant_violation": violation,
        "forest": corona.export(),
        "checks": checks,
    }, args.out)
    return EXIT_OK if all(checks.values()) else EXIT_CHECK_FAILED


def cmd_test_conditions(args) -> int:
    grid = build_grid(args.d, args.N)
    cfg, T = _flag_shift(args, grid)
    wid, w = _resolve_weight(args, grid)
    sigma, mu = w, dual_weight(w)
    rep = testing_constants(T, sigma, mu, norm_method=args.method)
    necessity = max(rep.c_wb, rep.c_t1, rep.c_tstar1) <= rep.full_norm + 1e-9
    _emit({
        "command": "test-conditions", "grid": {"d": args.d, "N": args.N},
        "weight": wid,
        "shift": cfg.to_dict()["shift"],
        "report": rep.to_dict(),
        "checks": {"necessity": necessity},
    }, args.out)
    return EXIT_OK if necessity else EXIT_CHECK_FAILED


def cmd_lemmas(args) -> int:
    grid = build_grid(args.d, args.N)
    wid, w = _resolve_weight(args, grid)
    cfg, T = _flag_shift(args, grid)

    rng = np.random.default_rng(check_natural(args.seed, "seed", CliError))
    f = GridFunction(grid, rng.standard_normal(grid.cell_count))
    lhs, rhs = paraproduct_identity(f, T, None, w)
    para_ok = abs(lhs - rhs) <= 1e-10 * max(lhs, rhs, 1e-30)

    fam = jn_boundary_family(args.seed, depth=min(args.N, JN_DEPTH))
    jn = jn_check(fam)
    jn_ok = bool(jn.hypothesis_ok and jn.conclusion_ok)

    wb = weak_boundedness_from_t1_check(T, w)
    chain_ok = wb.chain_worst <= 1.0 + 1e-12

    essence_doc, essence_ok = _essence_bundle(args, w)

    checks = {"paraproduct_identity": bool(para_ok),
              "john_nirenberg": jn_ok,
              "elementary_chain": bool(chain_ok),
              "essence_decay": bool(essence_ok)}
    _emit({
        "command": "lemmas", "grid": {"d": args.d, "N": args.N},
        "weight": wid, "shift": cfg.to_dict()["shift"],
        "paraproduct": {"lhs": lhs, "rhs": rhs},
        "john_nirenberg": {
            "hypothesis_ok": jn.hypothesis_ok,
            "hypothesis_worst": jn.hypothesis_worst,
            "conclusion_ok": jn.conclusion_ok,
        },
        "weak_boundedness": wb.to_dict(),
        "essence": essence_doc,
        "checks": checks,
    }, args.out)
    return EXIT_OK if all(checks.values()) else EXIT_CHECK_FAILED


def _essence_bundle(args, w):
    """Distributional-decay data on the deepest-class corona fibers."""
    from .calibration import load_calibration
    from .corona import qn_partition
    from .estimates import essence_check
    from .shifts import random_simple_shift

    k = load_calibration()["constants"]["essence"]["k"]
    grid = w.grid
    T = random_simple_shift(max(args.tau, 1), args.seed, grid, separated=True)
    qn = qn_partition(w, levels=T.levels)
    n = max(qn.n_values())
    _q0, corona = class_corona(w, qn.classes[n], T.levels)
    curves = []
    ok = True
    for L in corona.stopping_cubes()[:4]:
        fiber = corona.corona_of(L)
        if fiber.count() == 0:
            continue
        rep = essence_check(L, fiber, T, w, k_constant=k)
        ok &= rep.lebesgue_curve.is_monotone() and rep.dual_curve.is_monotone()
        ok &= rep.seven_single_worst <= 1.0 + 1e-12
        curves.append({
            "cube": L.address(),
            "n": int(n),
            "lebesgue_masses": list(rep.lebesgue_curve.masses),
            "dual_masses": list(rep.dual_curve.masses),
            "seven_single_worst": rep.seven_single_worst,
        })
    return {"k": k, "class_n": int(n), "curves": curves}, ok


def cmd_sweep(args) -> int:
    cfg = _load_config(args.config)
    if args.out_dir:
        cfg.out_dir = args.out_dir
    if args.fmt:
        cfg.fmt = args.fmt
    rows = run_sweep(cfg)
    os.makedirs(cfg.out_dir, exist_ok=True)

    chars = [r.a2 for r in rows]
    norms = [r.norm for r in rows]
    summary = {
        "schema": SCHEMA,
        "command": "sweep",
        "config": cfg.to_dict(),
        "models": sweep_models(chars, norms),
        "rows": [
            {k: v for k, v in r.to_dict().items() if k != "runtime_ms"}
            for r in rows
        ],
    }
    with open(os.path.join(cfg.out_dir, "summary.json"), "w", encoding="utf-8") as fh:
        fh.write(dumps_json(summary))

    columns = ["weight_id", "a2", "norm", "c_wb", "c_t1", "c_tstar1",
               "stopping_count", "carleson_max"]
    if cfg.fmt == "json":
        table = [{c: r.to_dict()[c] for c in columns} for r in rows]
        with open(os.path.join(cfg.out_dir, "sweep.json"), "w", encoding="utf-8") as fh:
            fh.write(dumps_json({"schema": SCHEMA, "rows": table}))
    else:
        lines = ["# schema=" + SCHEMA, ",".join(columns)]
        for r in rows:
            d = r.to_dict()
            lines.append(",".join(repr(d[c]) if isinstance(d[c], float) else str(d[c])
                                  for c in columns))
        with open(os.path.join(cfg.out_dir, "sweep.csv"), "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")

    # runtimes are non-deterministic; kept out of the canonical outputs
    with open(os.path.join(cfg.out_dir, "timings.csv"), "w", encoding="utf-8") as fh:
        fh.write("# schema=" + SCHEMA + " (non-deterministic)\n")
        fh.write("weight_id,runtime_ms\n")
        for r in rows:
            fh.write(f"{r.weight_id},{r.runtime_ms:.3f}\n")

    if cfg.fmt != "json":
        plot = [
            "# schema=" + SCHEMA,
            "set datafile separator ','",
            "set xlabel 'A2 characteristic'",
            "set ylabel 'operator norm'",
            "plot 'sweep.csv' every ::1 using 2:3 with linespoints title 'norm vs A2'",
        ]
        with open(os.path.join(cfg.out_dir, "sweep.gnuplot"), "w", encoding="utf-8") as fh:
            fh.write("\n".join(plot) + "\n")
    sys.stdout.write(dumps_json({"schema": SCHEMA, "command": "sweep",
                                 "rows_written": len(rows),
                                 "out_dir": cfg.out_dir}))
    return EXIT_OK


def _add_common_flags(p):
    p.add_argument("--seed", type=int, default=0,
                   help="one seed for every random draw of the command: the random "
                        "shift, the cascade weight and lemmas' test function alike")
    p.add_argument("--out", default=None, help="output file or directory")


def _add_grid_flags(p, default_n=10):
    p.add_argument("--d", type=int, default=1, choices=(1, 2))
    p.add_argument("--N", type=int, default=default_n)


def _add_weight_flags(p):
    p.add_argument("--family", default="constant",
                   choices=("constant", "power", "cascade"))
    p.add_argument("--a", type=float, default=0.5, help="power-weight exponent")
    p.add_argument("--n", type=float, default=2.0, help="cascade target exponent")
    p.add_argument("--weight-file", default=None, help="weight header JSON path")


def _add_shift_flags(p):
    p.add_argument("--shift", default="random",
                   choices=("hilbert", "martingale", "random", "zero"))
    p.add_argument("--tau", type=int, default=2)
    p.add_argument("--separated", action="store_true")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dyadlab",
        description="Weighted dyadic harmonic analysis laboratory.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("char", help="A_p characteristic of a weight")
    _add_common_flags(p)
    _add_grid_flags(p, default_n=12)
    _add_weight_flags(p)
    p.add_argument("--p", type=float, default=2.0)

    p = sub.add_parser("norm", help="operator norm of a shift between weighted spaces")
    _add_common_flags(p)
    _add_grid_flags(p)
    _add_weight_flags(p)
    _add_shift_flags(p)
    p.add_argument("--method", default="power-iteration",
                   choices=("power-iteration", "dense-svd", "auto"))
    p.add_argument("--lebesgue", action="store_true",
                   help="unweighted norm regardless of weight flags")

    p = sub.add_parser("cz", help="Calderon-Zygmund decomposition checks")
    _add_common_flags(p)
    _add_grid_flags(p)
    p.add_argument("--lam", type=float, default=2.0)

    p = sub.add_parser("corona", help="corona decomposition with packing and Carleson checks")
    _add_common_flags(p)
    _add_grid_flags(p, default_n=12)
    _add_weight_flags(p)

    p = sub.add_parser("test-conditions", help="two-weight testing constants")
    _add_common_flags(p)
    _add_grid_flags(p)
    _add_weight_flags(p)
    _add_shift_flags(p)
    p.add_argument("--method", default="auto",
                   choices=("auto", "power-iteration", "dense-svd"))

    p = sub.add_parser("lemmas", help="paraproduct, level-set, and chain checks")
    _add_common_flags(p)
    _add_grid_flags(p, default_n=8)
    _add_weight_flags(p)
    _add_shift_flags(p)

    p = sub.add_parser("sweep", help="weight sweep: norms, constants, CSV emission")
    p.add_argument("--out", dest="out_dir", default=None, help="output directory")
    p.add_argument("--format", dest="fmt", default=None, choices=("csv", "json"))
    p.add_argument("--config", default=None)

    return parser


_parser = None


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    command = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return command(args)
    except (CliError, GridError, WeightError, ShiftError, FormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except OperatorNormError as exc:    # no norm value; a sweep's --out is args.out_dir
        _emit({"command": args.command, "error": str(exc), "bracket": list(exc.bracket)},
              getattr(args, "out", None))
        return EXIT_CHECK_FAILED


if __name__ == "__main__":
    raise SystemExit(main())
