"""Batch experiment runner.

Every report of the library is exposed as a subcommand with file-based
inputs and CSV/JSON outputs:

    heatmetric flow        --space space.json --times 0,0.1,0.5 --out runs/
    heatmetric tangency    --geometry sphere --r 1 --lmax 80 --tmax 0.2 --tmin 0.0125
    heatmetric contraction --geometry circle --L 6.2831853 --n 64 --times 0.05,0.1
    heatmetric continuity  --space space.json --t 0.1 --deltas 0.08,0.04,0.02
    heatmetric refine      --L 6.2831853 --t 0.1 --grids 64,128,256,512 --probes 0:0.5
    heatmetric selftest    --seed 0

Subcommands return their checks and tables {file name: (header, rows)}.
Only a run that succeeds writes them, with <command>_checks.csv (name, t,
value, bound, pass) and a JSON summary {command, config, checks,
wall_time_seconds}, through one CSV writer (floats as %.17g, exact when read
back; matrices row-major under a header of point ids). Exit code 0 iff all
enabled assertions pass, 1 on assertion failure or an uncertified transport
or Poisson solve, 2 on input error.
Each check's bound is fixed: the reports' own constants for tangency (0.05),
contraction (1e-6) and continuity (1e-8), AXIOM_TOL (1e-8) for the flow
axioms and MIN_ORDER (1.0) for refinement. The curvature bound K is the
space's. Input checks the library makes are left to it: each geometry checks
its own parameters, and contraction and continuity take only the space and
decompose it after their own checks. There is no unseeded randomness anywhere:
the one random fixture, the 16-point Sinkhorn comparison, takes --seed, and
contraction without --pairs draws up to four pairs with seed 0.
"""
from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from functools import cache
from pathlib import Path

import numpy as np

from . import flow as flow_mod
from . import heat as heat_mod
from . import tangent as tangent_mod
from . import transport as transport_mod
from .geometry import CircleGeometry, SphereGeometry, TorusGeometry
from .spaces import _grid_space, build_space, model_circle

__all__ = ["main", "run"]

AXIOM_TOL = 1e-8  # flow axioms, and d_t (dtilde_t for pairs) against e^{-Kt} d
MIN_ORDER = 1.0   # refinement convergence order


class InputError(Exception):
    """Bad configuration or input file (exit code 2)."""


def _fmt(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return f"{float(x):.17g}"
    return str(x)


def write_csv(path, header, rows):
    """One CSV table; every cell, header included, goes through _fmt."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        for row in [header, *rows]:
            w.writerow([_fmt(v) for v in row])


def check(name, value, bound, ok, t=None):
    rec = {"name": name, "value": float(value), "bound": float(bound), "pass": bool(ok)}
    if t is not None:
        rec["t"] = float(t)
    return rec


def load_space(path):
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read space file {path}: {exc}") from exc
    try:
        return build_space(data["points"], data["edges"], data["measure"],
                           K=data.get("K"), conductances=data.get("conductances"),
                           symmetries=data.get("symmetries", ()))
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed space file {path}: {exc}") from exc


def parse_list(text, convert, what):
    """Comma-separated values through convert; empty items are skipped."""
    items = []
    for token in filter(None, text.split(",")):
        try:
            items.append(convert(token))
        except ValueError as exc:
            raise InputError(f"bad {what} {token!r}") from exc
    return items


def parse_times(text):
    times = parse_list(text, float, "time")
    if not times or not all(0 <= t < np.inf for t in times):
        raise InputError(f"times must be finite and >= 0: {text!r}")
    if any(b <= a for a, b in zip(times, times[1:])):
        raise InputError("times must be strictly ascending")
    return times


def parse_pairs(text, convert=int):
    def pair(token):
        a, b = token.split(":")
        return convert(a), convert(b)

    pairs = parse_list(text, pair, "i:j pair")
    if not pairs:
        raise InputError("empty pair list")
    return pairs


def build_geometry(args):
    """The --geometry, which checks its own parameters, without building a
    discrete space."""
    if args.geometry == "circle":
        return CircleGeometry(args.L, args.n)
    if args.geometry == "torus":
        return TorusGeometry(args.L1, args.L2, args.n1, args.n2)
    return SphereGeometry(args.r, args.ntheta, args.lmax)


def resolve_input(args):
    """Exactly one of --space / --geometry, as (space, geometry). Grid
    geometries come with their discrete space, the sphere with None."""
    has_space = getattr(args, "space", None) is not None
    has_geom = getattr(args, "geometry", None) is not None
    if has_space == has_geom:
        raise InputError("provide exactly one input: --space file or --geometry")
    if has_space:
        return load_space(args.space), None
    geom = build_geometry(args)
    return (None if isinstance(geom, SphereGeometry) else _grid_space(geom)), geom


# ---------------------------------------------------------------------------
# subcommands

def cmd_flow(args):
    space, _ = resolve_input(args)
    times = parse_times(args.times)
    hs = heat_mod.spectral_decompose(space)
    checks, tables = [], {}
    pairs = parse_pairs(args.pairs) if args.pairs else None
    for t in times:
        tag = format(t, ".10g").replace(".", "p").replace("-", "m")
        if pairs is not None:
            dtilde = flow_mod.dtilde_pairs(hs, t, pairs)
            tables[f"dtilde_pairs_{tag}.csv"] = (
                ["x", "y", "dtilde"], [(x, y, v) for (x, y), v in zip(pairs, dtilde)])
            dist = space.dist[tuple(np.transpose(pairs))]
            bounded = ("dtilde_below_scaled_original", dtilde)
        else:
            fm = flow_mod.flow_matrices(hs, t)
            ids = range(space.n)
            tables[f"dtilde_{tag}.csv"] = (ids, fm.dtilde)
            tables[f"dt_{tag}.csv"] = (ids, fm.dt)
            viol = fm.max_axiom_violation()
            checks.append(check("flow_axioms", viol, AXIOM_TOL, viol <= AXIOM_TOL, t=t))
            if t > 0 and space.n > 1:
                # reported, never asserted: how far the arc distance has drifted
                off = ~np.eye(space.n, dtype=bool)
                distortion = float(np.max(space.dist[off] / fm.dt[off]))
                print(f"INFO t={tag}: empirical distortion max d/d_t = {distortion:.6f}")
            dtilde, dist = fm.dtilde, space.dist
            bounded = ("dt_below_scaled_original", fm.dt)  # d_t >= dtilde_t
        if t == 0:
            exact = float(np.abs(dtilde - dist).max())
            checks.append(check("dtilde0_equals_d", exact, 0.0, exact == 0.0, t=0.0))
        elif space.K is not None:
            name, value = bounded
            excess = float((value - np.exp(-space.K * t) * dist).max())
            checks.append(check(name, excess, AXIOM_TOL, excess <= AXIOM_TOL, t=t))
    return checks, tables


def cmd_tangency(args):
    if args.geometry is None:
        raise InputError("tangency needs --geometry")
    geom = build_geometry(args)
    if not 0 < args.tmin <= args.tmax < np.inf:
        raise InputError(f"need 0 < tmin <= tmax < inf, not tmin={args.tmin} tmax={args.tmax}")
    t_grid, t = [], args.tmax
    while t >= args.tmin * (1 - 1e-12):
        t_grid.append(t)
        t /= 2
    v = tuple(float(s) for s in args.v.split(",")) if "," in args.v else float(args.v)
    if isinstance(geom, TorusGeometry) and not isinstance(v, tuple):
        v = (float(v), 0.0)
    try:
        report = tangent_mod.tangency_experiment(geom, v=v, t_grid=t_grid)
    except tangent_mod.UnresolvedTime as exc:
        raise InputError(f"{exc}; {_resolving_options(geom, t_grid[-1], args.tmax)}") from exc
    columns = ("t", "g_t", "slope", "hessian_mass", "target", "deviation")
    rows = [[row[k] for k in columns] + [""] for row in report.rows()]
    rows.append(["extrapolated", report.extrapolated_slope, "", "", report.target,
                 report.deviation, report.passed()])
    checks = [
        check("tangency_slope", report.deviation, report.tol, report.deviation <= report.tol),
        check("tangency_one_sided", 1.0 if report.one_sided_ok else 0.0, 1.0,
              report.one_sided_ok),
    ]
    return checks, {"tangency.csv": (columns + ("pass",), rows)}


def _resolving_options(geom, t, tmax):
    """The least options that resolve a periodic grid's smallest time t under
    the 4 h^2 rule: --n (--n1, --n2) of each coarse axis, or --tmin, with
    --tmax at least twice it."""
    flags = ["--n"] if isinstance(geom, CircleGeometry) else ["--n1", "--n2"]
    grids = [f"{flag} to at least {int(2 * L / np.sqrt(t)) + 1}"  # 4 (L / n)^2 < t
             for flag, (L, n) in zip(flags, geom.periodic_axes) if 4 * (L / n) ** 2 > t]
    floor = 4 * max(L / n for L, n in geom.periodic_axes) ** 2  # its repr reads back exactly
    tail = " and --tmax to at least twice that" if tmax < 2 * floor else ""
    return (f"raise {' and '.join(grids)}, or --tmin to at least {floor!r}{tail}, to resolve "
            "every time (the slope check may still need a finer grid)")


def _zonal_pairs(geom, widths):
    pairs = [(flow_mod.ZonalMeasure.pole(geom), flow_mod.ZonalMeasure.pole(geom, south=True))]
    for s0 in widths:
        pairs.append((flow_mod.ZonalMeasure.heat_kernel(geom, s0),
                      flow_mod.ZonalMeasure.heat_kernel(geom, s0, south=True)))
    return pairs


def cmd_contraction(args):
    space, geom = resolve_input(args)
    times = parse_times(args.times)
    if isinstance(geom, SphereGeometry):
        if args.pairs:
            raise InputError("the sphere runs on zonal pairs from --widths, not --pairs")
        widths = parse_list("0.1,0.3" if args.widths is None else args.widths, float, "width")
        report = flow_mod.sphere_contraction_report(geom, times, _zonal_pairs(geom, widths))
    else:
        if args.widths is not None:
            raise InputError("--widths applies only on the sphere")
        if args.pairs:
            pairs = parse_pairs(args.pairs)
        else:
            rng = np.random.default_rng(0)
            idx = rng.choice(space.n, size=(min(4, space.n // 2), 2), replace=False)
            pairs = [tuple(map(int, p)) for p in idx]
        report = flow_mod.contraction_report(space, times, pairs)
    rows = [(f"{r.pair[0]}|{r.pair[1]}", r.t, r.w2_initial, r.w2_evolved, r.ratio, r.bound,
             r.excess <= report.rel_tol) for r in report.records]
    checks = [check("contraction_max_excess", report.max_excess, report.rel_tol,
                    report.passed())]
    return checks, {"contraction.csv": (
        ["pair", "t", "w2_initial", "w2_evolved", "ratio", "bound", "pass"], rows)}


def cmd_continuity(args):
    space, _ = resolve_input(args)
    deltas = parse_list(args.deltas, float, "delta")
    report = flow_mod.time_continuity_report(space, args.t, deltas)
    checks = [
        check("continuity_decreasing", 1.0 if report.decreasing else 0.0, 1.0,
              report.decreasing, t=args.t),
        check("semigroup_bound_excess", report.semigroup_excess, report.tol,
              report.semigroup_excess <= report.tol, t=args.t),
    ]
    return checks, {"continuity.csv": (
        ["delta", "sup_difference"], zip(report.deltas, report.sup_differences))}


def cmd_refine(args):
    grids = parse_list(args.grids, int, "grid size")
    probes = parse_pairs(args.probes, float)
    report = flow_mod.refinement_stability(args.L, args.t, grids, probes)
    header = (["probe"] + [f"n{n}" for n in report.grid_sizes]
              + [f"diff{k}" for k in range(report.differences.shape[1])]
              + [f"order{k}" for k in range(report.orders.shape[1])])
    rows = [[f"{a}:{b}", *vals, *diffs, *orders] for (a, b), vals, diffs, orders
            in zip(probes, report.probe_values, report.differences, report.orders)]
    checks = [check("refinement_order", report.min_order, MIN_ORDER,
                    report.min_order >= MIN_ORDER, t=args.t)]
    return checks, {"refine.csv": (header, rows)}


def cmd_selftest(args):
    checks = []
    # two-point closed form
    space2 = build_space(2, [(0, 1, 1.0)], [1.0, 1.0], K=0.0, conductances=[1.0])
    hs2 = heat_mod.spectral_decompose(space2)
    t = 0.3
    fm = flow_mod.flow_matrices(hs2, t)
    dev = abs(fm.dtilde[0, 1] - np.exp(-t))
    checks.append(check("two_point_closed_form", dev, 1e-9, dev <= 1e-9, t=t))
    # heat sanity on a circle grid
    _, space = model_circle(2 * np.pi, 24)
    hs = heat_mod.spectral_decompose(space)
    rho_s = heat_mod.heat_kernel_matrix(hs, 0.2)
    rho_t = heat_mod.heat_kernel_matrix(hs, 0.3)
    rho_st = heat_mod.heat_kernel_matrix(hs, 0.5)
    ck = float(np.abs(rho_s @ (space.measure[:, None] * rho_t) - rho_st).max())
    checks.append(check("chapman_kolmogorov", ck, 1e-9, ck <= 1e-9))
    mass = float(np.abs(rho_t @ space.measure - 1).max())
    checks.append(check("kernel_mass", mass, 1e-8, mass <= 1e-8))
    margin = heat_mod.heat_injectivity_margin(hs, 0.3)
    checks.append(check("injectivity_margin", margin, -1e-12, margin >= -1e-12))
    ts = np.linspace(0, 1.5, 7)
    mu = space.delta(0)
    ents = [heat_mod.entropy(heat_mod.heat_apply(hs, s, mu), space.probability_measure())
            for s in ts]
    mono = float(max(np.diff(ents).max(), 0.0))
    checks.append(check("entropy_nonincreasing", mono, 1e-12, mono <= 1e-12))
    # transport: duality gap and involution
    rng = np.random.default_rng(args.seed)
    mu = rng.random(16) + 0.05
    nu = rng.random(16) + 0.05
    mu, nu = mu / mu.sum(), nu / nu.sum()
    _, sub = model_circle(1.0, 16)
    res = transport_mod.w2_exact(mu, nu, sub)
    gap = transport_mod.dual_gap(mu, nu, res.value, res.potentials, dist=sub.dist)
    checks.append(check("duality_gap", gap, 1e-8, -1e-10 <= gap <= 1e-8))
    phi = 1e-3 * np.sin(2 * np.pi * np.arange(16) / 16)
    phi_cc = transport_mod.c_transform(transport_mod.c_transform(phi, sub.dist), sub.dist)
    inv = float(np.abs(phi_cc - phi).max())
    checks.append(check("c_transform_involution", inv, 1e-9, inv <= 1e-9))
    try:
        sink, _ = transport_mod.w2_sinkhorn(mu, nu, sub.dist,
                                            eps_final=1e-3 * sub.dist.max() ** 2)
        rel = abs(sink - res.value) / res.value
    except transport_mod.SinkhornNonConvergence as exc:
        # a failed check, not a crash: the entropic solve has no value to compare
        print(f"INFO sinkhorn_vs_exact: {exc}")
        rel = np.inf
    checks.append(check("sinkhorn_vs_exact", rel, 0.01, rel <= 0.01))
    # contraction on the circle
    rep = flow_mod.contraction_report(space, [0.1, 0.5], [(0, 12), (3, 10)])
    checks.append(check("circle_contraction_excess", rep.max_excess, rep.rel_tol, rep.passed()))
    return checks, {}


# ---------------------------------------------------------------------------

def _add_geometry_args(p, sphere):
    """The grid geometries' flags, and the sphere's where the subcommand
    runs on it."""
    p.add_argument("--geometry", choices=["circle", "torus", "sphere"] if sphere else
                   ["circle", "torus"])
    p.add_argument("--L", type=float, default=2 * np.pi)
    p.add_argument("--n", type=int, default=64)
    p.add_argument("--L1", type=float, default=2 * np.pi)
    p.add_argument("--L2", type=float, default=2 * np.pi)
    p.add_argument("--n1", type=int, default=16)
    p.add_argument("--n2", type=int, default=16)
    if sphere:
        p.add_argument("--r", type=float, default=1.0)
        p.add_argument("--ntheta", type=int, default=512)
        p.add_argument("--lmax", type=int, default=120)


@cache
def build_parser():
    """The argument parser, built on the first call and shared by every run."""
    parser = argparse.ArgumentParser(prog="heatmetric",
                                     description="heat-kernel metric flow experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("flow", help="dtilde_t / d_t matrices")
    p.add_argument("--space")
    _add_geometry_args(p, sphere=False)
    p.add_argument("--times", required=True)
    p.add_argument("--pairs")

    p = sub.add_parser("tangency", help="small-time Ricci tangency experiment")
    _add_geometry_args(p, sphere=True)
    p.set_defaults(n=256, n1=256, n2=256)  # grids fine enough for the default times
    p.add_argument("--v", default="1.0")
    p.add_argument("--tmax", type=float, default=0.2)
    p.add_argument("--tmin", type=float, default=0.0125)

    p = sub.add_parser("contraction", help="W2 contraction report")
    p.add_argument("--space")
    _add_geometry_args(p, sphere=True)
    p.add_argument("--times", required=True)
    p.add_argument("--pairs")
    p.add_argument("--widths")  # default 0.1,0.3 on the sphere

    p = sub.add_parser("continuity", help="time continuity of the flow")
    p.add_argument("--space")
    _add_geometry_args(p, sphere=False)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--deltas", required=True)

    p = sub.add_parser("refine", help="circle grid refinement stability")
    p.add_argument("--L", type=float, default=2 * np.pi)
    p.add_argument("--t", type=float, default=0.1)
    p.add_argument("--grids", default="64,128,256,512")
    p.add_argument("--probes", default="0:0.5")

    p = sub.add_parser("selftest", help="invariant suite on built-in fixtures")
    p.add_argument("--seed", type=int, default=0)

    for sp in sub.choices.values():
        sp.add_argument("--out", default=".")
    return parser


COMMANDS = {
    "flow": cmd_flow,
    "tangency": cmd_tangency,
    "contraction": cmd_contraction,
    "continuity": cmd_continuity,
    "refine": cmd_refine,
    "selftest": cmd_selftest,
}


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    t0 = time.perf_counter()
    out = Path(args.out)
    try:
        checks, tables = COMMANDS[args.command](args)
        wall = time.perf_counter() - t0
        tables[f"{args.command}_checks.csv"] = (
            ["name", "t", "value", "bound", "pass"],
            [(c["name"], c.get("t", ""), c["value"], c["bound"], c["pass"]) for c in checks])
        out.mkdir(parents=True, exist_ok=True)
        for name, (header, rows) in tables.items():
            write_csv(out / name, header, rows)
        summary = {
            "command": args.command,
            "config": {k: v for k, v in sorted(vars(args).items()) if k != "command"},
            "checks": checks,
            "wall_time_seconds": wall,
        }
        with open(out / f"{args.command}_summary.json", "w") as fh:
            json.dump(summary, fh, indent=2, default=str)
            fh.write("\n")
    except (transport_mod.SolverFailure, tangent_mod.UncertifiedSolve) as exc:
        # valid input the solver could not certify: a failed run, not bad input
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (InputError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for c in checks:
        status = "PASS" if c["pass"] else "FAIL"
        print(f"{status} {c['name']}: value={_fmt(c['value'])} bound={_fmt(c['bound'])}")
    for name in tables:
        print(f"wrote {out / name}")
    return 0 if all(c["pass"] for c in checks) else 1


def main():  # console entry point
    sys.exit(run())


if __name__ == "__main__":
    main()
