"""The three workloads: their operations and the checks on every output.

An operation is one CLI invocation through heatmetric.cli.run or one library
report call. It fails when it raises, exits non-zero or fails a check here.
Checks compare against perfbench.reference, computed once per run outside
the timed region, or against properties the method must have.
"""
from __future__ import annotations

import csv
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import inputs
import reference

L = 2 * math.pi
AXIOM_TOL = 1e-8
REL_TOL = 1e-6
GT_REL_TOL = 2e-3


@dataclass
class Op:
    label: str
    call: Callable[[Path], object]
    results: int
    check: Callable[[Path, object], list]
    argv: list | None = None
    # fails every run on today's code, with an error containing this text;
    # counted as failed, never as incorrect
    known_fault: str | None = None


def cli_op(label, argv, results, check):
    def call(out):
        # looked up on every call, so the traced run sees its wrapper
        return sys.modules["heatmetric.cli"].run(argv + ["--out", str(out)])

    return Op(label, call, results, check, argv)


def rel_err(a, b):
    """Relative error of a against b; infinite unless both are finite, so a
    NaN never passes an `rel_err(...) > tol` check."""
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(a - b) / max(abs(b), 1e-300)


def finite(values, what):
    values = np.asarray(values, dtype=float)
    if not np.isfinite(values).all():
        raise ValueError(f"{what} holds a non-finite value")
    return values


def read_matrix(path):
    return finite(np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2), path.name)


def read_pairs(path):
    rows = finite(np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2), path.name)
    return {(int(x), int(y)): float(v) for x, y, v in rows}


def triangle_violation(M):
    # max over (i, j, k) of M[i, k] - M[i, j] - M[j, k]
    return float((M[:, None, :] - M[:, :, None] - M[None, :, :]).max())


def axiom_problems(tag, dtilde, dt):
    problems = []
    for name, M in (("dtilde", dtilde), ("d_t", dt)):
        for what, viol in (("asymmetry", np.abs(M - M.T).max()),
                           ("diagonal", np.abs(np.diag(M)).max()),
                           ("triangle", triangle_violation(M))):
            if viol > AXIOM_TOL:
                problems.append(f"{tag}: {name} {what} {viol:.3e} > {AXIOM_TOL}")
    excess = float((dtilde - dt).max())
    if excess > AXIOM_TOL:
        problems.append(f"{tag}: dtilde exceeds d_t by {excess:.3e}")
    return problems


def sample_problems(tag, got, ref):
    return [f"{tag}: entry {k} = {got[k]!r}, reference {v!r}"
            for k, v in ref.items() if rel_err(got[k], v) > REL_TOL]


class FlowMatrix:
    """Full dtilde_t / d_t matrices: many small exact transport solves."""

    def __init__(self, seed, work: Path):
        self.inp = inputs.generate("flow-matrix", seed, work / "inputs")
        self.circle = reference.circle_space(L, inputs.CIRCLE_N)
        self.graph = reference.graph_space(self.inp["graph"])
        self.torus = reference.torus_space(L, inputs.TORUS_SIDE)

        def refs(space, t, pairs):
            H = space.heat_measures(t)
            return {(x, y): reference.w2_lp(H[x], H[y], space.dist) for x, y in pairs}

        self.ref_circle = refs(self.circle, 0.25, self.inp["circle_sample"])
        self.ref_graph = refs(self.graph, inputs.GRAPH_T, self.inp["graph_sample"])
        tp = [tuple(p) for p in self.inp["torus_pairs"]]
        self.ref_torus = refs(self.torus, inputs.TORUS_T, [tp[k] for k in self.inp["torus_sample"]])

    def ops(self):
        n, g, tp = inputs.CIRCLE_N, inputs.GRAPH_N, self.inp["torus_pairs"]
        return [
            cli_op(f"flow circle n={n}", ["flow", "--geometry", "circle", "--n", str(n),
                                           "--times", inputs.CIRCLE_TIMES],
                   n * (n - 1), self.check_circle),
            cli_op(f"flow graph n={g}", ["flow", "--space", self.inp["graph_path"],
                                          "--times", str(inputs.GRAPH_T)],
                   g * (g - 1) // 2, self.check_graph),
            cli_op(f"flow torus {inputs.TORUS_SIDE}x{inputs.TORUS_SIDE} pairs",
                   ["flow", "--geometry", "torus", "--n1", str(inputs.TORUS_SIDE),
                    "--n2", str(inputs.TORUS_SIDE), "--times", f"0,{inputs.TORUS_T}",
                    "--pairs", ",".join(f"{x}:{y}" for x, y in tp)],
                   2 * len(tp), self.check_torus),
        ]

    def check_circle(self, out, rc):
        d = self.circle.dist
        dtil0, dt0 = read_matrix(out / "dtilde_0.csv"), read_matrix(out / "dt_0.csv")
        dtil, dt = read_matrix(out / "dtilde_0p25.csv"), read_matrix(out / "dt_0p25.csv")
        problems = []
        if not np.array_equal(dtil0, dt0):
            problems.append("circle: dtilde_0 differs from d_0")
        if np.abs(dtil0 - d).max() > 1e-12 * d.max():
            problems.append("circle: dtilde_0 differs from the reference metric")
        problems += axiom_problems("circle t=0.25", dtil, dt)
        if (dt - d).max() > AXIOM_TOL:
            problems.append(f"circle: d_t exceeds d (K=0) by {(dt - d).max():.3e}")
        n = self.circle.n
        shifted = np.array([[dtil[0, (j - i) % n] for j in range(n)] for i in range(n)])
        off = ~np.eye(n, dtype=bool)
        worst = float((np.abs(dtil - shifted)[off] / shifted[off]).max())
        if worst > REL_TOL:
            problems.append(f"circle: translation invariance off by {worst:.3e} relative")
        got = {k: dtil[k] for k in self.ref_circle}
        return problems + sample_problems("circle", got, self.ref_circle)

    def check_graph(self, out, rc):
        dtil = read_matrix(out / f"dtilde_{_tag(inputs.GRAPH_T)}.csv")
        dt = read_matrix(out / f"dt_{_tag(inputs.GRAPH_T)}.csv")
        problems = axiom_problems("graph", dtil, dt)
        got = {k: dtil[k] for k in self.ref_graph}
        return problems + sample_problems("graph", got, self.ref_graph)

    def check_torus(self, out, rc):
        d = self.torus.dist
        at0 = read_pairs(out / "dtilde_pairs_0.csv")
        at = read_pairs(out / f"dtilde_pairs_{_tag(inputs.TORUS_T)}.csv")
        pairs = [tuple(p) for p in self.inp["torus_pairs"]]
        problems = [f"torus: dtilde_0{p} = {at0[p]!r}, d = {d[p]!r}"
                    for p in pairs if rel_err(at0[p], d[p]) > 1e-12]
        problems += [f"torus: dtilde_t{p} = {at[p]!r} exceeds d = {d[p]!r}"
                     for p in pairs if at[p] > d[p] + AXIOM_TOL]
        for p, q in zip(pairs[::2], pairs[1::2]):
            if rel_err(at[p], at[q]) > REL_TOL:
                problems.append(f"torus: dtilde_t{p} = {at[p]!r} but translate {q} = {at[q]!r}")
        return problems + sample_problems("torus", at, self.ref_torus)


class CirclePairs:
    """Single-pair runs on large circle grids: few large exact solves."""

    def __init__(self, seed, work: Path):
        self.inp = inputs.generate("circle-pairs", seed, work / "inputs")
        self.spaces = {n: reference.circle_space(L, n) for n in inputs.PAIR_LAYOUT}
        H = self.spaces[64].heat_measures(inputs.PAIRS_T)
        d64 = self.spaces[64].dist
        probes = ({(i, j) for n, i, j, _ in self.inp["pairs"] if n == 64} | {(0, 32)}
                  | {(i, j) for n, i, j, _ in inputs.KNOWN_FAULT_PAIRS if n == 64})
        self.ref64 = {(i, j): reference.w2_lp(H[i], H[j], d64) for i, j in probes}
        self.by_offset = {}

    def ops(self):
        ops = []
        for n, i, j, off in self.inp["pairs"]:
            ops.append(self._pair_op(n, i, j, off))
        for n, i, j, fault in inputs.KNOWN_FAULT_PAIRS:
            op = self._pair_op(n, i, j, min((j - i) % n, (i - j) % n))
            op.known_fault = fault
            ops.append(op)
        ops.append(cli_op("refine 64,128,256", ["refine", "--grids", "64,128,256",
                                                "--t", str(inputs.PAIRS_T), "--probes", "0:0.5"],
                          3, self.check_refine))
        ops.append(cli_op("selftest", ["selftest", "--seed", str(inputs.SELFTEST_SEED)],
                          0, lambda out, rc: []))
        return ops

    def _pair_op(self, n, i, j, off):
        def check(out, rc):
            v = read_pairs(out / f"dtilde_pairs_{_tag(inputs.PAIRS_T)}.csv")[(i, j)]
            return self._value_problems(n, i, j, off, v)

        return cli_op(f"flow circle n={n} pair {i}:{j}",
                      ["flow", "--geometry", "circle", "--n", str(n),
                       "--times", str(inputs.PAIRS_T), "--pairs", f"{i}:{j}"], 1, check)

    def _value_problems(self, n, i, j, off, v):
        problems = []
        d = self.spaces[n].dist[i, j]
        if not 0 < v <= d + AXIOM_TOL:
            problems.append(f"n={n} {i}:{j}: value {v!r} outside (0, d = {d!r}]")
        first = self.by_offset.setdefault((n, off), v)
        if rel_err(v, first) > REL_TOL:
            problems.append(f"n={n} {i}:{j}: {v!r} differs from {first!r} at equal offset {off}")
        if n == 64 and rel_err(v, self.ref64[(i, j)]) > REL_TOL:
            problems.append(f"n=64 {i}:{j}: {v!r}, reference {self.ref64[(i, j)]!r}")
        return problems

    def check_refine(self, out, rc):
        with open(out / "refine.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        vals = [float(rows[0][f"n{n}"]) for n in (64, 128, 256)]
        problems = []
        for n, v in zip((64, 128, 256), vals):
            problems += self._value_problems(n, 0, n // 2, n // 2, v)
        order = math.log2(abs(vals[1] - vals[0]) / abs(vals[2] - vals[1]))
        if not order >= 1.0:
            problems.append(f"refine: recomputed order {order:.3f} < 1")
        return problems


class Tangency:
    """g_t on model geometries: Poisson solves, Legendre tables, analytic
    kernels, and no transport at all."""

    def __init__(self, seed, work: Path):
        self.inp = inputs.generate("tangency", seed, work / "inputs")
        self.v = tuple(self.inp["torus_v"])
        self.speed_sq = self.v[0] ** 2 + self.v[1] ** 2
        self.oracle = {}

    def gt_ref(self, t, speed_sq):
        if t not in self.oracle:
            self.oracle[t] = reference.circle_gt(t, L, 1.0)
        return speed_sq * self.oracle[t]

    def ops(self):
        v = f"{self.v[0]!r},{self.v[1]!r}"
        ops = []
        for ntheta, lmax, tmin in inputs.SPHERE_CONFIGS:
            argv = ["tangency", "--geometry", "sphere", "--ntheta", ntheta, "--lmax", lmax]
            argv += ["--tmin", tmin] if tmin else []
            count = _halvings(0.2, float(tmin or 0.0125))
            ops.append(cli_op(f"tangency sphere {ntheta}/{lmax}", argv, count,
                              self._sphere_check(count)))
        n = inputs.TANGENCY_CIRCLE_N
        count = _halvings(0.2, 0.0125)
        ops.append(cli_op(f"tangency circle n={n}",
                          ["tangency", "--geometry", "circle", "--n", str(n)],
                          count, self._flat_check(1.0, count)))
        count = _halvings(0.2, float(inputs.TORUS64_TMIN))
        ops.append(cli_op("tangency torus 64x64",
                          ["tangency", "--geometry", "torus", "--n1", "64", "--n2", "64",
                           f"--v={v}", "--tmin", inputs.TORUS64_TMIN],
                          count, self._flat_check(self.speed_sq, count)))
        ops.append(Op("tangency_experiment torus 256x256", self._torus256,
                      len(inputs.TORUS256_GRID), self.check_torus256))
        return ops

    def _torus256(self, out):
        hm = sys.modules["heatmetric"]
        geom = hm.TorusGeometry(L1=L, L2=L, n1=256, n2=256)
        return sys.modules["heatmetric.tangent"].tangency_experiment(
            geom, v=self.v, t_grid=inputs.TORUS256_GRID)

    @staticmethod
    def _rows(out, count):
        """(t, g_t) rows and the written extrapolated slope of tangency.csv."""
        with open(out / "tangency.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        body = [(float(r["t"]), float(r["g_t"])) for r in rows if r["t"] != "extrapolated"]
        extra = [float(r["g_t"]) for r in rows if r["t"] == "extrapolated"]
        finite([x for row in body for x in row] + extra, "tangency.csv")
        problems = [] if len(body) == count and len(extra) == 1 else [
            f"tangency.csv has {len(body)} time rows and {len(extra)} slope rows, "
            f"expected {count} and 1"]
        return body, extra, problems

    def _sphere_check(self, count):
        def check(out, rc):
            rows, extrapolated, problems = self._rows(out, count)
            if problems:
                return problems
            problems = [f"sphere: g_t({t}) = {g!r} above the Bochner bound "
                        f"e^(-2t) = {math.exp(-2 * t)!r}"
                        for t, g in rows if g > math.exp(-2 * t) + 1e-12]
            slopes = [(g - 1.0) / t for t, g in rows]
            again = 2 * slopes[-1] - slopes[-2]
            if rel_err(again, extrapolated[0]) > 1e-9:
                problems.append(f"sphere: written slope {extrapolated[0]!r}, recomputed {again!r}")
            if abs(again + 2.0) / 2.0 > 0.05:
                problems.append(f"sphere: extrapolated slope {again!r} not within 5% of -2")
            return problems

        return check

    def _flat_check(self, speed_sq, count):
        def check(out, rc):
            rows, _, problems = self._rows(out, count)
            return problems + self._gt_problems(rows, speed_sq)

        return check

    def _gt_problems(self, rows, speed_sq):
        return [f"g_t({t}) = {g!r}, oracle {self.gt_ref(t, speed_sq)!r}"
                for t, g in rows if rel_err(g, self.gt_ref(t, speed_sq)) > GT_REL_TOL]

    def check_torus256(self, out, report):
        problems = self._gt_problems(zip(report.ts, report.gt_values), self.speed_sq)
        if not report.passed(0.05):
            problems.append(f"torus 256: extrapolated slope {report.extrapolated_slope!r} "
                            "not within 0.05 of 0")
        return problems


def _tag(t):
    return format(t, ".10g").replace(".", "p").replace("-", "m")


def _halvings(tmax, tmin):
    count, t = 0, tmax
    while t >= tmin * (1 - 1e-12):
        count, t = count + 1, t / 2
    return count


WORKLOADS = {"flow-matrix": FlowMatrix, "circle-pairs": CirclePairs, "tangency": Tangency}
