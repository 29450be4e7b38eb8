"""The four benchmark workloads.

Each workload describes its instances as flat `key = value` configs, writes
them under its output directory and builds the instances through the CLI's
own parser (set-up).  A round is a fixed list of program calls
(`operations`); `check` tests every round's outputs against properties the
method must have, and `verify` compares the first round's outputs with the
independent computations in `oracles`.  Program functions are looked up on
their modules at call time, so the tracer's wrappers see every call.
"""

from __future__ import annotations

import csv
import itertools
import math
import random
from pathlib import Path

import numpy as np

from qdelta import arch, cli, expsums, pipeline

import oracles

# Quadrature cap for every workload.  The default cap (320) makes each
# amplitude grid a 320^3 tensor: about 3.8 GB peak and 8 s per q on the
# identity side.  At 128 the osc_monitor calls stay below the cap, the
# singular integral matches its 320-node value to 1e-13, and both identity
# instances stay well inside their bound.
QUAD_MAX_NODES = 128

HYP_CENTER = "1.25, 0.5, 0.9013878188659973"
SPHERE_CENTER = ", ".join([repr(1 / 3**0.5)] * 3)

# x^2 + y^2 - z^2 = 25, the standing indefinite instance
HYPERBOLOID = {
    "a11": "1", "a22": "1", "a33": "-1", "m0": "1", "p0": "5", "h": "1",
    "L": "1", "lambda": "0,0,0",
    "weight_center": HYP_CENTER, "weight_radius": "0.6",
    "quad_max_nodes": str(QUAD_MAX_NODES),
}
# the same hyperboloid under x = (1, 0, 0) mod 2
CONGRUENCE = dict(HYPERBOLOID, L="2", **{"lambda": "1,0,0"})
# x^2 + y^2 + z^2 = 25
SPHERE = dict(HYPERBOLOID, a33="1", weight_center=SPHERE_CENTER)
# the sphere under x = (1, 1, 1) mod 2: F = 3 mod 8 against m0 N = 1 mod 8
OBSTRUCTED = dict(SPHERE, L="2", **{"lambda": "1,1,1"})


def config_text(cfg: dict) -> str:
    return "".join(f"{key} = {value}\n" for key, value in cfg.items())


def rel_close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


class Workload:
    name = ""

    def __init__(self, seed: int, outdir: Path):
        self.rng = random.Random(seed)
        self.outdir = outdir
        self.max_nodes = QUAD_MAX_NODES

    def configs(self) -> dict[str, dict]:
        raise NotImplementedError

    def setup(self) -> None:
        """Write and parse the configs, build the instances and calibrate the
        kernel mass: everything before the first timed call."""
        self.cfg, self.cfg_path, self.inst = {}, {}, {}
        cfg_dir = self.outdir / "configs"
        cfg_dir.mkdir(parents=True, exist_ok=True)
        for tag, cfg in self.configs().items():
            path = cfg_dir / f"{tag}.cfg"
            path.write_text(config_text(cfg))
            self.cfg_path[tag] = path
            self.cfg[tag] = cli.parse_config(str(path))
            self.inst[tag] = cli.build_instance(self.cfg[tag])
        self.quad = cli.quad_from_config(next(iter(self.cfg.values())))
        arch.DeltaKernel(Q=5.0).omega(np.array([0.75]))

    def operations(self) -> list:
        raise NotImplementedError

    def check(self, out: dict) -> list[str]:
        return []

    def verify(self, out: dict) -> list[str]:
        return []

    def run_cli(self, command: str, tag: str) -> Path:
        outdir = self.outdir / tag
        outdir.mkdir(exist_ok=True)
        code = cli.main([command, "--config", str(self.cfg_path[tag]), "--out", str(outdir)])
        if code != 0:
            raise RuntimeError(f"qdelta {command} exited with {code}")
        return outdir / f"{command}.csv"


class Identity(Workload):
    """Direct count and truncated expansion on the congruence and obstructed
    acceptance-4 instances."""

    name = "identity"

    def configs(self):
        return {"congruence": CONGRUENCE, "obstructed": OBSTRUCTED}

    def operations(self):
        ops = []
        for tag in self.inst:
            inst = self.inst[tag]
            ops.append((f"{tag}/enumerate_gamma", lambda inst=inst: pipeline.enumerate_gamma(inst)))
            ops.append((f"{tag}/poisson_rhs", lambda inst=inst: pipeline.poisson_rhs(inst, quad=self.quad)))
        return ops

    def check(self, out):
        problems = []
        for tag, cfg in self.cfg.items():
            gamma, rhs = out[f"{tag}/enumerate_gamma"], out[f"{tag}/poisson_rhs"]
            if gamma is None or rhs is None:
                continue
            scale = max(gamma.weighted, float(cfg["p0"]) ** int(cfg["h"]))
            err = abs(rhs.total.real - gamma.weighted)
            if err > 0.02 * scale:
                problems.append(f"{tag}: |Re total - count| = {err:.4g} > {0.02 * scale:.4g}")
            if abs(rhs.total.imag) > 1e-9 * scale:
                problems.append(f"{tag}: |Im total| = {abs(rhs.total.imag):.3g} is above rounding level")
            if tag == "obstructed" and (gamma.weighted != 0.0 or gamma.raw_count != 0):
                problems.append(f"obstructed: count {gamma.weighted} is not exactly 0")
        return problems

    def verify(self, out):
        problems = []
        for tag, cfg in self.cfg.items():
            gamma = out[f"{tag}/enumerate_gamma"]
            if gamma is None:
                continue
            weighted, raw = oracles.weighted_count(cfg)
            if raw != gamma.raw_count or not rel_close(weighted, gamma.weighted, 1e-12):
                problems.append(f"{tag}: count {gamma.weighted} ({gamma.raw_count} points) != "
                                f"triple loop {weighted} ({raw} points)")
        return problems


class MainTerm(Workload):
    """Main-term reports on the square case and the sphere, then the density
    command on the sphere."""

    name = "main_term"
    SQUARE_H = (1, 2, 3, 4, 5)
    SPHERE_H = (1, 2, 3, 4)
    # h values small enough for the triple-loop reference count
    ORACLE_H = {"square": (1, 2, 3), "sphere": (1, 2)}

    def configs(self):
        return {
            "square": dict(HYPERBOLOID, p0="3"),
            "sphere": dict(SPHERE, p0="7", p_max_density="500"),
        }

    def setup(self):
        super().setup()
        # a seeded sample of clean primes (p not dividing 2 det m0 L, p != p0)
        self.primes = {}
        for tag, cfg in self.cfg.items():
            co = oracles.coefficients(cfg)
            bad = 2 * oracles.gram_det(co) * int(cfg["m0"]) * int(cfg["L"])
            clean = [p for p in range(3, 44, 2)
                     if all(p % d for d in range(3, p, 2)) and bad % p and p != int(cfg["p0"])]
            self.primes[tag] = sorted(self.rng.sample(clean, 3))

    def operations(self):
        return [
            ("square/predict_main",
             lambda: pipeline.predict_main(self.inst["square"], h_values=self.SQUARE_H, quad=self.quad)),
            ("sphere/predict_main",
             lambda: pipeline.predict_main(self.inst["sphere"], h_values=self.SPHERE_H, quad=self.quad)),
            ("sphere/density", lambda: self.run_cli("density", "sphere")),
        ]

    def _euler_expected(self, tag: str, p: int, count: int) -> float:
        cfg = self.cfg[tag]
        chi = oracles.legendre(-int(cfg["m0"]) * oracles.gram_det(oracles.coefficients(cfg)), p)
        psi = 1 if self._square_disc(tag) else chi
        return (1.0 - psi / p) * count / p**2

    def _square_disc(self, tag: str) -> bool:
        cfg = self.cfg[tag]
        d = -int(cfg["m0"]) * oracles.gram_det(oracles.coefficients(cfg))
        return d > 0 and math.isqrt(d) ** 2 == d

    def _closed_count(self, tag: str, p: int) -> int:
        cfg = self.cfg[tag]
        d = oracles.gram_det(oracles.coefficients(cfg))
        return p * p + p * oracles.legendre(-int(cfg["m0"]) * d, p)

    def check(self, out):
        problems = []
        square = out["square/predict_main"]
        if square is not None:
            mains = square.predictions["main_sqrtN_logsqrtN"]
            for h, g, m in zip(square.h_values, square.gammas, mains):
                if not 0.5 <= g / m <= 1.5:
                    problems.append(f"square h={h}: count/main = {g / m:.4f} outside [0.5, 1.5]")
        sphere = out["sphere/predict_main"]
        if sphere is not None and abs(sphere.l_value - math.pi / 4) > 1e-8:
            problems.append(f"sphere: L(1, psi0) = {sphere.l_value!r} != pi/4")
        for tag in ("square", "sphere"):
            report = out[f"{tag}/predict_main"]
            if report is None:
                continue
            factors = dict(report.series.factors)
            for p in self.primes[tag]:
                want = self._euler_expected(tag, p, self._closed_count(tag, p))
                if not rel_close(factors[p], want, 1e-12):
                    problems.append(f"{tag}: Euler factor at p={p} is {factors[p]!r}, want {want!r}")
        path = out["sphere/density"]
        if path is not None:
            with path.open(newline="") as fh:
                rows = {int(r["p"]): r for r in csv.DictReader(fh)}
            for p in self.primes["sphere"]:
                count, euler = int(rows[p]["count"]), float(rows[p]["euler_factor"])
                want = self._closed_count("sphere", p)
                if count != want or not rel_close(euler, self._euler_expected("sphere", p, want), 1e-12):
                    problems.append(f"density.csv p={p}: count {count}, factor {euler!r}; want {want}")
        return problems

    def verify(self, out):
        problems = []
        for tag in ("square", "sphere"):
            for p in self.primes[tag]:
                brute, closed = oracles.count_mod_p(self.cfg[tag], p), self._closed_count(tag, p)
                if brute != closed:
                    problems.append(f"{tag}: {brute} solutions mod {p}, closed form {closed}")
            report = out[f"{tag}/predict_main"]
            if report is None:
                continue
            si = arch.singular_integral(self.inst[tag], self.quad)
            if si.value != report.singular_integral:
                problems.append(f"{tag}: report singular integral {report.singular_integral!r} "
                                f"!= recomputed {si.value!r}")
            if abs(si.value - si.coarea_value) > si.error + si.coarea_error + 1e-9:
                problems.append(f"{tag}: mollifier {si.value!r} and coarea {si.coarea_value!r} "
                                f"differ beyond their errors {si.error:.3g} + {si.coarea_error:.3g}")
            for h, gamma in zip(report.h_values, report.gammas):
                if h in self.ORACLE_H[tag]:
                    weighted, _ = oracles.weighted_count(self.cfg[tag], h)
                    if not rel_close(weighted, gamma, 1e-12):
                        problems.append(f"{tag} h={h}: count {gamma!r} != triple loop {weighted!r}")
        return problems


class ExpsumWindow(Workload):
    """`qdelta expsum` on both sides of the qL = 200 route boundary."""

    name = "expsum_window"
    N_FREQUENCIES = 6
    SAMPLED_ROWS = 3
    RANGES = {
        "hyp625_small": "1:24",
        "hyp625_window": "196:212",
        "cong_small": "1:16",
        "cong_window": "97:106",
    }

    def configs(self):
        vectors = [c for c in itertools.product(range(-4, 5), repeat=3) if any(c)]
        self.c_list = self.rng.sample(vectors, self.N_FREQUENCIES)
        c_field = ";".join(",".join(map(str, c)) for c in self.c_list)
        base = {"hyp625": dict(HYPERBOLOID, h="2"), "cong": CONGRUENCE}
        return {tag: dict(base[tag.split("_")[0]], q_range=rng, c_list=c_field)
                for tag, rng in self.RANGES.items()}

    def operations(self):
        return [(tag, lambda tag=tag: self.run_cli("expsum", tag)) for tag in self.RANGES]

    def _rows(self, path: Path) -> list[dict]:
        with path.open(newline="") as fh:
            return list(csv.DictReader(fh))

    def check(self, out):
        problems = []
        for tag, rng in self.RANGES.items():
            if out[tag] is None:
                continue
            lo, hi = (int(v) for v in rng.split(":"))
            rows = self._rows(out[tag])
            got = [(int(r["q"]), (int(r["c1"]), int(r["c2"]), int(r["c3"]))) for r in rows]
            want = [(q, c) for q in range(lo, hi + 1) for c in self.c_list]
            if got != want:
                problems.append(f"{tag}: rows do not cover q in {rng} x the frequency list")
            if any(int(r["q1"]) * int(r["q2"]) != int(r["q"]) for r in rows):
                problems.append(f"{tag}: q1 * q2 != q in some row")
        return problems

    def verify(self, out):
        problems = []
        for tag in self.RANGES:
            if out[tag] is None:
                continue
            cfg, L = self.cfg[tag], int(self.cfg[tag]["L"])
            rows = self._rows(out[tag])
            small = [r for r in rows if int(r["q"]) * L <= 40]
            large = [r for r in rows if int(r["q"]) * L > 200]
            amplitudes = {}
            for r in small:
                q = int(r["q"])
                if q not in amplitudes:
                    amplitudes[q] = oracles.sqc_amplitudes(cfg, q)
                c = (int(r["c1"]), int(r["c2"]), int(r["c3"]))
                want = oracles.sqc_value(amplitudes[q], q * L, c)
                if not self._equal(r, want, 1e-10 * (q * L) ** 3 * q):
                    problems.append(f"{tag} q={q} c={c}: {r['re']}+{r['im']}i != definition {want!r}")
            for r in self.rng.sample(large, min(self.SAMPLED_ROWS, len(large))):
                q, c = int(r["q"]), (int(r["c1"]), int(r["c2"]), int(r["c3"]))
                want = expsums.brute_S(self.inst[tag], q, c).value
                if not self._equal(r, want, 1e-9 * max(1.0, abs(want))):
                    problems.append(f"{tag} q={q} c={c}: {r['re']}+{r['im']}i != brute_S {complex(want)!r}")
        return problems

    @staticmethod
    def _equal(row: dict, want: complex, tol: float) -> bool:
        return abs(complex(float(row["re"]), float(row["im"])) - want) <= tol


class OscMonitor(Workload):
    """`arch.osc_integral` on the acceptance-9 (r, b) grid without its two
    costliest columns, r = 0.25 and 0.5: all four b at each remaining r, over
    the three standing forms."""

    name = "osc_monitor"
    R_VALUES = (1.0, 2.0)
    B_VALUES = ((1, 0, 0), (0, 1, 2), (2, 2, 1), (3, -1, 0))
    SAMPLED = 4
    TRAPEZOID_NODES = (128, 192)
    # slack on top of the program's error estimate and the grid's own
    TRAPEZOID_MARGIN = 1e-8

    def configs(self):
        return {"sphere": SPHERE, "hyperboloid": HYPERBOLOID, "congruence": CONGRUENCE}

    def setup(self):
        super().setup()
        # each b becomes a seeded signed permutation of itself: the same
        # max |b_i|, so the same node counts and cost on every seed
        self.cases = []
        for tag in self.inst:
            for r in self.R_VALUES:
                for b in self.B_VALUES:
                    perm = self.rng.sample(b, 3)
                    signed = tuple(v * self.rng.choice((-1, 1)) for v in perm)
                    self.cases.append((tag, r, signed))

    def operations(self):
        return [
            (f"{tag}/r={r}/b={b}",
             lambda tag=tag, r=r, b=b: arch.osc_integral(self.inst[tag], r, b, self.quad))
            for tag, r, b in self.cases
        ]

    def check(self, out):
        problems = []
        for label, res in out.items():
            if res is not None and not (np.isfinite(res[0]) and math.isfinite(res[1])):
                problems.append(f"{label}: non-finite value {res!r}")
        return problems

    def verify(self, out):
        problems = []
        mass = oracles.omega_mass()
        labels = dict(zip((label for label, _ in self.operations()), self.cases))
        done = [label for label in out if out[label] is not None]
        for label in self.rng.sample(done, self.SAMPLED):
            tag, r, b = labels[label]
            value, _ = out[label]
            mirror, _ = arch.osc_integral(self.inst[tag], r, tuple(-v for v in b), self.quad)
            if abs(mirror - value.conjugate()) > 1e-12 * max(1.0, abs(value)):
                problems.append(f"{label}: I(-b) = {mirror!r} != conj I(b) = {value.conjugate()!r}")
        for label in self.rng.sample(done, self.SAMPLED):
            tag, r, b = labels[label]
            value, err = out[label]
            coarse, fine = (oracles.osc_trapezoid(self.cfg[tag], r, b, n, mass)
                            for n in self.TRAPEZOID_NODES)
            slack = err + abs(fine - coarse) + self.TRAPEZOID_MARGIN
            if abs(fine - value) > slack:
                problems.append(f"{label}: osc_integral {value!r} vs trapezoid {fine!r}, "
                                f"gap {abs(fine - value):.3g} > {slack:.3g}")
        return problems


WORKLOADS = {w.name: w for w in (Identity, MainTerm, ExpsumWindow, OscMonitor)}
