"""Self-test of the benchmark's checks, on tiny inputs (about half a minute).

    python3 perfbench/selftest.py

For every workload it runs the checks and the independent references
against the program's real output, which must pass, and then against
perturbed copies of that output, each of which must be caught.  It also
checks that the metric names in BENCHMARK.json match what the harness
prints.  Exits 0 when everything holds.
"""

import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(var, "1")
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import csv  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import tempfile  # noqa: E402

from qdelta import arch, pipeline  # noqa: E402

import workloads  # noqa: E402
from layertrace import PER_LAYER  # noqa: E402

FAILURES = []


def expect(what: str, problems: list[str], needle: str | None = None) -> None:
    """With a needle, some problem must mention it; without, none may be reported."""
    if needle is None:
        ok = not problems
    else:
        ok = any(needle in p for p in problems)
    shown = next((p for p in problems if needle and needle in p), problems[0] if problems else "none")
    print(f"{'ok  ' if ok else 'FAIL'} {what}: {shown}")
    if not ok:
        FAILURES.append(what)


def run_round(w) -> dict:
    return {label: op() for label, op in w.operations()}


def both(w, out) -> list[str]:
    return w.check(out) + w.verify(out)


def edit_csv(path: Path, edit) -> None:
    with path.open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    fields = list(rows[0])
    with path.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        writer.writerows(edit(rows))


def test_identity(tmp: Path) -> None:
    w = workloads.Identity(1, tmp / "identity")
    w.setup()
    congruence = {"congruence/enumerate_gamma": pipeline.enumerate_gamma(w.inst["congruence"])}
    cfg = dict(w.cfg)
    w.cfg = {"congruence": cfg["congruence"]}
    expect("identity: congruence count matches the triple loop", w.verify(congruence))
    # the obstructed instance alone, on a coarse grid: both sides vanish
    w.cfg = {"obstructed": cfg["obstructed"]}
    w.inst = {"obstructed": w.inst["obstructed"]}
    w.quad = dataclasses.replace(w.quad, max_nodes=48)
    out = run_round(w)
    expect("identity passes on program output", both(w, out))
    gamma, rhs = out["obstructed/enumerate_gamma"], out["obstructed/poisson_rhs"]
    bad = dict(out, **{"obstructed/enumerate_gamma": dataclasses.replace(gamma, weighted=1e-9)})
    expect("identity catches a count off the triple loop", both(w, bad), "triple loop")
    for needle, delta in (("|Re total", 0.2), ("|Im total", 1e-6j)):
        bad = dict(out, **{"obstructed/poisson_rhs": dataclasses.replace(rhs, zero_part=rhs.zero_part + delta)})
        expect(f"identity catches a total off in {needle[1:]}", both(w, bad), needle)


def test_main_term(tmp: Path) -> None:
    w = workloads.MainTerm(1, tmp / "main_term")
    w.SQUARE_H, w.SPHERE_H = (1, 2, 3), (1, 2)
    w.setup()
    out = run_round(w)
    expect("main_term passes on program output", both(w, out))
    sq, sph = out["square/predict_main"], out["sphere/predict_main"]
    cases = [
        ("a square-case count/main ratio out of range", "count/main",
         {"square/predict_main": dataclasses.replace(sq, gammas=tuple(2 * g for g in sq.gammas))}),
        ("a wrong L(1, psi0)", "L(1, psi0)",
         {"sphere/predict_main": dataclasses.replace(sph, l_value=sph.l_value + 1e-6)}),
        ("a wrong Euler factor", "Euler factor",
         {"sphere/predict_main": dataclasses.replace(sph, series=dataclasses.replace(
             sph.series, factors=tuple((p, f * (1 + 1e-9)) for p, f in sph.series.factors)))}),
        ("a small-h count off the triple loop", "triple loop",
         {"square/predict_main": dataclasses.replace(sq, gammas=(sq.gammas[0] * (1 + 1e-9), *sq.gammas[1:]))}),
        ("a report singular integral unlike the recomputed one", "recomputed",
         {"square/predict_main": dataclasses.replace(sq, singular_integral=sq.singular_integral * (1 + 1e-9))}),
    ]
    for what, needle, change in cases:
        expect(f"main_term catches {what}", both(w, dict(out, **change)), needle)

    primes = set(w.primes["sphere"])
    edit_csv(out["sphere/density"],
             lambda rows: [dict(r, count=int(r["count"]) + (int(r["p"]) in primes)) for r in rows])
    expect("main_term catches a wrong count in density.csv", w.check(out), "density.csv")

    original = arch.singular_integral

    def skewed(inst, quad):
        si = original(inst, quad)
        return dataclasses.replace(si, coarea_value=si.value + 1e-3)

    arch.singular_integral = skewed
    try:
        expect("main_term catches mollifier and coarea routes that disagree", w.verify(out), "coarea")
    finally:
        arch.singular_integral = original

    closed = w._closed_count
    w._closed_count = lambda tag, p: closed(tag, p) + 1
    expect("main_term catches a closed-form count unlike the loop count", w.verify(out), "solutions mod")


def test_expsum(tmp: Path) -> None:
    w = workloads.ExpsumWindow(1, tmp / "expsum")
    w.RANGES = {"hyp625_small": "1:6", "hyp625_window": "199:202",
                "cong_small": "1:4", "cong_window": "100:101"}
    w.setup()
    out = run_round(w)
    expect("expsum_window passes on program output", both(w, out))

    def nudge(rows):
        return [dict(r, re=repr(float(r["re"]) + 1e-3)) for r in rows]

    for tag, needle in (("hyp625_small", "definition"), ("cong_window", "brute_S")):
        edit_csv(out[tag], nudge)
        expect(f"expsum_window catches wrong values in {tag}", w.verify(out), needle)
        w.run_cli("expsum", tag)
    edit_csv(out["cong_small"], lambda rows: rows[:-1])
    expect("expsum_window catches a missing row", w.check(out), "rows do not cover")


def test_osc(tmp: Path) -> None:
    w = workloads.OscMonitor(1, tmp / "osc")
    w.R_VALUES, w.SAMPLED = (2.0,), 2
    w.setup()
    out = run_round(w)
    expect("osc_monitor passes on program output", both(w, out))
    shifted = {label: (value + 1e-5, err) for label, (value, err) in out.items()}
    expect("osc_monitor catches values off the trapezoid grid", w.verify(shifted), "trapezoid")
    imag = {label: (value + 1e-9j, err) for label, (value, err) in out.items()}
    expect("osc_monitor catches I(-b) != conj I(b)", w.verify(imag), "conj")


def test_names() -> None:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        print("skip BENCHMARK.json: not found")
        return
    spec = json.loads(path.read_text())
    declared = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    problems = [] if declared == PER_LAYER else ["per_layer differs from layertrace.PER_LAYER"]
    names = {m["name"] for m in spec["end_to_end"]}
    if names != {"wall_s", "setup_s", "peak_rss_mb"}:
        problems.append(f"end_to_end names {sorted(names)} differ from what run.py prints")
    if [w["name"] for w in spec["workloads"]] != list(workloads.WORKLOADS):
        problems.append("workload names differ from workloads.WORKLOADS")
    expect("BENCHMARK.json matches the harness", problems)


def main() -> int:
    test_names()
    (HERE / "out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=HERE / "out") as tmp:
        for test in (test_identity, test_main_term, test_expsum, test_osc):
            test(Path(tmp))
    print(f"{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
