"""Command line front end.

Subcommands: count, expsum, density, delta-check, compare.  Instances are
described by a flat key = value config file (# comments allowed); every run
echoes the config with its SHA-256 content hash.  CSV for tables, JSON for
reports.  Exit codes: 0 success, 1 tolerance failure, 2 config error,
3 resource-bound error.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
import time
from pathlib import Path

from .arch import DeltaKernel, QuadratureSpec, WeightSpec, delta_symbol
from .expsums import crt_split, sqc_value
from .localdens import singular_series
from .pipeline import (
    enumerate_gamma,
    extract_secondary,
    instance_echo,
    poisson_rhs,
    predict_main,
)
from .qform import CClass, CongruenceDatum, ProblemInstance, QForm, classify_c


class ConfigError(Exception):
    """Missing or malformed config field; the message names the field."""


def parse_config(path: str) -> dict[str, str]:
    cfg: dict[str, str] = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        cfg[key.strip()] = value.strip()
    return cfg


def config_sha256(cfg: dict[str, str]) -> str:
    canon = "\n".join(f"{k} = {cfg[k]}" for k in sorted(cfg))
    return hashlib.sha256(canon.encode()).hexdigest()


def _require(cfg: dict[str, str], field: str) -> str:
    if field not in cfg:
        raise ConfigError(f"missing config field: {field}")
    return cfg[field]


def _get_int(cfg, field, default=None):
    if field not in cfg:
        if default is None:
            raise ConfigError(f"missing config field: {field}")
        return default
    try:
        return int(cfg[field])
    except ValueError as exc:
        raise ConfigError(f"config field {field}: not an integer: {cfg[field]!r}") from exc


def _get_float(cfg, field, default=None):
    if field not in cfg:
        if default is None:
            raise ConfigError(f"missing config field: {field}")
        return default
    try:
        return float(cfg[field])
    except ValueError as exc:
        raise ConfigError(f"config field {field}: not a number: {cfg[field]!r}") from exc


def _get_ints(cfg, field, n=None, default=None):
    if field not in cfg:
        if default is None:
            raise ConfigError(f"missing config field: {field}")
        return default
    try:
        vals = tuple(int(v) for v in cfg[field].replace(",", " ").split())
    except ValueError as exc:
        raise ConfigError(f"config field {field}: not integers: {cfg[field]!r}") from exc
    if n is not None and len(vals) != n:
        raise ConfigError(f"config field {field}: expected {n} integers, got {len(vals)}")
    return vals


def _get_floats(cfg, field, n, default=None):
    if field not in cfg:
        if default is None:
            raise ConfigError(f"missing config field: {field}")
        return default
    try:
        vals = tuple(float(v) for v in cfg[field].replace(",", " ").split())
    except ValueError as exc:
        raise ConfigError(f"config field {field}: not numbers: {cfg[field]!r}") from exc
    if len(vals) != n:
        raise ConfigError(f"config field {field}: expected {n} numbers, got {len(vals)}")
    return vals


def _get_range(cfg, field, default):
    """Parse 'lo:hi' (inclusive)."""
    if field not in cfg:
        return default
    raw = cfg[field]
    if ":" not in raw:
        raise ConfigError(f"config field {field}: expected 'lo:hi', got {raw!r}")
    lo, _, hi = raw.partition(":")
    try:
        lo, hi = int(lo), int(hi)
    except ValueError as exc:
        raise ConfigError(f"config field {field}: expected integers in 'lo:hi'") from exc
    if lo > hi:
        raise ConfigError(f"config field {field}: empty range {raw!r} (lo > hi)")
    return lo, hi


def build_instance(cfg: dict[str, str]) -> ProblemInstance:
    try:
        form = QForm(
            a11=_get_int(cfg, "a11"),
            a22=_get_int(cfg, "a22"),
            a33=_get_int(cfg, "a33"),
            a12=_get_int(cfg, "a12", 0),
            a13=_get_int(cfg, "a13", 0),
            a23=_get_int(cfg, "a23", 0),
        )
        L = _get_int(cfg, "L", 1)
        lam = _get_ints(cfg, "lambda", 3, (0, 0, 0))
        profile = cfg.get("weight_profile", "ball")
        weight = WeightSpec(
            center=_get_floats(cfg, "weight_center", 3),
            radius=_get_float(cfg, "weight_radius"),
            profile=profile,
        )
        return ProblemInstance(
            form=form,
            m0=_get_int(cfg, "m0"),
            p0=_get_int(cfg, "p0"),
            h=_get_int(cfg, "h", 1),
            cong=CongruenceDatum(L=L, lam=lam),
            weight=weight,
        )
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"invalid instance config: {exc}") from exc


def quad_from_config(cfg: dict[str, str]) -> QuadratureSpec:
    return QuadratureSpec(
        base_nodes=_get_int(cfg, "quad_base_nodes", 24),
        nodes_per_cycle=_get_int(cfg, "quad_nodes_per_cycle", 7),
        nodes_per_feature=_get_int(cfg, "quad_nodes_per_feature", 5),
        max_nodes=_get_int(cfg, "quad_max_nodes", 320),
    )


def _class_tag(instance: ProblemInstance, c) -> str:
    if tuple(c) == (0, 0, 0):
        return "zero"
    cls = classify_c(instance, c)
    return {
        CClass.EXCEPTIONAL_TYPE_I: "exceptional-i",
        CClass.EXCEPTIONAL_TYPE_II: "exceptional-ii",
        CClass.ORDINARY: "ordinary",
    }[cls]


def _echo(args, cfg: dict[str, str], extra: dict | None = None) -> dict:
    doc = {
        "config_sha256": config_sha256(cfg),
        "config": dict(sorted(cfg.items())),
        "deterministic": bool(args.deterministic),
    }
    if extra:
        doc.update(extra)
    return doc


def _write_json(outdir: Path, name: str, doc: dict) -> Path:
    path = outdir / name
    path.write_text(json.dumps(doc, indent=2, sort_keys=True, default=str) + "\n")
    return path


def cmd_count(args, cfg) -> int:
    instance = build_instance(cfg)
    strategy = cfg.get("strategy", "sliced")
    result = enumerate_gamma(instance, strategy)
    doc = _echo(
        args,
        cfg,
        {
            "instance": instance_echo(instance),
            "N": result.N,
            "weighted": result.weighted,
            "raw_count": result.raw_count,
            "strategy": result.strategy,
            "wall_time": 0.0 if args.deterministic else result.wall_time,
        },
    )
    path = _write_json(Path(args.out), "count.json", doc)
    print(f"config {doc['config_sha256']}")
    print(f"wrote {path}")
    return 0


def cmd_expsum(args, cfg) -> int:
    instance = build_instance(cfg)
    q_lo, q_hi = _get_range(cfg, "q_range", (1, 50))
    c_field = cfg.get("c_list", "0,0,0")
    c_list = []
    for chunk in c_field.split(";"):
        try:
            vals = tuple(int(v) for v in chunk.replace(",", " ").split())
        except ValueError as exc:
            raise ConfigError(f"config field c_list: not integers: {chunk!r}") from exc
        if len(vals) != 3:
            raise ConfigError(f"config field c_list: expected triples, got {chunk!r}")
        c_list.append(vals)
    outdir = Path(args.out)
    path = outdir / "expsum.csv"
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["q", "q1", "q2", "c1", "c2", "c3", "re", "im", "abs", "class"])
        for q in range(q_lo, q_hi + 1):
            q1, q2 = crt_split(instance, q)
            for c in c_list:
                val = sqc_value(instance, q, c)
                writer.writerow(
                    [q, q1, q2, c[0], c[1], c[2],
                     repr(val.real), repr(val.imag), repr(abs(val)), _class_tag(instance, c)]
                )
    print(f"config {config_sha256(cfg)}")
    print(f"wrote {path}")
    return 0


def cmd_density(args, cfg) -> int:
    instance = build_instance(cfg)
    p_max = _get_int(cfg, "p_max_density", _get_int(cfg, "P_max", 100))
    outdir = Path(args.out)
    path = outdir / "density.csv"
    series = singular_series(instance, p_max)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["p", "k_star", "count", "density_num", "density_den", "euler_factor"])
        for dens, (p, euler) in zip(series.densities, series.factors):
            if p > p_max:
                continue  # the cone factor at p0 enters the series even beyond p_max
            writer.writerow(
                [p, dens.k_star, dens.count,
                 dens.value.numerator, dens.value.denominator, repr(euler)]
            )
    print(f"config {config_sha256(cfg)}")
    print(f"singular series (p <= {p_max}): {series.value!r} drift {series.drift!r}")
    if series.obstructed_at is not None:
        print(f"local obstruction at p = {series.obstructed_at}")
    print(f"wrote {path}")
    return 0


def cmd_delta_check(args, cfg) -> int:
    q_list = _get_ints(cfg, "Q_list", default=(5, 10, 20))
    n_lo, n_hi = _get_range(cfg, "n_range", (-25, 25))
    tempering = _get_float(cfg, "kernel_tempering", 0.4)
    skew = _get_float(cfg, "kernel_skew", -0.25)
    outdir = Path(args.out)
    path = outdir / "delta.csv"
    worst: dict[float, float] = {}
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n", "Q", "value", "deviation"])
        for Q in q_list:
            kernel = DeltaKernel(Q=float(Q), tempering=tempering, skew=skew)
            for n in range(n_lo, n_hi + 1):
                value = delta_symbol(kernel, n)
                deviation = abs(value - (1.0 if n == 0 else 0.0))
                worst[Q] = max(worst.get(Q, 0.0), deviation)
                writer.writerow([n, Q, repr(value), repr(deviation)])
    print(f"config {config_sha256(cfg)}")
    for Q, dev in worst.items():
        print(f"Q={Q}: max deviation {dev!r}")
    print(f"wrote {path}")
    return 0


def cmd_compare(args, cfg) -> int:
    instance = build_instance(cfg)
    h_lo = _get_int(cfg, "h_min", 1)
    h_hi = _get_int(cfg, "h_max", 3)
    if h_hi - h_lo + 1 < 3:
        raise ConfigError("config fields h_min/h_max: need at least 3 h values")
    tolerance = _get_float(cfg, "tolerance", 0.02)
    p_max = _get_int(cfg, "P_max", 300)
    quad = quad_from_config(cfg)
    h_values = tuple(range(h_lo, h_hi + 1))
    t0 = time.perf_counter()
    report = predict_main(instance, h_values=h_values, p_max=p_max, quad=quad)
    secondary = extract_secondary(report)

    # identity check on every h small enough for the truncated expansion
    identity = []
    kwargs = {}
    if "q_max" in cfg:
        kwargs["q_max"] = _get_int(cfg, "q_max")
    if "c_max" in cfg:
        kwargs["c_max"] = _get_int(cfg, "c_max")
    ok = True
    for h, gamma in zip(h_values, report.gammas):
        inst_h = instance.with_h(h)
        if inst_h.N > 400:
            continue
        expansion = poisson_rhs(inst_h, quad=quad, **kwargs)
        scale = max(gamma, float(inst_h.sqrtN))
        err = abs(expansion.total - gamma)
        passed = err <= tolerance * scale
        ok = ok and passed
        identity.append(
            {
                "h": h,
                "N": inst_h.N,
                "gamma": gamma,
                "expansion_total_re": expansion.total.real,
                "expansion_total_im": expansion.total.imag,
                "zero_part_re": expansion.zero_part.real,
                "exceptional_part_re": expansion.exceptional_part.real,
                "ordinary_part_re": expansion.ordinary_part.real,
                "q_max": expansion.q_max,
                "c_max": expansion.c_max,
                "shell_mass": expansion.shell_mass,
                "tail_budget": expansion.tail_budget,
                "nodes_per_q": list(expansion.nodes),
                "capped_q": list(expansion.capped_q),
                "abs_error": err,
                "tolerance": tolerance * scale,
                "pass": passed,
            }
        )
    wall = time.perf_counter() - t0
    doc = _echo(
        args,
        cfg,
        {
            "report": report.to_dict(),
            "secondary": secondary,
            "identity_checks": identity,
            "tolerance": tolerance,
            "all_identity_checks_pass": ok,
            "wall_time": 0.0 if args.deterministic else wall,
        },
    )
    path = _write_json(Path(args.out), "compare.json", doc)
    print(f"config {doc['config_sha256']}")
    for row in identity:
        print(
            f"h={row['h']}: |expansion - enumeration| = {row['abs_error']:.4g} "
            f"(tol {row['tolerance']:.4g}) {'PASS' if row['pass'] else 'FAIL'}"
        )
    print(f"best main-term candidate: {secondary['candidate']}")
    print(f"wrote {path}")
    return 0 if ok else 1


_COMMANDS = {
    "count": cmd_count,
    "expsum": cmd_expsum,
    "density": cmd_density,
    "delta-check": cmd_delta_check,
    "compare": cmd_compare,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="qdelta",
        description="Delta-method lattice point counts on ternary affine quadrics.",
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True, help="flat key = value config file")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument(
        "--deterministic",
        action="store_true",
        help="zero wall times for byte-identical outputs",
    )
    args = parser.parse_args(argv)
    try:
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        cfg = parse_config(args.config)
        return _COMMANDS[args.command](args, cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OverflowError) as exc:
        print(f"resource bound: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
