"""Per-layer tracing from outside the program.

`Tracer.install` replaces each traced function by a timing wrapper at every
place a caller looks it up: each qdelta module attribute bound to the
original function, and the entries of the CLI's command table.  A span is
recorded per call (name, start, end, parent span); a layer's self time is its
own time minus the time of the traced calls made inside it.  The program's
source is not touched, and `uninstall` puts every original back.
"""

from __future__ import annotations

import importlib
import json
import time
from pathlib import Path

QDELTA_MODULES = ("modarith", "qform", "expsums", "localdens", "arch", "pipeline", "cli")

# span name -> (module, attribute) of the function the span wraps
SPANS = {
    "pipeline.poisson_rhs": ("pipeline", "poisson_rhs"),
    "pipeline.enumerate_gamma": ("pipeline", "enumerate_gamma"),
    "pipeline.predict_main": ("pipeline", "predict_main"),
    "arch.amplitude_grid": ("arch", "_amplitude_grid"),
    "arch.osc_integral": ("arch", "osc_integral"),
    "arch.singular_integral": ("arch", "singular_integral"),
    "arch.coarea_integral": ("arch", "coarea_integral"),
    "expsums.sqc_grid": ("expsums", "sqc_grid"),
    "expsums.brute_S": ("expsums", "brute_S"),
    "expsums.lemma21_eval": ("expsums", "lemma21_eval"),
    "expsums.brute_S1": ("expsums", "brute_S1"),
    "expsums.brute_S2": ("expsums", "brute_S2"),
    "localdens.singular_series": ("localdens", "singular_series"),
    "localdens.sigma_p": ("localdens", "sigma_p"),
    "localdens.L_one_psi0": ("localdens", "L_one_psi0"),
    "cli.expsum": ("cli", "cmd_expsum"),
    "cli.density": ("cli", "cmd_density"),
}

# (metric, unit, better); every traced run reports all of them, 0 where the
# layer does not run on the workload
PER_LAYER = [
    ("pipeline.poisson_rhs_s", "s", "lower"),
    ("pipeline.poisson_rhs_self_s", "s", "lower"),
    ("pipeline.poisson_terms", "count", "lower"),
    ("pipeline.enumerate_gamma_s", "s", "lower"),
    ("pipeline.enumerate_points", "count", "higher"),
    ("pipeline.predict_main_s", "s", "lower"),
    ("arch.amplitude_grid_s", "s", "lower"),
    ("arch.amplitude_grid_calls", "count", "lower"),
    ("arch.amplitude_nodes", "count", "lower"),
    ("arch.amplitude_clamped_calls", "count", "lower"),
    ("arch.osc_integral_s", "s", "lower"),
    ("arch.osc_integral_calls", "count", "lower"),
    ("arch.singular_integral_s", "s", "lower"),
    ("arch.singular_integral_self_s", "s", "lower"),
    ("arch.coarea_integral_s", "s", "lower"),
    ("expsums.sqc_grid_s", "s", "lower"),
    ("expsums.sqc_grid_calls", "count", "lower"),
    ("expsums.brute_S_s", "s", "lower"),
    ("expsums.brute_S_calls", "count", "lower"),
    ("expsums.lemma21_eval_s", "s", "lower"),
    ("expsums.lemma21_eval_calls", "count", "lower"),
    ("expsums.brute_S1_s", "s", "lower"),
    ("expsums.brute_S1_calls", "count", "lower"),
    ("expsums.brute_S2_s", "s", "lower"),
    ("expsums.brute_S2_calls", "count", "lower"),
    ("localdens.singular_series_s", "s", "lower"),
    ("localdens.sigma_p_s", "s", "lower"),
    ("localdens.sigma_p_calls", "count", "lower"),
    ("localdens.L_one_psi0_s", "s", "lower"),
    ("cli.expsum_s", "s", "lower"),
    ("cli.density_s", "s", "lower"),
    ("cli.rows_written", "count", "higher"),
]

_CLI_OUTPUT = {"cli.expsum": "expsum.csv", "cli.density": "density.csv"}


class Tracer:
    """Spans and counters for one run; `max_nodes` is the quadrature cap the
    workload passes, so grid calls at the cap count as clamped."""

    def __init__(self, max_nodes: int):
        self.max_nodes = max_nodes
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self.round = 0
        self.totals: dict[str, float] = {}

    def reset(self, round_index: int) -> None:
        self.round = round_index
        self.totals = {name: 0 for name, _, _ in PER_LAYER}

    def _add(self, key: str, value) -> None:
        if key in self.totals:
            self.totals[key] += value

    def _observe(self, name: str, args, kwargs, result) -> None:
        if name == "pipeline.poisson_rhs":
            self._add("pipeline.poisson_terms", result.n_terms)
        elif name == "pipeline.enumerate_gamma":
            self._add("pipeline.enumerate_points", result.raw_count)
        elif name == "arch.amplitude_grid":
            nodes = args[3] if len(args) > 3 else kwargs["nodes"]
            self._add("arch.amplitude_nodes", nodes[0] * nodes[1] * nodes[2])
            self._add("arch.amplitude_clamped_calls", int(max(nodes) >= self.max_nodes))
        elif name in _CLI_OUTPUT:
            path = Path(args[0].out) / _CLI_OUTPUT[name]
            with path.open() as fh:
                self._add("cli.rows_written", sum(1 for _ in fh) - 1)

    def _wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = {"name": name, "round": self.round,
                    "parent": self._stack[-1] if self._stack else None, "child_s": 0.0}
            self.spans.append(span)
            self._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                span["start"], span["end"] = start, end
                if span["parent"] is not None:
                    self.spans[span["parent"]]["child_s"] += end - start
                self._add(f"{name}_s", end - start)
                self._add(f"{name}_self_s", end - start - span["child_s"])
                self._add(f"{name}_calls", 1)
            self._observe(name, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        mods = [importlib.import_module(f"qdelta.{m}") for m in QDELTA_MODULES]
        by_name = {m.__name__.rsplit(".", 1)[1]: m for m in mods}
        cli = by_name["cli"]
        for name, (module, attr) in SPANS.items():
            original = getattr(by_name[module], attr)
            wrapped = self._wrap(name, original)
            for mod in mods:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, key, value))
                        setattr(mod, key, wrapped)
            for key, value in list(cli._COMMANDS.items()):
                if value is original:
                    self._restore.append((cli._COMMANDS, key, value))
                    cli._COMMANDS[key] = wrapped

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._restore):
            if isinstance(owner, dict):
                owner[key] = value
            else:
                setattr(owner, key, value)
        self._restore.clear()

    def write(self, path: Path) -> None:
        path.write_text(json.dumps({"spans": self.spans}) + "\n")
