"""Per-layer spans for the benchmark's traced run.

The tracer wraps each layer's public entry points at the module
attribute its caller looks up (`ffrestrict.salem.fourier_forward` is
the transform that `fit_salem_exponent` calls), so nothing in the
package changes.  Each span charges its self time, its duration minus
the spans it encloses, to its layer, so the layer times of one
`cli.main` call add up to that call's wall time.

Spans are kept on one stack, which assumes a single thread: the
benchmark leaves `FFR_THREADS` unset, so `parallel_map` is a plain loop.
"""

from __future__ import annotations

import functools
import importlib
import time

# (module, attribute, layer)
WRAPS = (
    ("ffrestrict.cli", "main", "cli"),
    ("ffrestrict.cli", "fit_salem_exponent", "salem.fit"),
    ("ffrestrict.restriction", "extension_norm_lower_bound",
     "restriction.ascent"),
    ("ffrestrict.families", "hamming_variety", "ensembles.build"),
    ("ffrestrict.families", "sphere_product", "ensembles.build"),
    ("ffrestrict.families", "cutoff_cylinder", "ensembles.build"),
    ("ffrestrict.salem", "surface_measure", "ensembles.measure"),
    ("ffrestrict.restriction", "surface_measure", "ensembles.measure"),
    ("ffrestrict.salem", "fourier_forward", "spectral.forward"),
    ("ffrestrict.restriction", "fourier_forward", "spectral.forward"),
    ("ffrestrict.restriction", "fourier_inverse", "spectral.inverse"),
    ("ffrestrict.salem", "lp_average_norm", "spectral.norm"),
    ("ffrestrict.restriction", "lq_norm", "spectral.norm"),
    ("ffrestrict.restriction", "lq_mu_norm", "spectral.norm"),
    ("ffrestrict.families", "regime_label", "families.threshold"),
    ("ffrestrict.reports", "write_csv", "reports.write"),
)

# name -> (unit, layers whose wrap targets must all exist)
METRICS = {
    "ensembles.build_s": ("s", ("ensembles.build",)),
    "ensembles.build_calls": ("count", ("ensembles.build",)),
    "ensembles.measure_s": ("s", ("ensembles.measure",)),
    "spectral.forward_s": ("s", ("spectral.forward",)),
    "spectral.forward_calls": ("count", ("spectral.forward",)),
    "spectral.inverse_s": ("s", ("spectral.inverse",)),
    "spectral.inverse_calls": ("count", ("spectral.inverse",)),
    "spectral.us_per_call": ("us", ("spectral.forward", "spectral.inverse")),
    "spectral.points": ("count", ("spectral.forward", "spectral.inverse")),
    "spectral.array_mib_max": ("MiB", ("spectral.forward",
                                       "spectral.inverse")),
    "spectral.norm_s": ("s", ("spectral.norm",)),
    "spectral.norm_calls": ("count", ("spectral.norm",)),
    "salem.fit_self_s": ("s", ("salem.fit",)),
    "restriction.ascent_self_s": ("s", ("restriction.ascent",)),
    "restriction.rows": ("count", ("restriction.ascent",)),
    "restriction.rows_converged": ("ratio", ("restriction.ascent",)),
    "families.threshold_s": ("s", ("families.threshold",)),
    "reports.write_s": ("s", ("reports.write",)),
    "cli.self_s": ("s", ("cli",)),
}

# bytes per point of a complex128 transform array
POINT_BYTES = 16


class Tracer:
    """Installs spans around WRAPS; `uninstall` restores the originals."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.missing: set[str] = set()
        self.top_s = 0.0  # duration of spans opened outside any span
        self.points = 0
        self.points_max = 0
        self.rows = 0
        self.rows_converged = 0
        self._open: list[float] = []  # child time of each open span
        self._undo: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for module_name, attr, layer in WRAPS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.missing.add(layer)
                continue
            fn = getattr(module, attr, None)
            if fn is None:
                self.missing.add(layer)
                continue
            setattr(module, attr, self._wrap(fn, layer))
            self._undo.append((module, attr, fn))

    def uninstall(self) -> None:
        while self._undo:
            module, attr, fn = self._undo.pop()
            setattr(module, attr, fn)

    def _wrap(self, fn, layer: str):
        @functools.wraps(fn)
        def span(*args, **kwargs):
            self._open.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - t0
                children = self._open.pop()
                if self._open:
                    self._open[-1] += duration
                else:
                    self.top_s += duration
                self.self_s[layer] = self.self_s.get(layer, 0.0) \
                    + duration - children
                self.calls[layer] = self.calls.get(layer, 0) + 1
            self._observe(layer, args, result)
            return result
        return span

    def _observe(self, layer: str, args: tuple, result) -> None:
        if layer in ("spectral.forward", "spectral.inverse"):
            n = len(args[0])
            self.points += n
            self.points_max = max(self.points_max, n)
        elif layer == "restriction.ascent":
            self.rows += 1
            self.rows_converged += bool(result.converged)

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Every METRICS entry whose wrap targets all exist."""
        s, calls = self.self_s.get, self.calls.get
        transform_calls = calls("spectral.forward", 0) \
            + calls("spectral.inverse", 0)
        values = {
            "ensembles.build_s": s("ensembles.build", 0.0),
            "ensembles.build_calls": calls("ensembles.build", 0),
            "ensembles.measure_s": s("ensembles.measure", 0.0),
            "spectral.forward_s": s("spectral.forward", 0.0),
            "spectral.forward_calls": calls("spectral.forward", 0),
            "spectral.inverse_s": s("spectral.inverse", 0.0),
            "spectral.inverse_calls": calls("spectral.inverse", 0),
            "spectral.us_per_call": 1e6 * (
                s("spectral.forward", 0.0) + s("spectral.inverse", 0.0))
                / max(transform_calls, 1),
            "spectral.points": self.points,
            "spectral.array_mib_max": POINT_BYTES * self.points_max / 2 ** 20,
            "spectral.norm_s": s("spectral.norm", 0.0),
            "spectral.norm_calls": calls("spectral.norm", 0),
            "salem.fit_self_s": s("salem.fit", 0.0),
            "restriction.ascent_self_s": s("restriction.ascent", 0.0),
            "restriction.rows": self.rows,
            "restriction.rows_converged":
                self.rows_converged / max(self.rows, 1),
            "families.threshold_s": s("families.threshold", 0.0),
            "reports.write_s": s("reports.write", 0.0),
            "cli.self_s": s("cli", 0.0),
        }
        return {name: (values[name], unit)
                for name, (unit, layers) in METRICS.items()
                if self.missing.isdisjoint(layers)}
