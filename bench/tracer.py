"""Outside-in span tracer for nhlab.

The tracer never touches ``src/``.  While installed it replaces every public
nhlab function, on every ``nhlab.*`` module namespace that binds it, with a
wrapper that records an in-memory span (name, start, end, parent).  The dense
numpy/scipy kernels nhlab calls (``numpy.linalg.eig`` ...) are wrapped the
same way and counted as ``lapack`` under whichever nhlab span called them.

Self time of a span is its duration minus the time its direct child spans
cover.  A span's *layer-local* time is its self time plus the layer-local time
of its children in the same layer (kernel spans belong to the layer that
called them); so ``eig.eig_full_s`` is the time eig_full spends in its own
Python and in the LAPACK calls it makes, and excludes the ``model`` span it
opens for the matrix norm.  Layer totals are sums of self time.  Two metrics
are end to end instead: ``scenarios.<name>_s`` is the whole duration of each
scenario, and ``properties.run_s`` that of the property suites.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from collections import defaultdict
from time import perf_counter

# layers whose named metrics below do not already add up to the layer's self time
TOTALLED_LAYERS = ("eig", "spectra", "laser", "perturb", "mech", "properties", "scenarios")
KERNELS = (("numpy.linalg", "eig"), ("numpy.linalg", "eigvals"), ("numpy.linalg", "eigh"),
           ("numpy.linalg", "eigvalsh"), ("numpy.linalg", "svd"), ("numpy.linalg", "solve"),
           ("numpy.linalg", "lstsq"), ("scipy.linalg", "schur"))
SCENARIO_FUNCS = {"fig1": "scenario_fig1", "fig2": "scenario_fig2", "fig3": "scenario_fig3",
                  "fig4": "scenario_fig4", "fig5": "scenario_fig5",
                  "oscillators": "scenario_oscillators", "properties": "scenario_properties",
                  "calibrate_s": "scenario_calibrate"}
KERNEL_LAYER = "lapack"
_MARK = "__bench_span__"

# counters read off return values: span name -> (counter, value of the result)
RESULT_COUNTERS = {
    "eig.eig_full": ("eig.non_biorthonormal",
                     lambda es: sum(s != "biorthonormal" for s in es.norm_status)),
    "skin.verify_selective_skin": ("skin.verdicts_failed", lambda r: int(not r.passed)),
    "skin.verify_standard_skin": ("skin.verdicts_failed", lambda r: int(not r.passed)),
    "mech.integrate": ("mech.integrate_steps", lambda traj: len(traj.times)),
}


class Span:
    __slots__ = ("name", "layer", "start", "end", "parent", "error")

    def __init__(self, name: str, layer: str, start: float, parent: int):
        self.name, self.layer, self.start, self.parent = name, layer, start, parent
        self.end = start
        self.error = False


class Tracer:
    """Installs span wrappers; collects spans and result counters per pass."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counters: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name: str, layer: str):
        spans, stack, counters = self.spans, self._stack, self.counters
        counter = RESULT_COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, layer, 0.0, stack[-1] if stack else -1)
            stack.append(len(spans))
            spans.append(span)
            span.start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                span.error = True
                raise
            finally:
                span.end = perf_counter()
                stack.pop()
            if counter is not None:
                counters[counter[0]] += counter[1](out)
            return out

        setattr(wrapper, _MARK, True)
        return wrapper

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for mod in nhlab_modules():
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or not obj.__module__.startswith("nhlab.")):
                    continue
                if obj not in wrappers:
                    layer = obj.__module__.split(".", 1)[1]
                    wrappers[obj] = self._wrap(obj, f"{layer}.{obj.__name__}", layer)
                self._patch(mod, attr, wrappers[obj])
        for modname, attr in KERNELS:
            mod = importlib.import_module(modname)
            self._patch(mod, attr, self._wrap(getattr(mod, attr), f"{modname}.{attr}",
                                              KERNEL_LAYER))

    def _patch(self, mod, attr: str, wrapper) -> None:
        self._patched.append((mod, attr, getattr(mod, attr)))
        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()
        assert_clean()

    def reset(self) -> None:
        self.spans.clear()
        self.counters.clear()


def nhlab_modules() -> list:
    return [mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "nhlab" or name.startswith("nhlab."))]


def assert_clean() -> None:
    """Raise if any span wrapper is still bound where the tracer puts them."""
    mods = nhlab_modules() + [importlib.import_module(m) for m, _ in KERNELS]
    left = [f"{mod.__name__}.{attr}" for mod in mods for attr, obj in vars(mod).items()
            if getattr(obj, _MARK, False)]
    if left:
        raise RuntimeError(f"span wrappers still installed: {left[:5]}")


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the time its direct children cover."""
    out = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.end - s.start
    return out


def layer_of(spans: list[Span], i: int) -> str:
    """A span's layer; kernel spans take the layer of the nhlab span above them."""
    while spans[i].layer == KERNEL_LAYER and spans[i].parent >= 0:
        i = spans[i].parent
    return spans[i].layer


def local_times(spans: list[Span], selfs: list[float], layers: list[str]) -> list[float]:
    """Self time plus the layer-local time of same-layer children."""
    local = list(selfs)
    for i in range(len(spans) - 1, -1, -1):      # children follow their parent
        p = spans[i].parent
        if p >= 0 and layers[p] == layers[i]:
            local[p] += local[i]
    return local


def pass_metrics(spans: list[Span], counters: dict[str, int], program_s: float,
                 output_bytes: int = 0) -> dict[str, float]:
    """Per-layer metrics of one traced pass (seconds are per pass)."""
    selfs = self_times(spans)
    layers = [layer_of(spans, i) for i in range(len(spans))]
    local = local_times(spans, selfs, layers)
    own_s, fn_s, incl_s = defaultdict(float), defaultdict(float), defaultdict(float)
    calls, errors = defaultdict(int), defaultdict(int)
    layer_s, kernel_s, kernel_calls = defaultdict(float), defaultdict(float), defaultdict(int)
    for i, s in enumerate(spans):
        calls[s.name] += 1
        errors[s.name] += s.error
        own_s[s.name] += selfs[i]
        fn_s[s.name] += local[i]
        incl_s[s.name] += s.end - s.start
        layer_s[layers[i]] += selfs[i]
        if s.layer == KERNEL_LAYER:
            kernel_s[layers[i]] += selfs[i]
            kernel_calls[layers[i]] += 1
    # kernel calls made under find_threshold, own or through track_mode
    thr_eigensolves = 0
    for i, s in enumerate(spans):
        if s.layer == KERNEL_LAYER and layers[i] == "laser":
            j = s.parent
            while j >= 0 and spans[j].name != "laser.find_threshold" and layers[j] == "laser":
                j = spans[j].parent
            thr_eigensolves += j >= 0 and spans[j].name == "laser.find_threshold"
    covered = sum(s.end - s.start for s in spans if s.parent < 0 and s.layer != KERNEL_LAYER)

    def ratio(a: float, b: float) -> float:
        return a / b if b > 0 else 0.0

    m = {f"{layer}.self_s": layer_s[layer] for layer in TOTALLED_LAYERS}
    m.update({
        "model.build_s": layer_s["model"] - fn_s["model.spectral_norm"],
        "model.spectral_norm_s": fn_s["model.spectral_norm"],
        "model.spectral_norm_calls": calls["model.spectral_norm"],
        "eig.eig_full_s": fn_s["eig.eig_full"],
        "eig.eig_full_calls": calls["eig.eig_full"],
        "eig.lapack_s": kernel_s["eig"],
        "eig.lapack_calls": kernel_calls["eig"],
        "eig.python_frac": 1.0 - ratio(kernel_s["eig"], fn_s["eig.eig_full"])
        if calls["eig.eig_full"] else 0.0,
        "eig.metric_pairing_s": fn_s["eig.apply_metric_pairing"],
        "eig.non_biorthonormal": counters.get("eig.non_biorthonormal", 0),
        "spectra.certify_s": fn_s["spectra.certify"],
        "spectra.ep_analyze_s": fn_s["spectra.ep_analyze"],
        "spectra.bmap_s": fn_s["spectra.bmap_correspondence"],
        "spectra.audit_s": fn_s["spectra.inner_product_audit"],
        "spectra.lapack_s": kernel_s["spectra"],
        "spectra.lapack_calls": kernel_calls["spectra"],
        "skin.verify_s": layer_s["skin"],
        "skin.modes_classified": calls["skin.mode_report"],
        "skin.verdicts_failed": counters.get("skin.verdicts_failed", 0),
        "laser.find_threshold_s": fn_s["laser.find_threshold"],
        "laser.track_mode_s": fn_s["laser.track_mode"],
        "laser.power_flows_s": fn_s["laser.power_flows"],
        "laser.lapack_s": kernel_s["laser"],
        "laser.eigensolves": kernel_calls["laser"],
        "laser.eigensolves_per_threshold": ratio(thr_eigensolves,
                                                 calls["laser.find_threshold"]),
        "laser.threshold_errors": errors["laser.find_threshold"],
        "perturb.first_order_s": fn_s["perturb.first_order"],
        "perturb.nhph_pairs_s": fn_s["perturb.nhph_pairs"],
        "mech.integrate_s": fn_s["mech.integrate"],
        "mech.integrate_steps": counters.get("mech.integrate_steps", 0),
        "mech.steps_per_s": ratio(counters.get("mech.integrate_steps", 0),
                                  fn_s["mech.integrate"]),
        "mech.eigenfrequencies_s": fn_s["mech.eigenfrequencies"],
        "properties.run_s": incl_s["properties.run_properties"],
        "properties.trials": calls["properties.run_trial"],
        "properties.trials_per_s": ratio(calls["properties.run_trial"],
                                         incl_s["properties.run_properties"]),
        "scenarios.write_s": own_s["scenarios.run"],
        "scenarios.output_bytes": output_bytes,
        "cli.main_self_s": fn_s["cli.main"],
        "trace.coverage_frac": ratio(covered, program_s),
    })
    for scenario, func in SCENARIO_FUNCS.items():
        m[f"scenarios.{scenario}_s"] = incl_s[f"scenarios.{func}"]
    return m

