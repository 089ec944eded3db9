"""Per-layer tracing from outside the program.

`Tracer.install()` (or entering `with Tracer()`) replaces each public
function named in `LAYERS` by a timing wrapper, wherever a `wavepack` module
holds a reference to it (the defining module, the package namespace and every
`from .x import f` copy).  The program itself is not edited.
`Tracer.uninstall()` puts the originals back, so traced and untraced passes
can alternate in one process.

Every call becomes a span (id, name, start, end, parent span, op id).  Spans
stay in memory and are written once, by `write_spans`, when the run ends.
A span's self time is its duration minus the durations of its direct child
spans; integrand evaluation is not a span, so it stays inside the self time
of `integrate_interval`.
"""

import importlib
import sys
from time import perf_counter

LAYERS = {
    "quadrature": ("integrate_interval", "integrate_decaying",
                   "integrate_oscillatory_regularized", "psi_oracle"),
    "hermite": ("hermite_eval", "hermite_all", "gaussian_derivative"),
    "closedform": ("coscos", "sinsin", "g_n", "f_cosine_moment"),
    "wavepacket": ("psi", "position_norm_squared", "psi_x_derivative",
                   "parseval_transformed_derivative", "hermite_weighted_expansion",
                   "self_reciprocal_check", "fourier_cosine_transform"),
    "asymptotics": ("sech_packet_exact", "glaisher_packet_exact", "heat_series",
                    "sech_theta_series", "glaisher_large_t_series"),
    "zeta": ("zeta_from_lattice", "transform_moment_sum", "lattice_sum",
             "glaisher_alternating_gaussian"),
    "fd": ("derivative",),
    "registry": ("run_case", "load_catalogue", "emit_report"),
    "cli": ("main",),
}

# Functions whose returned QuadratureResult.evaluations are summed into `.evals`.
EVAL_COUNTED = ("quadrature.integrate_interval", "quadrature.psi_oracle")

# The traced runs of all four workloads call these, so their self times are
# never a constant 0.  The self times of the other functions are 0 on some
# workloads; they are printed in the summary and kept in the spans, but are
# not result metrics.
TIMED_EVERYWHERE = ("quadrature.integrate_interval", "quadrature.integrate_decaying",
                    "quadrature.psi_oracle", "wavepacket.psi")


def summary_only(key):
    """True for a per-layer key that is printed but not a result metric."""
    return key.endswith(".self_ms") and key[:-len(".self_ms")] not in TIMED_EVERYWHERE


class Tracer:
    def __init__(self):
        self.spans = []          # (span_id, name, start, end, parent_id, op_id)
        self.op_id = None
        self.calls = {}          # name -> number of calls
        self.self_s = {}         # name -> summed self time in seconds
        self.evals = {}          # name -> summed QuadratureResult.evaluations
        self.quad_results = 0    # results handed out of the quadrature layer
        self.quad_unconverged = 0
        self._stack = []         # open spans: [span_id, name, child seconds]
        self._next_id = 0
        self._undo = []

    def install(self):
        modules = [m for name, m in sys.modules.items()
                   if name == "wavepack" or name.startswith("wavepack.")]
        for layer, functions in LAYERS.items():
            home = importlib.import_module(f"wavepack.{layer}")
            for fname in functions:
                orig = getattr(home, fname)
                wrapper = self._wrap(f"{layer}.{fname}", orig)
                for mod in modules:
                    for attr, val in list(vars(mod).items()):
                        if val is orig:
                            setattr(mod, attr, wrapper)
                            self._undo.append((mod, attr, orig))

    def uninstall(self):
        for mod, attr, orig in reversed(self._undo):
            setattr(mod, attr, orig)
        self._undo.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def _wrap(self, name, fn):
        stack = self._stack
        counted = name in EVAL_COUNTED
        is_quad = name.startswith("quadrature.")

        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else None
            frame = [span_id, name, 0.0]
            stack.append(frame)
            result = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                if parent is not None:
                    parent[2] += duration
                self.spans.append((span_id, name, start, end,
                                   parent[0] if parent is not None else -1, self.op_id))
                self.calls[name] = self.calls.get(name, 0) + 1
                self.self_s[name] = self.self_s.get(name, 0.0) + duration - frame[2]
                evaluations = getattr(result, "evaluations", None)
                if counted and evaluations is not None:
                    self.evals[name] = self.evals.get(name, 0) + evaluations
                outermost = parent is None or not parent[1].startswith("quadrature.")
                if is_quad and outermost and evaluations is not None:
                    self.quad_results += 1
                    self.quad_unconverged += not result.converged

        return traced

    def layer_metrics(self, ops):
        """Per-layer metrics of this tracer's spans, for `ops` checked ops."""
        out = {}
        for layer, functions in LAYERS.items():
            for fname in functions:
                name = f"{layer}.{fname}"
                out[f"{name}.calls"] = (self.calls.get(name, 0), "count")
                out[f"{name}.self_ms"] = (self.self_s.get(name, 0.0) * 1e3, "ms")
        for name in EVAL_COUNTED:
            out[f"{name}.evals"] = (self.evals.get(name, 0), "count")
        out["quadrature.unconverged"] = (self.quad_unconverged, "count")
        converged = self.quad_results - self.quad_unconverged
        out["quadrature.converged_ratio"] = (
            converged / self.quad_results if self.quad_results else 1.0, "ratio")
        out["quadrature.evals_per_op"] = (
            self.evals.get("quadrature.integrate_interval", 0) / ops, "count/op")
        out["wavepacket.psi.calls_per_op"] = (
            self.calls.get("wavepacket.psi", 0) / ops, "count/op")
        return out

    def write_spans(self, path):
        """Write the spans as CSV, times in ms from the first span's start."""
        origin = min((s[2] for s in self.spans), default=0.0)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            fh.write("span_id,name,start_ms,end_ms,parent_id,op_id\n")
            for span_id, name, start, end, parent_id, op_id in self.spans:
                fh.write(f"{span_id},{name},{(start - origin) * 1e3:.6f},"
                         f"{(end - origin) * 1e3:.6f},{parent_id},{op_id}\n")
