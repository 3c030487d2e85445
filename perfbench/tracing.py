"""Spans around cycshift's layer boundaries, recorded from outside the package.

``Tracer.install`` replaces each traced function by a wrapper in the
module that calls it (``cycshift.cli.d_max`` and ``cycshift.analysis.d_max``
are separate bindings of one function, and both are wrapped), so no file
of the package changes.  Every call becomes one span: name, parent span,
start and end in nanoseconds, and a few attributes read off the
arguments or the result (dimensions, the d_max method, the optimizer's
``nfev``).  Spans stay in a list until ``write`` saves them at the end of
the run.  ``layer_metrics`` turns the spans into the per-layer metrics.
"""

import functools
import json
import time

import cycshift.analysis
import cycshift.bloch
import cycshift.chsh
import cycshift.cli
import cycshift.cyclic
import cycshift.states

SHIFT_DIMS = ("2x2", "2x3", "3x3")


def _dims(args, result):
    return "{}x{}".format(*args[0].dims)


def _dmax_attrs(args, result):
    structure = getattr(getattr(result, "unitary", None), "structure", None)
    return {
        "dims": _dims(args, result),
        "method": getattr(result, "method", None),
        "degenerate": any(s > 1 for s in getattr(structure, "block_sizes", ())),
    }


def _nfev(args, result):
    return {"nfev": int(getattr(result, "nfev", 0))}


# (module, attribute, span name, attribute reader).  The span name is the
# layer the function belongs to; the module is where it is called from.
TRACE_POINTS = (
    (cycshift.cli, "resolve_builtin", "states.resolve_builtin", None),
    (cycshift.cli, "state_from_json", "states.state_from_json", None),
    (cycshift.cli, "separable_at", "states.sample", None),
    (cycshift.cli, "random_state_at", "states.sample", None),
    (cycshift.cli, "werner_state", "states.sample", None),
    (cycshift.cli, "schmidt_state", "states.sample", None),
    (cycshift.states, "BipartiteState", "bloch.state_validate", None),
    (cycshift.cyclic, "BipartiteState", "bloch.state_validate", None),
    (cycshift.cli, "decompose", "bloch.decompose", _dims),
    (cycshift.cyclic, "decompose", "bloch.decompose", _dims),
    (cycshift.analysis, "decompose", "bloch.decompose", _dims),
    (cycshift.chsh, "decompose", "bloch.decompose", _dims),
    (cycshift.cli, "d_max", "cyclic.d_max", _dmax_attrs),
    (cycshift.analysis, "d_max", "cyclic.d_max", _dmax_attrs),
    (cycshift.cyclic, "commutant_basis", "cyclic.commutant_basis", None),
    (cycshift.cyclic, "shift_direct", "cyclic.shift_direct", _dims),
    (cycshift.chsh, "shift_direct", "cyclic.shift_direct", _dims),
    (cycshift.cli, "shift_direct", "cyclic.shift_direct", _dims),
    (cycshift.cli, "phase_cyclic", "cyclic.phase_cyclic", None),
    (cycshift.cyclic, "minimize", "scipy.minimize", _nfev),
    (cycshift.chsh, "minimize", "scipy.minimize", _nfev),
    (cycshift.cli, "detect", "analysis.detect", None),
    (cycshift.cli, "ppt_test", "analysis.ppt_test", None),
    (cycshift.analysis, "ppt_test", "analysis.ppt_test", None),
    (cycshift.cli, "run_protocol", "chsh.run_protocol", None),
    (cycshift.chsh, "chsh_expectation", "chsh.chsh_expectation", None),
    (cycshift.cyclic, "tensor", "operators.tensor", None),
    (cycshift.chsh, "tensor", "operators.tensor", None),
    (cycshift.bloch, "tensor", "operators.tensor", None),
)


class Tracer:
    """In-memory span recorder.

    A span is the list [name, parent index, start ns, end ns, attrs];
    the parent index is -1 for a root span.
    """

    def __init__(self):
        self.spans = []
        self._stack = [-1]
        self._saved = []

    def wrap(self, name, fn, attrs=None):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, stack[-1], clock(), 0, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[3] = clock()
            if attrs is not None:
                rec[4] = attrs(args, result)
            return result

        return traced

    def install(self, points=TRACE_POINTS):
        """Wrap every trace point that exists; return the names missing."""
        missing = []
        for module, attr, name, attrs in points:
            fn = getattr(module, attr, None)
            if fn is None:
                missing.append(f"{module.__name__}.{attr}")
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self.wrap(name, fn, attrs))
        return missing

    def uninstall(self):
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def write(self, path):
        """One JSON array per line: [id, parent, name, start_ns, end_ns, attrs]."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, span in enumerate(self.spans):
                fh.write(json.dumps([i, *span], separators=(",", ":")) + "\n")


def _mean(values):
    return sum(values) / len(values) if values else 0.0


def layer_metrics(spans, ops, scan_rows):
    """Per-layer metrics from the spans of a traced section.

    ``ops`` is the number of workload operations the section ran; they
    are scan rows when ``scan_rows`` is true.  Times are
    mean wall time per call with child spans included, except the
    ``cli.self_*`` metrics, which are self time: the root span's
    duration minus the time its direct children cover.  A layer the
    workload does not reach reads 0.
    """
    dur = [s[3] - s[2] for s in spans]
    child = [0] * len(spans)
    for i, s in enumerate(spans):
        if s[1] >= 0:
            child[s[1]] += dur[i]

    def under(i, name):
        p = spans[i][1]
        while p >= 0:
            if spans[p][0] == name:
                return p
            p = spans[p][1]
        return -1

    by_name = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[0], []).append(i)

    def idx(name, pred=None):
        return [i for i in by_name.get(name, []) if pred is None or pred(spans[i][4])]

    def mean_us(ids):
        return _mean([dur[i] for i in ids]) / 1e3

    roots = idx("cli.main")
    cli_self = sum(dur[i] - child[i] for i in roots)
    dmax = idx("cyclic.d_max")
    generic = [i for i in dmax if spans[i][4]["method"] == "multistart"]
    detect = idx("analysis.detect")
    protocols = idx("chsh.run_protocol")
    shift_in_dmax = [i for i in idx("cyclic.shift_direct") if under(i, "cyclic.d_max") >= 0]
    generic_set = set(generic)
    nfev_generic = sum(spans[i][4]["nfev"] for i in idx("scipy.minimize")
                       if under(i, "cyclic.d_max") in generic_set)
    decompose_in_detect = [i for i in idx("bloch.decompose") if under(i, "analysis.detect") >= 0]

    metrics = {
        "cli.self_ms_per_call": (cli_self / len(roots) / 1e6 if roots else 0.0, "ms"),
        "cli.self_us_per_row": (cli_self / ops / 1e3 if scan_rows else 0.0, "us"),
        "states.sample_us": (mean_us(idx("states.sample")), "us"),
        "states.from_json_us": (mean_us(idx("states.state_from_json")), "us"),
        "bloch.state_validate_us": (mean_us(idx("bloch.state_validate")), "us"),
        "bloch.decompose_us": (mean_us(idx("bloch.decompose", lambda a: a == "2x2")), "us"),
        "cyclic.commutant_basis_us": (mean_us(idx("cyclic.commutant_basis")), "us"),
        "cyclic.dmax_phase_us": (mean_us([i for i in dmax if spans[i][4]["method"]
                                          == "phase-closed-form"]), "us"),
        "cyclic.dmax_rotation_us": (mean_us([i for i in dmax if spans[i][4]["method"]
                                             == "rotation-closed-form"]), "us"),
        "cyclic.shift_direct_calls_per_dmax": (
            len(shift_in_dmax) / len(dmax) if dmax else 0.0, "count"),
        "cyclic.generic_dmax_nondeg_ms": (
            mean_us([i for i in generic if not spans[i][4]["degenerate"]]) / 1e3, "ms"),
        "cyclic.generic_dmax_deg_ms": (
            mean_us([i for i in generic if spans[i][4]["degenerate"]]) / 1e3, "ms"),
        "cyclic.generic_fevals_per_dmax": (
            nfev_generic / len(generic) if generic else 0.0, "count"),
        "analysis.ppt_test_us": (mean_us(idx("analysis.ppt_test")), "us"),
        "analysis.decompose_calls_per_detect": (
            len(decompose_in_detect) / len(detect) if detect else 0.0, "count"),
        "chsh.run_protocol_ms": (mean_us(protocols) / 1e3, "ms"),
        "chsh.f_evals_per_protocol": (
            len(idx("chsh.chsh_expectation")) / len(protocols) if protocols else 0.0, "count"),
        "chsh.f_eval_us": (mean_us(idx("chsh.chsh_expectation")), "us"),
        "operators.tensor_calls_per_op": (len(idx("operators.tensor")) / ops, "count"),
    }
    for dims in SHIFT_DIMS:
        metrics[f"cyclic.shift_direct_us.{dims}"] = (
            mean_us(idx("cyclic.shift_direct", lambda a, d=dims: a == d)), "us")
    return metrics
