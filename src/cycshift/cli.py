"""Command line front end.

Subcommands
-----------
decompose   print the Bloch decomposition of a state
dmax        maximize the cyclic-operation shift over the commutant
detect      classify a state from its maximal shift and PPT test
scan        sweep a state family and report per-state shift data
chsh        run the two-stage CHSH reconstruction of a phase operation

States are named either by a builtin pattern (``bell``, ``schmidt:0.6``,
``werner:0.5``, ``cc5050``, ``maxmixed:2x3``) or by a path to a JSON
file with ``dims`` and a row-major ``matrix`` of [re, im] pairs.

Each subcommand accepts only the numeric options it reads (``RunConfig``
lists them) and exits 2 on the others.  The command line is the only
source of options: an option that is not given takes the library's
default, and the environment is not read.

Exit codes: 0 success, 2 bad input or unrecoverable protocol geometry,
3 internal consistency failure (two formulas disagreeing, which means a
bug or a numerically hostile input, never a normal outcome).
"""

import argparse
import functools
import json
import math
import sys
from dataclasses import dataclass, field, fields

import numpy as np

from .analysis import PPT_EIG_FLOOR, SEPARABLE_BOUND, TOL_BOUND, _min_pt_eigenvalues, detect
from .bloch import TOL_HERM, TOL_PSD, _purities, _sq_norms, _validate_states, decompose
from .chsh import run_protocol
from .cyclic import (
    DEFAULT_RESTARTS,
    EPS_DEGENERATE,
    TOL_CYCLIC,
    _check_positive_finite,
    _qubit_b_closed_forms,
    d_max,
    phase_cyclic,
    shift_direct,
)
from .errors import ConsistencyError, RecoveryError
from .states import (
    _random_block,
    _schmidt_block,
    _separable_block,
    _werner_block,
    resolve_builtin,
    state_from_json,
)

SCAN_FAMILIES = ("separable", "werner-grid", "schmidt-grid", "random")
SCAN_SCHEMA = "scan-schema=v1"
SCAN_COLUMNS = ("index", "family", "param", "d_max", "beta_norm", "ppt_entangled",
                "bound_violated")


def _option(default, read_by, help):
    return field(default=default, metadata={"read_by": frozenset(read_by.split()), "help": help})


@dataclass(frozen=True)
class RunConfig:
    """Resolved numeric options.

    The one table of the options' names, types, defaults (the library's
    own), the subcommands that read them, and help texts.  A subcommand
    accepts exactly the flags it reads; ``chsh --restarts`` is the one
    flag that is accepted, validated and ignored.
    """

    seed: int = _option(0, "dmax detect scan",
                        "base seed for samplers and optimizer restarts")
    restarts: int = _option(DEFAULT_RESTARTS, "dmax detect chsh",
                            "multi-start count for the generic d_max optimizer "
                            "(no effect where d_max has a closed form: a qubit B side "
                            "or a nondegenerate qutrit B side; nor on chsh, whose "
                            "optimum is exact)")
    workers: int = _option(1, "scan",
                           "parallel worker processes, each computing one contiguous "
                           "block of rows")
    tol_herm: float = _option(TOL_HERM, "decompose dmax detect chsh",
                              "Hermiticity tolerance for state validation")
    tol_psd: float = _option(TOL_PSD, "decompose dmax detect chsh",
                             "positivity tolerance for state validation")
    tol_cyclic: float = _option(TOL_CYCLIC, "dmax detect scan chsh",
                                "commutation tolerance for cyclic unitaries")
    eps_deg: float = _option(EPS_DEGENERATE, "dmax detect scan chsh",
                             "eigenvalue gap below which levels count as degenerate")
    tol_bound: float = _option(TOL_BOUND, "detect scan",
                               "margin when testing the separable shift bound")


def _resolve_config(args):
    # a subcommand's parser holds only the options it reads; the rest keep their defaults
    config = RunConfig(**{option.name: getattr(args, option.name, option.default)
                          for option in fields(RunConfig)})
    if config.seed < 0:
        raise ValueError(f"seed must be >= 0, got {config.seed}")
    if config.restarts < 1:
        raise ValueError(f"restarts must be >= 1, got {config.restarts}")
    if config.workers < 1:
        raise ValueError(f"workers must be >= 1, got {config.workers}")
    for option in fields(RunConfig):
        if option.type is float:
            _check_positive_finite(option.name, getattr(config, option.name))
    return config


def _load_state(name_or_path, config):
    built = resolve_builtin(name_or_path)
    if built is not None:
        return built
    try:
        with open(name_or_path, encoding="utf-8") as fh:
            data = json.load(fh)
    except FileNotFoundError:
        raise ValueError(
            f"state {name_or_path!r} is neither a builtin name nor a readable file"
        ) from None
    except json.JSONDecodeError as exc:
        raise ValueError(
            f"state file {name_or_path!r} is not valid JSON: {exc}"
        ) from None
    return state_from_json(data, tol_herm=config.tol_herm, tol_psd=config.tol_psd)


def _jsonable(obj):
    """A payload in plain JSON types.

    Real arrays keep their shape; a complex array becomes the flat
    row-major list of its [re, im] pairs.
    """
    if isinstance(obj, dict):
        return {key: _jsonable(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(value) for value in obj]
    if isinstance(obj, np.ndarray):
        if np.iscomplexobj(obj):
            return [[z.real, z.imag] for z in obj.ravel().tolist()]
        return obj.tolist()
    if isinstance(obj, np.generic):
        return obj.item()
    return obj


def _json_text(payload):
    return json.dumps(payload, indent=2) + "\n"


def _write(text, out):
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _cmd_decompose(args, config):
    state = _load_state(args.state, config)
    form = decompose(state)
    return _json_text(_jsonable({
        "dims": [form.dim_a, form.dim_b],
        "r_a": form.r_a,
        "r_b": form.r_b,
        "beta": form.beta,
        "r_a_norm": np.linalg.norm(form.r_a),
        "r_b_norm": np.linalg.norm(form.r_b),
        "beta_norm": form.beta_norm,
    }))


def _cmd_dmax(args, config):
    state = _load_state(args.state, config)
    result = d_max(
        state,
        restarts=config.restarts,
        rng=np.random.default_rng(config.seed),
        eps_deg=config.eps_deg,
        tol_cyclic=config.tol_cyclic,
    )
    unit = result.unitary
    return _json_text(_jsonable({
        "d": result.d,
        "formula": result.formula,
        "method": result.method,
        "restarts": result.restarts,
        "certified": result.certified,
        "cross_check_residual": result.cross_check_residual,
        "params": result.params,
        "unitary": {
            "dim": unit.dim,
            "matrix": unit.matrix,
            "block_sizes": unit.structure.block_sizes,
            "eigenvalues": unit.structure.eigenvalues,
        },
    }))


def _cmd_detect(args, config):
    state = _load_state(args.state, config)
    report = detect(
        state,
        restarts=config.restarts,
        rng=np.random.default_rng(config.seed),
        tol_bound=config.tol_bound,
        eps_deg=config.eps_deg,
        tol_cyclic=config.tol_cyclic,
    )
    return _json_text(report.to_json_dict())


def _parse_axis(text):
    if text in ("x", "y", "z"):
        return text
    if text == "auto":
        return None
    parts = text.split(",")
    if len(parts) == 3:
        try:
            return np.array([float(p) for p in parts])
        except ValueError:
            pass
    raise ValueError(
        f"axis must be x, y, z, auto, or three comma-separated floats, got {text!r}"
    )


def _cmd_chsh(args, config):
    state = _load_state(args.state, config)
    unit = phase_cyclic(
        state,
        args.phi,
        axis=_parse_axis(args.axis),
        tol_cyclic=config.tol_cyclic,
        eps_deg=config.eps_deg,
    )
    transcript = run_protocol(state, unit, tol_cyclic=config.tol_cyclic)
    payload = {
        "phi": float(args.phi),
        "axis": args.axis,
        "d_direct": shift_direct(state, unit, tol_cyclic=config.tol_cyclic),
    }
    payload.update(transcript.to_json_dict())
    return _json_text(payload)


def _scan_rows(task):
    """Rows start..stop-1 of a scan, built, validated and computed as one block.

    The parameter column records the grid value for grid families, the
    ensemble size for separable samples and the purity for random ones.
    """
    family, start, stop, grid, seed, eps_deg, tol_cyclic, tol_bound = task
    if family == "separable":
        rhos, draws = _separable_block(seed, start, stop)
        params = [float(len(weights)) for weights, _ in draws]
    elif family == "random":
        rhos = _random_block(seed, start, stop)
        params = _purities(rhos).tolist()
    elif family == "werner-grid":
        rhos = _werner_block(grid[start:stop])
        params = grid[start:stop].tolist()
    elif family == "schmidt-grid":
        k1 = grid[start:stop]
        rhos = _schmidt_block(k1, np.sqrt(np.maximum(0.0, 1.0 - k1 * k1)))
        params = k1.tolist()
    else:
        raise ValueError(f"unknown scan family {family!r}")
    _validate_states(rhos, first_index=start)
    # every family is two-qubit
    forms = _qubit_b_closed_forms(rhos, (2, 2), eps_deg=eps_deg, tol_cyclic=tol_cyclic,
                                  first_index=start)
    beta_norms = np.sqrt(_sq_norms(forms.beta.reshape(len(rhos), -1)))
    min_eigs = _min_pt_eigenvalues(rhos, (2, 2))
    return [
        (index, family, param, d_value, beta_norm,
         min_eig < PPT_EIG_FLOOR, d_value > SEPARABLE_BOUND + tol_bound)
        for index, param, d_value, beta_norm, min_eig in zip(
            range(start, stop), params, forms.d.tolist(), beta_norms.tolist(),
            min_eigs.tolist())
    ]


def _cmd_scan(args, config):
    if args.count < 1:
        raise ValueError(f"count must be >= 1, got {args.count}")
    grid = None
    if args.family in ("werner-grid", "schmidt-grid"):
        grid = np.linspace(0.0, 1.0, args.count)
    # One contiguous block of rows per worker; each block is one batch.
    bounds = [args.count * k // config.workers for k in range(config.workers + 1)]
    tasks = [
        (args.family, start, stop, grid, config.seed, config.eps_deg,
         config.tol_cyclic, config.tol_bound)
        for start, stop in zip(bounds, bounds[1:]) if start < stop
    ]
    if len(tasks) == 1:
        blocks = [_scan_rows(tasks[0])]
    else:
        # loaded here: only a scan with several workers needs the process pool
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=len(tasks)) as pool:
            blocks = list(pool.map(_scan_rows, tasks))
    rows = [row for block in blocks for row in block]
    max_d = max(row[3] for row in rows)

    if args.format == "json":
        payload = {
            "schema": "scan-v1",
            "family": args.family,
            "count": args.count,
            "seed": config.seed,
            "rows": [dict(zip(SCAN_COLUMNS, row)) for row in rows],
            "max_d_max": max_d,
        }
        return _json_text(payload)

    lines = [f"# {SCAN_SCHEMA}", ",".join(SCAN_COLUMNS)]
    for index, family, param, d_value, beta_norm, ppt_entangled, bound_violated in rows:
        lines.append(
            f"{index},{family},{param!r},{d_value!r},{beta_norm!r},"
            f"{int(ppt_entangled)},{int(bound_violated)}"
        )
    lines.append(f"# max_d_max={max_d!r}")
    return "\n".join(lines) + "\n"


def _add_config_flags(parser, command):
    for option in fields(RunConfig):
        if command in option.metadata["read_by"]:
            parser.add_argument("--" + option.name.replace("_", "-"), type=option.type,
                                default=option.default, dest=option.name,
                                help=option.metadata["help"])
    parser.add_argument("--out", default=None,
                        help="write the report to this file instead of stdout")


@functools.lru_cache(maxsize=None)
def build_parser():
    """The argument parser, built once per process.

    Each subcommand's numeric flags default to their ``RunConfig``
    defaults.  ``subcommands`` maps each subcommand's name to its parser,
    which reports the options it rejects.
    """
    parser = argparse.ArgumentParser(
        prog="cycshift",
        description="State shifts of bipartite systems under local cyclic operations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    dec = sub.add_parser("decompose", help="Bloch decomposition of a state")
    dec.add_argument("--state", required=True,
                     help="builtin name (bell, schmidt:K1, werner:P, cc5050, "
                          "maxmixed:AxB) or JSON file path")
    _add_config_flags(dec, "decompose")
    dec.set_defaults(handler=_cmd_decompose)

    dmx = sub.add_parser("dmax", help="maximal shift over all cyclic operations")
    dmx.add_argument("--state", required=True, help="builtin name or JSON file path")
    _add_config_flags(dmx, "dmax")
    dmx.set_defaults(handler=_cmd_dmax)

    det = sub.add_parser("detect", help="classify a state from shift and PPT data")
    det.add_argument("--state", required=True, help="builtin name or JSON file path")
    _add_config_flags(det, "detect")
    det.set_defaults(handler=_cmd_detect)

    scn = sub.add_parser("scan", help="sweep a state family")
    scn.add_argument("--family", required=True, choices=SCAN_FAMILIES)
    scn.add_argument("--count", type=int, default=100,
                     help="number of states in the sweep")
    scn.add_argument("--format", choices=("csv", "json"), default="csv")
    _add_config_flags(scn, "scan")
    scn.set_defaults(handler=_cmd_scan)

    ch = sub.add_parser("chsh", help="two-stage CHSH shift reconstruction")
    ch.add_argument("--state", required=True, help="builtin name or JSON file path")
    ch.add_argument("--phi", type=float, default=math.pi,
                    help="rotation angle of the phase operation")
    ch.add_argument("--axis", default="z",
                    help="rotation axis: x, y, z, auto, or 'ux,uy,uz'")
    _add_config_flags(ch, "chsh")
    ch.set_defaults(handler=_cmd_chsh)

    parser.subcommands = sub.choices
    return parser


def main(argv=None):
    parser = build_parser()
    args, extra = parser.parse_known_args(argv)
    if extra:
        parser.subcommands[args.command].error("unrecognized arguments: " + " ".join(extra))
    try:
        config = _resolve_config(args)
        text = args.handler(args, config)
        _write(text, args.out)
    except ConsistencyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, RecoveryError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0
