import inspect
import json
import math
import os
import subprocess
import sys
from dataclasses import fields

import numpy as np
import pytest

import cycshift
import cycshift.cli
import cycshift.cyclic
from cycshift.analysis import detect
from cycshift.bloch import BipartiteState, decompose
from cycshift.chsh import run_protocol
from cycshift.cli import RunConfig, main
from cycshift.cyclic import cyclic_from_matrix, d_max, shift_direct
from cycshift.states import (
    bell_state,
    maximally_mixed,
    random_state_at,
    schmidt_state,
    separable_at,
    state_from_json,
    state_to_json,
    werner_state,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_decompose_builtin(capsys):
    code, out, _ = run_cli(capsys, "decompose", "--state", "schmidt:0.6")
    assert code == 0
    data = json.loads(out)
    assert data["dims"] == [2, 2]
    assert abs(data["beta"][0][0] - 0.96) < 1e-12
    assert abs(data["beta"][2][2] - 1.0) < 1e-12
    assert abs(data["r_b"][2] + 0.28) < 1e-12


def test_dmax_builtin(capsys):
    code, out, _ = run_cli(capsys, "dmax", "--state", "schmidt:0.6")
    assert code == 0
    data = json.loads(out)
    assert abs(data["d"] - 0.96) < 1e-10
    assert data["certified"] is True
    assert data["method"] == "phase-closed-form"
    assert data["unitary"]["dim"] == 2
    assert len(data["unitary"]["matrix"]) == 4


def test_detect_builtin(capsys):
    code, out, _ = run_cli(capsys, "detect", "--state", "werner:0.5")
    assert code == 0
    data = json.loads(out)
    assert data["classification"] == "entangled-certified"
    assert data["ppt_negative"] is True
    assert data["bound_violated"] is False


def test_state_from_file(tmp_path, capsys):
    path = tmp_path / "bell.json"
    path.write_text(json.dumps(state_to_json(bell_state())))
    code, out, _ = run_cli(capsys, "dmax", "--state", str(path))
    assert code == 0
    assert abs(json.loads(out)["d"] - 1.0) < 1e-10


def test_output_file(tmp_path, capsys):
    path = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "detect", "--state", "bell",
                           "--out", str(path))
    assert code == 0
    assert out == ""
    data = json.loads(path.read_text())
    assert data["bound_violated"] is True


def test_unknown_state_exits_2(capsys):
    code, _, err = run_cli(capsys, "dmax", "--state", "nosuchstate")
    assert code == 2
    assert "neither a builtin" in err


def test_malformed_builtin_exits_2(capsys):
    code, _, err = run_cli(capsys, "dmax", "--state", "schmidt:oops")
    assert code == 2
    assert "schmidt" in err


def test_invalid_state_file_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, err = run_cli(capsys, "dmax", "--state", str(path))
    assert code == 2
    assert "JSON" in err


def test_nonphysical_state_file_exits_2(tmp_path, capsys):
    data = state_to_json(bell_state())
    data["matrix"][0] = [5.0, 0.0]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    code, _, err = run_cli(capsys, "dmax", "--state", str(path))
    assert code == 2


def test_non_cyclic_axis_exits_2(capsys):
    code, _, err = run_cli(capsys, "chsh", "--state", "schmidt:0.6",
                           "--axis", "x")
    assert code == 2
    assert "commutator" in err


def test_flat_protocol_exits_2(capsys):
    code, _, err = run_cli(capsys, "chsh", "--state", "maxmixed:2x2")
    assert code == 2
    assert "not unique" in err


def test_chsh_roundtrip(capsys):
    code, out, _ = run_cli(capsys, "chsh", "--state", "schmidt:0.6",
                           "--phi", "1.3", "--restarts", "2")
    assert code == 0
    data = json.loads(out)
    assert abs(data["estimated_d"] - data["d_direct"]) < 1e-9
    want = 2.0 * 0.6 * 0.8 * abs(math.sin(0.65))
    assert abs(data["d_direct"] - want) < 1e-12
    assert abs(data["stage1"]["f_max"] - data["stage2"]["f_value"]) < 1e-9


def test_chsh_vector_axis(capsys):
    code, out, _ = run_cli(capsys, "chsh", "--state", "werner:0.8",
                           "--phi", "2.0", "--axis", "0.6,0.0,0.8",
                           "--restarts", "2")
    assert code == 0
    data = json.loads(out)
    assert abs(data["estimated_d"] - data["d_direct"]) < 1e-9


def test_bad_axis_exits_2(capsys):
    code, _, err = run_cli(capsys, "chsh", "--state", "bell",
                           "--axis", "sideways")
    assert code == 2
    assert "axis" in err


def test_scan_csv_shape(capsys):
    code, out, _ = run_cli(capsys, "scan", "--family", "werner-grid",
                           "--count", "5", "--seed", "0")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "# scan-schema=v1"
    assert lines[1] == ("index,family,param,d_max,beta_norm,"
                        "ppt_entangled,bound_violated")
    assert len(lines) == 2 + 5 + 1
    assert lines[-1].startswith("# max_d_max=")
    # the werner grid obeys d_max = p
    last = lines[-2].split(",")
    assert last[0] == "4"
    assert abs(float(last[3]) - 1.0) < 1e-10


def test_scan_json_format(capsys):
    code, out, _ = run_cli(capsys, "scan", "--family", "schmidt-grid",
                           "--count", "5", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["schema"] == "scan-v1"
    assert len(data["rows"]) == 5
    for row in data["rows"]:
        k1 = row["param"]
        want = 2.0 * k1 * math.sqrt(max(0.0, 1.0 - k1 * k1))
        assert abs(row["d_max"] - want) < 1e-9


def test_scan_is_deterministic(tmp_path, capsys):
    out_1 = tmp_path / "a.csv"
    out_2 = tmp_path / "b.csv"
    for path in (out_1, out_2):
        code, _, _ = run_cli(capsys, "scan", "--family", "separable",
                             "--count", "25", "--seed", "42",
                             "--out", str(path))
        assert code == 0
    assert out_1.read_bytes() == out_2.read_bytes()


def test_scan_workers_do_not_change_output(tmp_path, capsys):
    serial = tmp_path / "serial.csv"
    parallel = tmp_path / "parallel.csv"
    run_cli(capsys, "scan", "--family", "separable", "--count", "24",
            "--seed", "7", "--out", str(serial))
    run_cli(capsys, "scan", "--family", "separable", "--count", "24",
            "--seed", "7", "--workers", "3", "--out", str(parallel))
    assert serial.read_bytes() == parallel.read_bytes()


def test_scan_rejects_bad_count(capsys):
    code, _, err = run_cli(capsys, "scan", "--family", "separable",
                           "--count", "0")
    assert code == 2
    assert "count" in err


def test_env_override_and_flag_precedence(capsys):
    # the closed form ignores restarts for the result, but the flag is
    # still parsed and validated
    code, _, _ = run_cli(capsys, "dmax", "--state", "bell", "--restarts", "3")
    assert code == 0
    with pytest.raises(SystemExit) as exc:
        main(["dmax", "--state", "bell", "--restarts", "junk"])
    assert exc.value.code == 2
    assert "argument --restarts: invalid int value: 'junk'" in capsys.readouterr().err
    code, _, err = run_cli(capsys, "dmax", "--state", "bell", "--restarts", "0")
    assert code == 2
    assert "restarts must be >= 1" in err
    # a later flag wins over an earlier one
    code, out, _ = run_cli(capsys, "dmax", "--state", "maxmixed:2x3",
                           "--restarts", "9", "--restarts", "4")
    assert code == 0
    assert json.loads(out)["restarts"] == 4


def test_seed_flag_changes_scan(capsys):
    argv = ["scan", "--family", "separable", "--count", "3"]
    _, out_default, _ = run_cli(capsys, *argv)
    assert run_cli(capsys, *argv, "--seed", "99")[1] != out_default
    assert run_cli(capsys, *argv, "--seed", "0")[1] == out_default


@pytest.mark.parametrize("argv", [
    ["dmax", "--state", "maxmixed:2x3"],
    ["decompose", "--state", "bell"],
    ["scan", "--family", "separable", "--count", "20"],
])
def test_the_environment_sets_no_option(capsys, monkeypatch, argv):
    # the command line is the one source of options: a bad restart count,
    # an invalid worker count and another seed in the environment change nothing
    code, want, _ = run_cli(capsys, *argv)
    assert code == 0
    for name, value in (("RESTARTS", "junk"), ("WORKERS", "0"), ("SEED", "99")):
        monkeypatch.setenv("CYCSHIFT_" + name, value)
    assert run_cli(capsys, *argv) == (0, want, "")


def test_invalid_tolerance_exits_2(capsys):
    code, _, err = run_cli(capsys, "dmax", "--state", "bell",
                           "--tol-psd=-1e-9")
    assert code == 2
    assert "tol_psd" in err


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("option", [o.name for o in fields(RunConfig) if o.type is float])
@pytest.mark.parametrize("source", ["flag"])  # the command line is the one source of options
def test_non_finite_tolerance_exits_2(capsys, source, option, value):
    # detect reads all five float options
    code, out, err = run_cli(capsys, "detect", "--state", "bell",
                             f"--{option.replace('_', '-')}={value}")
    assert (code, out) == (2, "")
    assert f"{option} must be positive and finite, got {value}" in err


def test_nan_state_file_exits_2(tmp_path, capsys):
    # I/4 with one NaN on the diagonal: the trace and eigenvalue checks alone let it through
    data = state_to_json(maximally_mixed((2, 2)))
    data["matrix"][0] = [math.nan, 0.0]
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(data))
    code, out, err = run_cli(capsys, "decompose", "--state", str(path))
    assert (code, out) == (2, "")
    assert "non-finite entries" in err


def test_every_export_resolves():
    assert len(set(cycshift.__all__)) == len(cycshift.__all__)
    for name in cycshift.__all__:
        assert hasattr(cycshift, name), name


def test_cli_import_leaves_scipy_optimize_unloaded():
    src = os.path.dirname(os.path.dirname(os.path.abspath(cycshift.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    probe = "import sys, cycshift.cli; print('scipy.optimize' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"
    # a degenerate rho_B (one block of size 3) runs the generic optimizer
    probe = ("import io, sys, contextlib; from cycshift.cli import main\n"
             "with contextlib.redirect_stdout(io.StringIO()):\n"
             "    code = main(['dmax', '--state', 'maxmixed:2x3'])\n"
             "print(code, 'scipy' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "0 False"


def test_dmax_merged_levels_with_matching_tol_cyclic(capsys):
    code, out, _ = run_cli(capsys, "dmax", "--state", "schmidt:0.7071",
                           "--eps-deg", "1e-4", "--tol-cyclic", "1e-4")
    assert code == 0
    data = json.loads(out)
    assert abs(data["d"] - 1.0) < 1e-6
    assert data["method"] == "rotation-closed-form"
    assert data["unitary"]["block_sizes"] == [2]


def test_eps_deg_without_tol_cyclic_exits_2(capsys):
    # merging the two levels admits a unitary that commutes with rho_B only
    # to about the merged gap; the default commutation tolerance rejects it
    for command in ("dmax", "detect"):
        code, _, err = run_cli(capsys, command, "--state", "schmidt:0.7071",
                               "--eps-deg", "1e-4")
        assert code == 2
        assert "commutator" in err


def test_detect_honours_eps_deg_and_tol_cyclic(capsys):
    code, out, _ = run_cli(capsys, "detect", "--state", "schmidt:0.7071",
                           "--eps-deg", "1e-4", "--tol-cyclic", "1e-4")
    assert code == 0
    assert abs(json.loads(out)["d_max"] - 1.0) < 1e-6


def test_chsh_honours_tol_cyclic(capsys):
    # the merged levels admit the x-axis phase operation only to about
    # their gap; every check of chsh, not only phase_cyclic, must use the flag
    argv = ("chsh", "--state", "schmidt:0.7071", "--axis", "x", "--phi", "1.0",
            "--eps-deg", "1e-4")
    code, out, err = run_cli(capsys, *argv, "--tol-cyclic", "1e-4")
    assert code == 0, err
    data = json.loads(out)
    assert abs(data["d_direct"] - math.sin(0.5)) < 1e-4
    assert abs(data["estimated_d"] - data["d_direct"]) < 1e-6
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert "commutator" in err


def test_chsh_accepts_restarts(capsys):
    code, out, _ = run_cli(capsys, "chsh", "--state", "schmidt:0.6",
                           "--phi", "1.2", "--restarts", "3")
    assert code == 0
    _, plain, _ = run_cli(capsys, "chsh", "--state", "schmidt:0.6", "--phi", "1.2")
    assert out == plain


def _family_state(family, index, count, seed):
    if family == "separable":
        return separable_at(seed, index)[0]
    if family == "random":
        return random_state_at(seed, index)
    value = float(np.linspace(0.0, 1.0, count)[index])
    if family == "werner-grid":
        return werner_state(value)
    return schmidt_state(value, math.sqrt(max(0.0, 1.0 - value * value)))


@pytest.mark.parametrize("family", cycshift.cli.SCAN_FAMILIES)
def test_scan_rows_equal_single_state_results(capsys, family):
    # the batch and the single-state d_max are one implementation
    code, out, _ = run_cli(capsys, "scan", "--family", family, "--count", "50",
                           "--seed", "11", "--format", "json")
    assert code == 0
    for row in json.loads(out)["rows"]:
        state = _family_state(family, row["index"], 50, 11)
        assert row["d_max"] == d_max(state).d
        assert row["beta_norm"] == decompose(state).beta_norm


@pytest.mark.parametrize("family", cycshift.cli.SCAN_FAMILIES)
def test_scan_worker_blocks_do_not_change_output(tmp_path, capsys, family):
    paths = []
    for workers in ("1", "3"):
        path = tmp_path / f"{workers}.csv"
        code, _, _ = run_cli(capsys, "scan", "--family", family, "--count", "37",
                             "--seed", "5", "--workers", workers, "--out", str(path))
        assert code == 0
        paths.append(path)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_scan_cross_check_failure_names_the_row(capsys, monkeypatch):
    monkeypatch.setattr(cycshift.cyclic, "CROSS_CHECK_TOL", -1.0)
    code, _, err = run_cli(capsys, "scan", "--family", "random", "--count", "4")
    assert code == 3
    assert "row 0: direct and correlation shifts disagree" in err


def test_scan_sampling_failure_names_the_row(capsys, monkeypatch):
    # scan validates each block once; a bad row from the random block builder
    # must still be reported under its own index
    build = cycshift.cli._random_block

    def builder(seed, start, stop):
        rhos = build(seed, start, stop)
        if start <= 2 < stop:
            rhos[2 - start] = np.diag([0.6, 0.5, -0.05, -0.05])
        return rhos

    monkeypatch.setattr(cycshift.cli, "_random_block", builder)
    code, _, err = run_cli(capsys, "scan", "--family", "random", "--count", "4")
    assert code == 2
    assert "row 2: matrix is not positive semidefinite" in err


@pytest.mark.parametrize("argv", [
    ("dmax", "--state", "schmidt:0.8"),
    ("detect", "--state", "schmidt:0.8"),
    ("scan", "--family", "schmidt-grid", "--count", "11"),
])
def test_merged_levels_with_loose_tol_cyclic_exit_2(capsys, argv):
    # eps-deg 0.5 merges distinct levels of rho_B, and tol-cyclic 1.0 lets
    # the rotation form's non-commuting unitary reach the cross-check
    code, _, err = run_cli(capsys, *argv, "--eps-deg", "0.5", "--tol-cyclic", "1.0")
    assert code == 2
    assert "--eps-deg" in err and "--tol-cyclic" in err


def test_merged_qutrit_levels_with_loose_tol_cyclic_exit_2(tmp_path, capsys):
    # the generic optimizer on one merged block of a 2x3 state whose rho_B
    # levels are distinct but within eps-deg 0.5 of each other
    rho = 0.05 * random_state_at(0, 0, (2, 3)).rho + 0.95 * np.eye(6) / 6
    path = tmp_path / "merged23.json"
    path.write_text(json.dumps(state_to_json(BipartiteState(rho, (2, 3)))))
    code, out, err = run_cli(capsys, "dmax", "--state", str(path),
                             "--eps-deg", "0.5", "--tol-cyclic", "1.0")
    assert code == 2
    assert out == ""
    assert "--eps-deg" in err and "--tol-cyclic" in err


def test_each_main_call_reads_its_own_environment(capsys):
    # the parser is built once per process, and each call reads only its
    # own flags: a call without --restarts takes the default again
    for flag, restarts in ((["--restarts", "2"], 2), (["--restarts", "5"], 5), ([], 16)):
        code, out, _ = run_cli(capsys, "dmax", "--state", "maxmixed:2x3", *flag)
        assert code == 0
        data = json.loads(out)
        assert data["method"] == "multistart"
        assert data["restarts"] == restarts


def _probe(code):
    src = os.path.dirname(os.path.dirname(os.path.abspath(cycshift.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True).stdout.split()


def test_cli_import_leaves_the_process_pool_unloaded():
    loaded = _probe("import sys, cycshift.cli; "
                    "print('concurrent.futures.process' in sys.modules)")
    assert loaded == ["False"]


def test_scan_loads_the_process_pool_only_for_several_workers(tmp_path):
    paths = [tmp_path / f"{workers}.csv" for workers in (1, 2)]
    probe = "\n".join([
        "import sys",
        "from cycshift.cli import main",
        "for workers, path in ((1, %r), (2, %r)):" % tuple(str(p) for p in paths),
        "    main(['scan', '--family', 'random', '--count', '20', '--seed', '3',",
        "          '--workers', str(workers), '--out', path])",
        "    print('concurrent.futures.process' in sys.modules)",
    ])
    assert _probe(probe) == ["False", "True"]
    assert paths[0].read_bytes() == paths[1].read_bytes()


# Which subcommands read each option, written out here rather than taken
# from RunConfig.  chsh accepts --restarts and ignores it.
READ_BY = {
    "seed": {"dmax", "detect", "scan"},
    "restarts": {"dmax", "detect", "chsh"},
    "workers": {"scan"},
    "tol_herm": {"decompose", "dmax", "detect", "chsh"},
    "tol_psd": {"decompose", "dmax", "detect", "chsh"},
    "tol_cyclic": {"dmax", "detect", "scan", "chsh"},
    "eps_deg": {"dmax", "detect", "scan", "chsh"},
    "tol_bound": {"detect", "scan"},
}
ACCEPTED_BUT_IGNORED = {("chsh", "restarts")}
SUBCOMMANDS = ("decompose", "dmax", "detect", "scan", "chsh")


def _subcommand_argv(command, state):
    if command == "scan":
        return ["scan", "--family", "random", "--count", "3"]
    return [command, "--state", state]


def test_the_option_table_covers_every_option():
    assert set(READ_BY) == {option.name for option in fields(RunConfig)}
    accepted = sum(len(commands) for commands in READ_BY.values())
    assert (accepted, len(SUBCOMMANDS) * len(READ_BY) - accepted) == (25, 15)


@pytest.mark.parametrize("option", sorted(READ_BY))
@pytest.mark.parametrize("command", SUBCOMMANDS)
def test_subcommands_accept_only_the_options_they_read(capsys, command, option):
    default = getattr(RunConfig(), option)
    argv = _subcommand_argv(command, "bell") + ["--" + option.replace("_", "-"), str(default)]
    parser = cycshift.cli.build_parser()
    if command in READ_BY[option]:
        assert getattr(parser.parse_args(argv), option) == default
        return
    with pytest.raises(SystemExit) as exc:
        parser.parse_args(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments: --" + option.replace("_", "-") in capsys.readouterr().err


def test_a_rejected_option_is_reported_with_the_subcommand_usage(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["decompose", "--state", "bell", "--seed", "3"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: cycshift decompose")
    assert "--tol-herm" in err
    assert "unrecognized arguments: --seed 3" in err


@pytest.mark.parametrize("command", SUBCOMMANDS)
def test_subcommands_read_the_options_they_accept(tmp_path, capsys, monkeypatch, command):
    # every option a subcommand accepts reaches its computation, bar the
    # one documented no-op; a JSON state file makes the loaders read the
    # validation tolerances
    path = tmp_path / "state.json"
    path.write_text(json.dumps(state_to_json(schmidt_state(0.6, 0.8))))
    read = set()

    class Recording:
        def __init__(self, config):
            self._config = config

        def __getattr__(self, name):
            read.add(name)
            return getattr(self._config, name)

    resolve = cycshift.cli._resolve_config
    monkeypatch.setattr(cycshift.cli, "_resolve_config", lambda args: Recording(resolve(args)))
    code, _, err = run_cli(capsys, *_subcommand_argv(command, str(path)))
    assert code == 0, err
    accepted = {option for option, commands in READ_BY.items() if command in commands}
    ignored = {option for cmd, option in ACCEPTED_BUT_IGNORED if cmd == command}
    assert read == accepted - ignored


# The library function parameters that each option's value is passed to.
# seed and workers have none: the CLI seeds default_rng(seed) and splits a
# scan into workers blocks itself.
FEEDS = {
    "restarts": (d_max, detect),
    "tol_herm": (BipartiteState, state_from_json),
    "tol_psd": (BipartiteState, state_from_json),
    "tol_cyclic": (d_max, detect, cyclic_from_matrix, shift_direct, run_protocol),
    "eps_deg": (d_max, detect, cyclic_from_matrix),
    "tol_bound": (detect,),
}


def test_each_option_defaults_to_the_library_default_it_feeds():
    assert set(FEEDS) | {"seed", "workers"} == {option.name for option in fields(RunConfig)}
    config = RunConfig()
    for name, functions in FEEDS.items():
        for function in functions:
            default = inspect.signature(function).parameters[name].default
            assert getattr(config, name) == default, (name, function.__name__)
    assert (config.seed, config.workers) == (0, 1)
