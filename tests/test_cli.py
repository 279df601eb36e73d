"""Command-line interface: config parsing, assumption-gate citations, exit
codes, report schema, output files, and determinism."""

import dataclasses
import json
import os
import re
import subprocess
import sys
import warnings

import pytest

from hjblab import bernstein, estimates
from hjblab.cli import _SUBCOMMANDS, main, run
from hjblab.config import _KEYS, ConfigError, _phi, parse_config
from hjblab.geometry import DomainSpec, build_grid
from hjblab.mfg import MfgSpec

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# ---------------------------------------------------------------------------
# parser: strict syntax with line numbers


def test_defaults_parse_and_build():
    cfg = parse_config("")
    assert cfg.domain.kind == "torus"
    assert cfg.domain.dim == 3
    assert cfg["problem"]["gamma"] == 2.0
    assert cfg.domain.extents == (1.0, 1.0, 1.0)


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("[domain]\nnonsense\n", "line 2: expected key = value"),
        ("[nope]\n", "line 1: unknown section"),
        ("[domain]\nwidth = 3\n", "unknown key"),
        ("[problem]\nc2 = 0.5\n", "unknown key"),
        ("[problem]\nsource_axis = 2\n", "unknown key"),
        ("[experiment]\nstarts = 4\n", "unknown key"),
        ("[experiment]\niters = 40\n", "unknown key"),
        ("[domain]\ndim = 3\ndim = 2\n", "duplicate key"),
        ("[domain]\ndim = wide\n", "cannot parse"),
        ("dim = 3\n", "outside any"),
        ("[domain]\nkind = sphere\n", "must be one of"),
        ("[problem]\ndrift_kind = sin\n", "must be one of"),
        ("[experiment]\nresolutions = 4\n", "at least 8"),
        ("[experiment]\nresolutions = 9, 9\n", "resolutions must be strictly increasing"),
        ("[experiment]\nresolutions = 17, 9\n", "resolutions must be strictly increasing"),
        ("[experiment]\nresolutions = 17\n", "resolutions must list at least two"),
        ("[experiment]\nresolutions =\n", "resolutions must list at least two"),
        ("[domain]\ndim = 5\n", "dimension must be 2 or 3"),
        ("[problem]\nshift_kind = mode\nshift_axis = 0\n", "unknown key 'shift_axis'"),
        ("[problem]\nshift_kind = mode\nshift_axis = 4\n", "unknown key 'shift_axis'"),
        ("[problem]\nc1 = 1.0\n", "unknown key 'c1'"),
        ("[problem]\nergodic = true\n", "unknown key 'ergodic'"),
        ("[mfg]\ntau = 0.5\n", "unknown key 'tau'"),
        ("[domain]\nradius = 1.0\n", "unknown key 'radius'"),
        ("[problem]\nshift_axis = 1\n", "unknown key 'shift_axis' in \\[problem\\]"),
        ("[problem]\ndrift_axis = 2\n", "unknown key 'drift_axis' in \\[problem\\]"),
        ("[experiment]\nsamples = 100000\n", "unknown key 'samples' in \\[experiment\\]"),
        ("[output]\nplots = true\n", "unknown key 'plots' in \\[output\\]"),
        ("[mfg]\nouter_tol = 1e-9\n", "unknown key 'outer_tol' in \\[mfg\\]"),
        ("[mfg]\nmax_outer = 60\n", "unknown key 'max_outer' in \\[mfg\\]"),
        ("[domain]\nkind = box\n[metric]\nphi_frequency = 2\n", r"line 3: unknown section \[metric\]"),
        ("[metric]\nphi_amplitude = 0.4\n", r"\[metric\]$"),
        ("[experiment]\nzeta_c = 1.0\n", "unknown key 'zeta_c' in \\[experiment\\]"),
        ("[mfg]\neps = nan\n", r"line 2: \[mfg\] eps must be finite, got nan"),
        ("[experiment]\namplitudes = 1, inf\n", r"line 2: \[experiment\] amplitudes must be finite, got inf"),
        ("[problem]\nshift_amplitude = inf\n", r"line 2: \[problem\] shift_amplitude must be finite, got inf"),
        ("[problem]\ngamma = -inf\n", r"line 2: \[problem\] gamma must be finite, got -inf"),
        ("[experiment]\nq = nan\n", r"line 2: \[experiment\] q must be finite or inf, got nan"),
        ("[experiment]\nr = -inf\n", r"line 2: \[experiment\] r must be finite or inf, got -inf"),
        ("[output]\ndump_fields = maybe\n", r"^line 2: cannot parse 'maybe' as bool$"),
        ("[domain]\nkind = conformal_box\n", r"^line 2: kind must be one of box, torus, conformal_torus$"),
        ("[problem]\nmanufactured = discrete\n", r"^line 2: manufactured must be one of none, symbolic$"),
    ],
)
def test_rejections_carry_the_offending_detail(text, fragment):
    with pytest.raises(ConfigError, match=fragment):
        parse_config(text)


def test_lebesgue_exponents_take_inf():
    # inf is the L^inf case of q, r and drift_s, and runs
    cfg = parse_config("[problem]\ndrift_s = inf\n[experiment]\nq = inf\nr = inf\n")
    assert cfg["experiment"]["q"] == cfg["experiment"]["r"] == cfg["problem"]["drift_s"] == float("inf")


def _cell(value) -> str:
    """A default as a config file and README's key reference write it."""
    if value is None:
        return "unset"
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, tuple):
        return ", ".join(_cell(v) for v in value)
    return value if isinstance(value, str) else repr(value)


def test_readme_key_reference_is_the_parser_table():
    with open(README, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    start = lines.index("| section | key | type | default | allowed | meaning |")
    documented = []
    for line in lines[start + 2:]:
        if not line.startswith("|"):
            break
        documented.append(tuple(cell.strip() for cell in line.strip("|").split("|"))[:5])
    table = [
        (section, key, kind, _cell(default), "—" if choices is None else ", ".join(choices))
        for section, rows in _KEYS.items()
        for key, (kind, default, choices) in rows.items()
    ]
    assert documented == table


def test_every_key_written_at_its_default_parses_like_no_config():
    # an unset default has no spelling
    text = "".join(
        "[" + section + "]\n"
        + "".join(
            key + " = " + _cell(default) + "\n"
            for key, (_, default, _) in rows.items()
            if default is not None
        )
        for section, rows in _KEYS.items()
    )
    assert parse_config(text).sections == parse_config("").sections


@pytest.mark.parametrize(
    "text,line,key",
    [
        ("[domain]\nextents = 2.0\n", 2, "key 'extents' in [domain]"),
        ("[domain]\nkind = conformal_torus\n[metric]\nphi_amplitude = 0.2\n", 3, "section [metric]"),
        ("[problem]\nsource_kind = mode\nsource_amplitude = 3.0\n", 3, "key 'source_amplitude' in [problem]"),
        ("[experiment]\np = 3.0\n", 2, "key 'p' in [experiment]"),
        ("[experiment]\ndelta = 0.5\n", 2, "key 'delta' in [experiment]"),
        ("[mfg]\nalpha = 0.5\nc_v = 3.0\n", 3, "key 'c_v' in [mfg]"),
    ],
    ids=["extents", "phi_amplitude", "source_amplitude", "p", "delta", "c_v"],
)
def test_keys_that_became_constants_exit_two_as_unknown(tmp_path, capsys, text, line, key):
    # the values these keys set are constants: unit sides, phi = 0.1 cos(2 pi x_1),
    # a unit-norm source, p = 2, delta = 0.3 and C_V = max(2, alpha, 1/alpha)
    cfg = write(tmp_path, "gone.ini", text)
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 2
    assert "rejected: line %d: unknown %s" % (line, key) in capsys.readouterr().err
    assert not (out / "report.json").exists()


# ---------------------------------------------------------------------------
# standing-assumption citations


_GAMMA = "[problem]\ngamma = 0.9\n"
_SHEAR = "[problem]\ndrift_kind = shear\n"
_EPS = "[mfg]\neps = -1\n"
_MANUFACTURED = (
    "[domain]\nkind = box\ndim = 2\nresolution = 17\n[experiment]\nresolutions = 17, 33\n"
    "[problem]\nmanufactured = symbolic\ngamma = 0.9\n"
)

# (subcommand, config, exit status, what the rejection cites): each gate is
# checked by the runs that read the gated value, and by no other run
_GATES = [
    *(pytest.param(sub, _GAMMA, 2, "(In1)", id=sub + "-gamma")
      for sub in ("solve", "ergodic", "thm1-sweep", "thm2-sweep", "constants", "mfg")),
    pytest.param("solve", _MANUFACTURED, 2, "(In1)", id="manufactured-gamma"),
    *(pytest.param("solve", "[domain]\nkind = " + kind + "\nresolution = 12\n[problem]\nmanufactured = symbolic\n",
                   2, "manufactured studies need a box domain", id="manufactured-" + kind)
      for kind in ("torus", "conformal_torus")),
    pytest.param("bochner-check", _GAMMA, 0, None, id="bochner-check-gamma"),
    pytest.param("bernstein-audit", _GAMMA, 0, None, id="bernstein-audit-gamma"),
    *(pytest.param(sub, _SHEAR, 2, "(In2)", id=sub + "-drift") for sub in ("solve", "ergodic", "thm1-sweep")),
    pytest.param("solve", _SHEAR + "drift_s = 2.5\n", 2, "(In2)", id="solve-drift-s-below-d"),
    pytest.param("thm2-sweep", _SHEAR, 2, "(~In2)", id="thm2-sweep-drift"),
    pytest.param("constants", _SHEAR, 0, None, id="constants-drift"),
    pytest.param("constants", _EPS, 0, None, id="constants-eps"),
    pytest.param("mfg", _EPS, 2, "eps must be nonnegative", id="mfg-eps"),
]


@pytest.mark.parametrize("subcommand,text,status,cited", _GATES)
def test_gates_are_checked_by_the_runs_that_read_them(
    tmp_path, capsys, monkeypatch, subcommand, text, status, cited
):
    if subcommand.endswith("-sweep") and cited == "(In1)":
        # a sweep's spec rejects gamma before the drift gate or any solve runs
        def unreachable(*args, **kwargs):
            raise AssertionError("the sweep ran past its (In1) gate")

        monkeypatch.setattr(estimates, "drift_gate", unreachable)
        monkeypatch.setattr(estimates, "solve_ergodic", unreachable)
    if "[domain]" not in text:
        text = "[domain]\nresolution = 12\n" + text
    cfg = write(tmp_path, "gate.ini", text)
    out = tmp_path / "out"
    assert main([subcommand, "--config", cfg, "--out", str(out)]) == status
    err = capsys.readouterr().err
    if status == 2:
        assert err.startswith("rejected: ") and cited in err, err
        assert not (out / "report.json").exists()
    else:
        assert json.loads((out / "report.json").read_text())["passed"] is True


def test_comparison_constant_gate_cited_for_explicit_values():
    # no config sets C_V, so an explicit value reaches only the game spec,
    # whose own (MFG1) gate refuses one below max(alpha, 1/alpha)
    with pytest.raises(ConfigError, match=r"line 3: unknown key 'c_v' in \[mfg\]"):
        parse_config("[mfg]\nalpha = 1.5\nc_v = 1.2\n")
    grid = build_grid(DomainSpec(kind="torus", dim=2, resolution=(16,)))
    with pytest.raises(ValueError, match=r"\(MFG1\)"):
        MfgSpec(grid, gamma=2.0, alpha=1.5, c_v=1.2)


def test_unset_comparison_constant_tracks_the_coupling_exponent(tmp_path):
    # the game takes C_V = max(2, alpha, 1/alpha), the least (MFG1) admits but at least 2
    for alpha, c_v in ((0.25, 4.0), (1.0, 2.0)):
        cfg = write(
            tmp_path,
            "g.ini",
            "[domain]\ndim = 2\nresolution = 16\n[problem]\nshift_kind = mode\n"
            "[mfg]\nalpha = %r\n" % alpha,
        )
        out = tmp_path / str(alpha)
        assert main(["mfg", "--config", cfg, "--out", str(out)]) == 0
        assert json.loads((out / "report.json").read_text())["gates"]["C_V"] == c_v


def test_unenforced_gamma_condition_is_recorded_as_warning(tmp_path):
    # gamma = 2 in d = 3 misses the growth side of (MFG3), which only a game reads
    cfg = write(tmp_path, "g.ini", "[domain]\nresolution = 12\n[problem]\nshift_kind = mode\n")
    out = tmp_path / "out"
    assert main(["mfg", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["results"]["gate"]["gamma_ok"] is False
    assert report["warnings"] == [
        "gate (MFG3) gamma condition not met (gamma <= d/(d-2)); recorded, not enforced"
    ]


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("alpha = 0\n", "coupling exponent alpha must be positive, got 0.0"),
        ("alpha = -1\n", "coupling exponent alpha must be positive, got -1.0"),
        ("eps = -1\n", "mollifier radius eps must be nonnegative, got -1.0"),
    ],
    ids=["alpha-zero", "alpha-negative", "eps-negative"],
)
def test_game_rejects_an_invalid_coupling(tmp_path, capsys, text, fragment):
    cfg = write(tmp_path, "g.ini", "[domain]\nresolution = 12\n[mfg]\n" + text)
    out = tmp_path / "out"
    assert main(["mfg", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == "rejected: " + fragment + "\n"
    assert not (out / "report.json").exists()


def test_parsing_loads_no_game_code():
    # config only parses, and the package loads a module on first use: in a
    # fresh interpreter, parsing a game's keys loads config and what it
    # imports, and the package still reaches the game code by name
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(README), "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    code = (
        "import sys\n"
        "from hjblab.config import parse_config\n"
        "parse_config('[domain]\\ndim = 3\\n[problem]\\ngamma = 2\\n[mfg]\\nalpha = 0.5\\neps = 0.05\\n')\n"
        "print(' '.join(sorted(m for m in sys.modules if m.startswith('hjblab'))))\n"
        "import hjblab\n"
        "print(hjblab.mfg.__name__)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    loaded, game = proc.stdout.splitlines()
    assert loaded.split() == ["hjblab", "hjblab.config", "hjblab.geometry", "hjblab.stencils"], loaded
    assert game == "hjblab.mfg"


# ---------------------------------------------------------------------------
# exit codes


def test_unknown_subcommand_exits_two():
    with pytest.raises(SystemExit) as err:
        main(["frobnicate"])
    assert err.value.code == 2


def _module(*args):
    """`python -m hjblab` with args in a fresh interpreter."""
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(README), "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return subprocess.run(
        [sys.executable, "-m", "hjblab", *args], env=env, capture_output=True, text=True, timeout=120
    )


def test_module_help_lists_the_flags_readme_names():
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    start = text.index("Common flags:")
    paragraph = text[start:text.index("\n\n", start)]
    proc = _module("--help")
    assert proc.returncode == 0, proc.stderr
    listed = set(re.findall(r"--[a-z][a-z-]*", proc.stdout)) - {"--help"}
    assert listed == set(re.findall(r"`(--[a-z][a-z-]*)`", paragraph)) == {"--config", "--out", "--seed"}


def test_module_rejects_the_removed_threads_flag():
    proc = _module("constants", "--threads", "2")
    assert proc.returncode == 2
    assert "usage: hjblab" in proc.stderr and "unrecognized arguments: --threads 2" in proc.stderr


def test_rejected_config_exits_two(tmp_path, capsys):
    bad = write(tmp_path, "bad.ini", "[problem]\ngamma = 0.9\n")
    rc = main(["solve", "--config", bad, "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "(In1)" in capsys.readouterr().err


def test_unreadable_config_exits_two(tmp_path, capsys):
    rc = main(["solve", "--config", str(tmp_path / "missing.ini"), "--out", str(tmp_path)])
    assert rc == 2
    assert "cannot read config" in capsys.readouterr().err


def test_disc_solves_cite_the_convexity_gate(tmp_path, capsys):
    cfg = write(tmp_path, "disc.ini", "[domain]\nkind = disc\nresolution = 16, 32\n")
    for subcommand in _SUBCOMMANDS:
        out = tmp_path / subcommand
        assert main([subcommand, "--config", cfg, "--out", str(out)]) == 2, subcommand
        assert "(D1)" in capsys.readouterr().err, subcommand
        assert not (out / "report.json").exists(), subcommand


@pytest.mark.parametrize("subcommand", ["solve", "ergodic", "thm1-sweep", "thm2-sweep"])
def test_conformal_box_solves_are_rejected(tmp_path, capsys, subcommand):
    # the conformal metric has one spelling, [domain] kind = conformal_torus,
    # so a conformal box cannot be requested at all
    cfg = write(tmp_path, "cbox.ini", "[domain]\nkind = box\n[metric]\nkind = conformal\n")
    out = tmp_path / "out"
    rc = main([subcommand, "--config", cfg, "--out", str(out)])
    assert rc == 2
    assert "rejected: line 3: unknown section [metric]" in capsys.readouterr().err
    assert not (out / "report.json").exists()


def test_the_conformal_spelling_is_a_torus_carrying_phi():
    cfg = parse_config("[domain]\nkind = conformal_torus\ndim = 2\nresolution = 12\n")
    assert cfg.domain == DomainSpec(kind="torus", dim=2, resolution=(12,))
    assert cfg.phi is _phi
    assert cfg["domain"]["kind"] == "conformal_torus"
    for kind in ("box", "torus"):
        assert parse_config("[domain]\nkind = " + kind + "\n").phi is None


@pytest.mark.parametrize("given", ["q = 3.0", "r = 18.0"])
def test_gradient_sweep_rejects_a_lone_exponent(tmp_path, capsys, given):
    # q and r come as a pair, or both from p = 2; a lone one is not dropped silently
    cfg = write(tmp_path, "lone.ini", "[domain]\ndim = 3\nresolution = 12\n[experiment]\n" + given + "\n")
    out = tmp_path / "out"
    assert main(["thm1-sweep", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "[experiment] q and r" in err, err
    assert not (out / "report.json").exists()


def test_drifted_maximal_sweep_is_rejected_at_dispatch(tmp_path, capsys):
    cfg = write(
        tmp_path,
        "drift.ini",
        "[problem]\ndrift_kind = shear\ndrift_s = 4.0\n"
        "[experiment]\namplitudes = 1, 3\nq = 2.5\n",
    )
    rc = main(["thm2-sweep", "--config", cfg, "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "(~In2)" in capsys.readouterr().err


def test_an_empty_amplitude_list_is_rejected(tmp_path, capsys):
    cfg = write(tmp_path, "empty.ini", "[problem]\ngamma = 3.0\n[experiment]\namplitudes =\n")
    out = tmp_path / "out"
    assert main(["thm2-sweep", "--config", cfg, "--out", str(out)]) == 2
    assert "rejected: amplitudes must not be empty" in capsys.readouterr().err
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("amplitudes", ["0", "1, 1000"])
def test_a_slope_of_fewer_than_two_rows_is_null(tmp_path, amplitudes):
    # t = 0 has no logarithm, and the top decade of 1, 1000 holds one row:
    # neither fits a slope, so neither certifies one
    cfg = write(
        tmp_path,
        "few.ini",
        "[domain]\nkind = torus\ndim = 3\nresolution = 8\n"
        "[problem]\ngamma = 3.0\nsource_kind = mode\n[experiment]\namplitudes = " + amplitudes + "\n",
    )
    out = tmp_path / "out"
    assert main(["thm2-sweep", "--config", cfg, "--out", str(out)]) == 0
    results = json.loads((out / "report.json").read_text())["results"]
    assert results["slope_top_decade"] is None and results["slope_bounded"] is None
    assert (results["slope"] is None) == (amplitudes == "0")


_DROPPED = [
    ("thm1-sweep", "shift_kind = mode\nshift_amplitude = 50\n", "shift_kind"),
    ("thm2-sweep", "shift_kind = mode\nshift_amplitude = 50\n", "shift_kind"),
    ("thm1-sweep", "manufactured = symbolic\n", "manufactured"),
    ("thm2-sweep", "manufactured = symbolic\n", "manufactured"),
    ("solve", "manufactured = symbolic\ndrift_kind = shear\ndrift_s = 4.0\n", "drift_kind"),
    ("solve", "manufactured = symbolic\nshift_kind = mode\n", "shift_kind"),
    ("solve", "manufactured = symbolic\nsource_kind = mode\n", "source_kind"),
    ("ergodic", "manufactured = symbolic\n", "manufactured"),
    ("mfg", "manufactured = symbolic\n", "manufactured"),
]


@pytest.mark.parametrize("subcommand,block,key", _DROPPED, ids=[c[0] + "-" + c[2] for c in _DROPPED])
def test_runs_reject_problem_data_they_would_drop(tmp_path, capsys, subcommand, block, key):
    # the sweeps have no shift, a manufactured study makes its own data and
    # runs under solve only, and a game compares with no exact solution
    cfg = write(tmp_path, "d.ini", "[domain]\nkind = box\nresolution = 12\n[problem]\n" + block)
    out = tmp_path / "out"
    assert main([subcommand, "--config", cfg, "--out", str(out)]) == 2
    assert "rejected: " + subcommand + ": [problem] " + key + " must be none: " in capsys.readouterr().err
    assert not (out / "report.json").exists()


def test_run_rejects_unknown_subcommand_name():
    cfg = parse_config("")
    assert run("not-a-thing", cfg, "/tmp/hjblab-nowhere") == 2


# ---------------------------------------------------------------------------
# report schema and outputs


def small_torus_text(dim=3, n=12):
    return (
        "[domain]\nkind = torus\ndim = %d\nresolution = %d\n"
        "[problem]\nsource_kind = mode\n"
        % (dim, n)
    )


def test_ergodic_report_schema_and_outputs(tmp_path):
    cfg = write(tmp_path, "run.ini", small_torus_text())
    out = tmp_path / "out"
    rc = main(["ergodic", "--config", cfg, "--out", str(out), "--seed", "7"])
    assert rc == 0
    text = (out / "report.json").read_text()
    report = json.loads(text)
    assert report["schema"] == 1
    assert report["subcommand"] == "ergodic"
    assert report["seed"] == 7
    assert report["failures"] == []
    assert report["passed"] is True
    assert '"passed": true' in text  # booleans survive serialization
    # (MFG3) belongs to the game, so no other run warns about it
    assert not any("MFG3" in w for w in report["warnings"])
    for key in ("C_V", "K", "kappa", "rho", "s", "sigma_hat", "theta"):
        assert key in report["gates"]
    assert report["results"]["converged"] is True
    assert report["results"]["residual"] <= 1e-10
    assert (out / "norms.csv").exists()


def test_manufactured_study_writes_convergence_artifacts(tmp_path):
    cfg = write(
        tmp_path,
        "manu.ini",
        "[domain]\nkind = box\ndim = 2\nresolution = 17\n"
        "[problem]\nmanufactured = symbolic\n"
        "[experiment]\nresolutions = 17, 33\n",
    )
    out = tmp_path / "out"
    rc = main(["solve", "--config", cfg, "--out", str(out)])
    assert rc == 0
    report = json.loads((out / "report.json").read_text())
    assert report["results"]["orders"][-1] >= 1.9
    csv_lines = (out / "convergence.csv").read_text().strip().splitlines()
    assert csv_lines[0] == "h,error_inf,order"
    assert len(csv_lines) == 3
    assert (out / "convergence.svg").exists()


def test_identity_refinement_subcommand_passes(tmp_path):
    out = tmp_path / "out"
    rc = main(["bochner-check", "--out", str(out)])
    assert rc == 0
    report = json.loads((out / "report.json").read_text())
    assert report["passed"] is True
    assert all(e["passed"] for e in report["results"]["exactness"])
    assert (out / "refinement.csv").exists()


def test_game_subcommand_reports_and_dumps_fields(tmp_path):
    cfg = write(
        tmp_path,
        "mfg.ini",
        "[domain]\nkind = box\ndim = 2\nresolution = 17\n"
        "[problem]\nshift_kind = mode\nshift_amplitude = 0.3\n"
        "[output]\ndump_fields = true\n",
    )
    out = tmp_path / "out"
    rc = main(["mfg", "--config", cfg, "--out", str(out)])
    assert rc == 0
    report = json.loads((out / "report.json").read_text())
    assert report["results"]["converged"] is True
    assert abs(report["results"]["mass"] - 1.0) <= 1e-10
    assert report["results"]["min_density"] > 0.0
    assert (out / "u.csv").exists() and (out / "m.csv").exists()


def test_dumped_fields_end_lines_like_every_other_table(tmp_path):
    # one CSV writer for fields and report tables alike: LF line ends only
    cfg = write(
        tmp_path,
        "mfg.ini",
        "[domain]\nkind = torus\ndim = 2\nresolution = 16\n"
        "[problem]\nshift_kind = mode\nshift_amplitude = 0.3\n"
        "[output]\ndump_fields = true\n",
    )
    out = tmp_path / "out"
    assert main(["mfg", "--config", cfg, "--out", str(out)]) == 0
    for name in ("u.csv", "m.csv"):
        data = (out / name).read_bytes()
        assert data.startswith(b"node,x1,x2,value\n0,0.0,0.0,") and b"\r" not in data, name
        assert data.count(b"\n") == 1 + 16 * 16, name


def test_game_inside_the_coupling_gate_converges_without_warnings(tmp_path):
    # gamma = 3.5 beats d/(d-2) = 3 in d = 3, so (MFG3) holds in full
    cfg = write(
        tmp_path,
        "mfg.ini",
        "[domain]\nkind = torus\ndim = 3\nresolution = 16\n"
        "[problem]\ngamma = 3.5\nshift_kind = mode\nshift_amplitude = 2\n",
    )
    out = tmp_path / "out"
    assert main(["mfg", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["results"]["gate"]["passed"] is True
    assert report["warnings"] == []
    assert report["results"]["converged"] is True


def test_game_subcommand_dumps_no_fields_by_default(tmp_path):
    cfg = write(
        tmp_path,
        "mfg.ini",
        "[domain]\nkind = torus\ndim = 2\nresolution = 16\n"
        "[problem]\nshift_kind = mode\nshift_amplitude = 0.3\n",
    )
    out = tmp_path / "out"
    assert main(["mfg", "--config", cfg, "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == ["report.json"]


# ---------------------------------------------------------------------------
# [problem] c1: no such key, since u = c1^{-1/(gamma-1)} v turns it into a
# scale on the data


@pytest.mark.parametrize("subcommand", ["thm1-sweep", "thm2-sweep", "mfg"])
def test_hamiltonian_coefficient_is_rejected(tmp_path, capsys, subcommand):
    cfg = write(tmp_path, "c1.ini", "[domain]\ndim = 2\nresolution = 16\n[problem]\nc1 = 2.0\n")
    out = tmp_path / "out"
    assert main([subcommand, "--config", cfg, "--out", str(out)]) == 2
    assert "rejected: line 5: unknown key 'c1' in [problem]" in capsys.readouterr().err
    assert not (out / "report.json").exists()


@pytest.mark.parametrize(
    "block,key",
    [
        ("drift_kind = shear\ndrift_amplitude = 5\ndrift_s = 3.0\n", "drift_kind"),
        ("source_kind = mode\n", "source_kind"),
    ],
)
def test_game_rejects_value_equation_data_it_has_no_place_for(tmp_path, capsys, block, key):
    # the game's value equation has no drift, and its source is the coupling
    cfg = write(tmp_path, "g.ini", "[domain]\ndim = 2\nresolution = 16\n[problem]\n" + block)
    out = tmp_path / "out"
    assert main(["mfg", "--config", cfg, "--out", str(out)]) == 2
    assert "rejected: mfg: [problem] " + key + " must be none" in capsys.readouterr().err
    assert not (out / "report.json").exists()


def test_over_advected_game_fails_with_a_report(tmp_path):
    cfg = write(
        tmp_path,
        "strong.ini",
        "[domain]\nkind = torus\ndim = 2\nresolution = 16\n"
        "[problem]\nshift_kind = mode\nshift_amplitude = 2000\n",
    )
    out = tmp_path / "out"
    rc = main(["mfg", "--config", cfg, "--out", str(out)])
    assert rc == 1
    report = json.loads((out / "report.json").read_text())
    assert report["passed"] is False
    assert any("advection mesh number" in f for f in report["failures"])


def test_sweep_reports_each_peclet_number_and_warns_above_one(tmp_path):
    cfg = write(
        tmp_path,
        "sweep.ini",
        "[domain]\nkind = torus\ndim = 3\nresolution = 16\n"
        "[problem]\ngamma = 3.0\nsource_kind = power\n"
        "[experiment]\namplitudes = 1, 10, 100, 1000, 3000\n",
    )
    out = tmp_path / "out"
    assert main(["thm2-sweep", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0].split(",")[-1] == "peclet"
    pecs = [float(line.split(",")[-1]) for line in lines[1:]]
    assert len(pecs) == 5 and pecs[0] <= 1.0 < pecs[-1]
    report = json.loads((out / "report.json").read_text())
    warned = [w for w in report["warnings"] if "mesh Peclet number" in w]
    assert len(warned) == sum(p > 1.0 for p in pecs)
    assert "amplitude 3000.0" in warned[-1]


def test_overflowed_sweep_names_the_non_finite_residual_norm(tmp_path):
    # 1e300 times the unit source squares to inf in the residual norm; the
    # solve stops there instead of handing GMRES a NaN target
    cfg = write(
        tmp_path,
        "huge.ini",
        "[domain]\nkind = torus\ndim = 3\nresolution = 8\n"
        "[problem]\ngamma = 3.0\n[experiment]\namplitudes = 1, 1e300\n",
    )
    out = tmp_path / "out"
    # the overflow is the solver's to report, so numpy warns of nothing
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["thm2-sweep", "--config", cfg, "--out", str(out)]) == 1
    failures = json.loads((out / "report.json").read_text())["failures"]
    assert failures == [
        "sweep aborted: solve failed to converge at amplitude 1e+300: "
        "residual norm inf is not finite at Newton step 1"
    ]
    assert "nan" not in failures[0]


def test_constants_runs_are_deterministic(tmp_path):
    cfg = write(tmp_path, "c.ini", "[domain]\nkind = torus\ndim = 3\nresolution = 12\n")
    outs = []
    for sub in ("one", "two"):
        out = tmp_path / sub
        assert main(["constants", "--config", cfg, "--out", str(out), "--seed", "3"]) == 0
        outs.append(out)
    for name in ("report.json", "constants.csv"):
        a = (outs[0] / name).read_bytes()
        b = (outs[1] / name).read_bytes()
        assert a == b, name


def test_seed_changes_the_searched_constants(tmp_path):
    cfg = write(tmp_path, "c.ini", "[domain]\nkind = torus\ndim = 3\nresolution = 12\n")
    reports = []
    for seed in ("0", "1"):
        out = tmp_path / ("seed" + seed)
        assert main(["constants", "--config", cfg, "--out", str(out), "--seed", seed]) == 0
        reports.append(json.loads((out / "report.json").read_text()))
    assert reports[0]["seed"] != reports[1]["seed"]
    # closed-form entries agree even though the random samples differ
    assert (
        reports[0]["results"]["continuity"]["y_star"]
        == reports[1]["results"]["continuity"]["y_star"]
    )


def test_constants_writes_the_closed_form_continuity_scalars(tmp_path):
    # in d = 3, y* = 3^(-3/2) and phi* = 2 * 3^(-3/2); with prefactor C = 1,
    # zeta(t) = t + t^a + t^b > t for every t > 0, so no t* exists
    out = tmp_path / "out"
    assert main(["constants", "--out", str(out)]) == 0
    cont = json.loads((out / "report.json").read_text())["results"]["continuity"]
    assert abs(cont["y_star"] - 3.0**-1.5) <= 1e-15
    assert abs(cont["phi_star"] - 2.0 * 3.0**-1.5) <= 1e-15
    assert cont["t_star"] is None
    assert cont["zeta_C"] == 1.0 and isinstance(cont["zeta_C"], float)
    assert "t_star,none" in (out / "constants.csv").read_text().splitlines()


def test_continuity_peak_entry_fails_off_the_maximizer(tmp_path, monkeypatch):
    # the audit checks phi'(y*) = 0 and that phi falls on either side of y*,
    # so a y* moved by 1% fails the entry
    real = bernstein.continuity_tools

    def shifted(*args, **kwargs):
        tools = real(*args, **kwargs)
        return dataclasses.replace(tools, y_star=1.01 * tools.y_star)

    monkeypatch.setattr(bernstein, "continuity_tools", shifted)
    out = tmp_path / "out"
    assert main(["bernstein-audit", "--out", str(out)]) == 1
    report = json.loads((out / "report.json").read_text())
    entry = next(a for a in report["results"]["audit"] if a["name"] == "continuity_peak_closed_form")
    assert entry["passed"] is False and entry["max_violation"] > 1e-3
    assert "audit item failed: continuity_peak_closed_form" in report["failures"]
