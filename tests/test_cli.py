"""Command-line interface: config parsing, assumption-gate citations, exit
codes, report schema, output files, and determinism."""

import json
import os

import pytest

from hjblab.cli import _SUBCOMMANDS, main, run
from hjblab.config import _KEYS, ConfigError, parse_config

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
    assert cfg["mfg"]["c_v"] >= 2.0


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
        ("[experiment]\ndelta = 1.5\n", "delta must lie in"),
        ("[experiment]\nresolutions = 4\n", "at least 8"),
        ("[domain]\ndim = 5\n", "dimension must be 2 or 3"),
        ("[problem]\nshift_kind = mode\nshift_axis = 0\n", "unknown key 'shift_axis'"),
        ("[problem]\nshift_kind = mode\nshift_axis = 4\n", "unknown key 'shift_axis'"),
        ("[problem]\nc1 = 1.0\n", "unknown key 'c1'"),
        ("[problem]\nergodic = true\n", "unknown key 'ergodic'"),
        ("[mfg]\ntau = 0.5\n", "unknown key 'tau'"),
        ("[domain]\nradius = 1.0\n", "unknown key 'radius'"),
        ("[problem]\nshift_axis = 1\n", "unknown key 'shift_axis' in \\[problem\\]"),
        ("[problem]\ndrift_axis = 2\n", "unknown key 'drift_axis' in \\[problem\\]"),
        ("[metric]\nphi_axis = 1\n", "unknown key 'phi_axis' in \\[metric\\]"),
        ("[experiment]\nsamples = 100000\n", "unknown key 'samples' in \\[experiment\\]"),
        ("[output]\nplots = true\n", "unknown key 'plots' in \\[output\\]"),
        ("[mfg]\nouter_tol = 1e-9\n", "unknown key 'outer_tol' in \\[mfg\\]"),
        ("[mfg]\nmax_outer = 60\n", "unknown key 'max_outer' in \\[mfg\\]"),
        ("[metric]\nkind = conformal\n", "unknown key 'kind' in \\[metric\\]"),
        ("[metric]\nphi_amplitude = 0.4\n", r"\[metric\] phi_amplitude must be unset: \[domain\] kind = torus "),
        ("[domain]\nkind = box\n[metric]\nphi_frequency = 2\n", "unknown key 'phi_frequency' in \\[metric\\]"),
        ("[experiment]\nzeta_c = 1.0\n", "unknown key 'zeta_c' in \\[experiment\\]"),
    ],
)
def test_rejections_carry_the_offending_detail(text, fragment):
    with pytest.raises(ConfigError, match=fragment):
        parse_config(text)


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
    # an unset default has no spelling, and [metric] keys parse only on a
    # conformal torus, so that block is compared on one
    def text(sections):
        return "".join(
            "[" + section + "]\n"
            + "".join(
                key + " = " + _cell(default) + "\n"
                for key, (_, default, _) in _KEYS[section].items()
                if default is not None
            )
            for section in sections
        )

    flat = [section for section in _KEYS if section != "metric"]
    assert parse_config(text(flat)).sections == parse_config("").sections
    conformal = "[domain]\nkind = conformal_torus\n"
    assert (
        parse_config(conformal + text(["metric"])).sections
        == parse_config(conformal).sections
    )


# ---------------------------------------------------------------------------
# standing-assumption citations


def test_growth_gate_cited_for_sublinear_gamma():
    with pytest.raises(ConfigError, match=r"\(In1\)"):
        parse_config("[problem]\ngamma = 0.9\n")


def test_drift_gate_cited_when_integrability_is_missing():
    with pytest.raises(ConfigError, match=r"\(In2\)"):
        parse_config("[problem]\ndrift_kind = shear\n")
    with pytest.raises(ConfigError, match=r"\(In2\)"):
        parse_config("[problem]\ndrift_kind = shear\ndrift_s = 2.5\n")
    cfg = parse_config("[problem]\ndrift_kind = shear\ndrift_s = 4.0\n")
    assert cfg["problem"]["drift_s"] == 4.0


def test_coupling_gate_cited_before_structural_checks():
    # the declared dimension is itself out of range, but the named
    # assumption about the coupling exponent takes precedence
    text = "[domain]\ndim = 5\n[problem]\ngamma = 2\n[mfg]\nalpha = 2.1\n"
    with pytest.raises(ConfigError, match=r"\(MFG3\)"):
        parse_config(text)


def test_comparison_constant_gate_cited_for_explicit_values():
    with pytest.raises(ConfigError, match=r"\(MFG1\)"):
        parse_config("[mfg]\nalpha = 1.5\nc_v = 1.2\n")


def test_unset_comparison_constant_tracks_the_coupling_exponent():
    cfg = parse_config("[domain]\ndim = 3\n[mfg]\nalpha = 0.25\n")
    assert cfg["mfg"]["c_v"] == 4.0
    cfg2 = parse_config("[domain]\ndim = 3\n[mfg]\nalpha = 1.0\n")
    assert cfg2["mfg"]["c_v"] == 2.0


def test_unenforced_gamma_condition_is_recorded_as_warning():
    cfg = parse_config("[domain]\ndim = 3\n[problem]\ngamma = 2\n")
    assert any("MFG3" in w for w in cfg.warnings)
    quiet = parse_config("[domain]\ndim = 3\n[problem]\ngamma = 4\n")
    assert quiet.warnings == []


# ---------------------------------------------------------------------------
# exit codes


def test_unknown_subcommand_exits_two():
    with pytest.raises(SystemExit) as err:
        main(["frobnicate"])
    assert err.value.code == 2


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
    assert "rejected: line 4: unknown key 'kind' in [metric]" in capsys.readouterr().err
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("given", ["q = 3.0", "r = 18.0"])
def test_gradient_sweep_rejects_a_lone_exponent(tmp_path, capsys, given):
    # q and r come as a pair, or both from p; a lone one is not dropped silently
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
    assert "In2" in capsys.readouterr().err


def test_run_rejects_unknown_subcommand_name():
    cfg = parse_config("")
    assert run("not-a-thing", cfg, "/tmp/hjblab-nowhere") == 2


# ---------------------------------------------------------------------------
# report schema and outputs


def small_torus_text(dim=3, n=12):
    return (
        "[domain]\nkind = torus\ndim = %d\nresolution = %d\n"
        "[problem]\nsource_kind = mode\nsource_amplitude = 1.0\n"
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
    # gamma = 2 in d = 3 misses the unenforced growth side of (MFG3)
    assert any("MFG3" in w for w in report["warnings"])
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
        ("source_kind = mode\nsource_amplitude = 100\n", "source_kind"),
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


@pytest.mark.parametrize("subcommand", ["thm2-sweep", "mfg"])
def test_fft_workers_change_no_report_byte(tmp_path, monkeypatch, subcommand):
    from hjblab import _kernels, hjb

    seen = []
    forward = hjb._FlatInverter.forward

    def spying(self, r):
        seen.append(_kernels.workers)
        return forward(self, r)

    monkeypatch.setattr(hjb._FlatInverter, "forward", spying)
    reports = []
    for threads in (1, 2):
        seen.clear()
        out = tmp_path / str(threads)
        assert main([subcommand, "--out", str(out), "--threads", str(threads)]) == 0
        assert seen and set(seen) == {threads}
        assert _kernels.workers == 1
        reports.append((out / "report.json").read_bytes())
    assert reports[0] == reports[1]
