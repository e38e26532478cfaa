import numpy as np
import pytest
from numpy.testing import assert_allclose

from helpers import fresh_interpreter
from prmimo.cli import (
    CSV_HEADER,
    UsageError,
    _build_parser,
    main,
    parse_config,
    parse_snr_grid,
)

# Config file keys: every parser destination but help and config, with
# the default each flag states.
DEFAULTS = {
    action.dest: action.default
    for action in _build_parser()._actions
    if action.dest not in ("help", "config")
}


def resolved(config):
    # A RunConfig as a comparable text: its fields, with the read-only
    # grid as bytes.
    scenario = vars(config.scenario) | {"snr_db": config.scenario.snr_db.tobytes()}
    return repr(vars(config) | {"scenario": scenario})


def config_file(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return str(path)


class TestParseSnrGrid:
    def test_default_span(self):
        assert_allclose(parse_snr_grid("-10:5:20"), np.arange(-10.0, 21.0, 5.0))

    def test_single_point(self):
        assert_allclose(parse_snr_grid("10:5:10"), [10.0])

    def test_rejects_two_part_grid(self):
        with pytest.raises(UsageError):
            parse_snr_grid("0:10")

    def test_rejects_nonpositive_step(self):
        with pytest.raises(UsageError):
            parse_snr_grid("0:0:10")

    def test_rejects_reversed_span(self):
        with pytest.raises(UsageError):
            parse_snr_grid("10:5:0")

    @pytest.mark.parametrize(
        "text", ["nan:1:5", "0:nan:5", "0:1:nan", "-inf:1:5", "0:inf:5", "0:1:inf"]
    )
    def test_rejects_non_finite_values(self, text):
        with pytest.raises(UsageError, match="finite"):
            parse_snr_grid(text)

    # Point counts past the largest array size, past a float (the span
    # overflows) and past any 64-bit address space (800 PB): each is
    # refused before any memory is touched.
    @pytest.mark.parametrize("text", ["0:1e-300:1", "0:1:1e300", "-1e308:1:1e308", "0:1:1e17"])
    def test_rejects_huge_grids(self, text):
        with pytest.raises(UsageError, match="too many points"):
            parse_snr_grid(text)

    def test_rejects_points_alike_at_csv_digits(self):
        # 1000, 1000.0000001 and 1000.0000002 all print as 1000 in the CSV.
        with pytest.raises(UsageError, match="9 significant digits"):
            parse_snr_grid("1000:1e-7:1000.0000002")

    def test_small_steps_that_print_apart_are_kept(self):
        assert_allclose(parse_snr_grid("0:1e-7:2e-7"), [0.0, 1e-7, 2e-7])


class TestParseConfig:
    def test_defaults(self):
        config = parse_config([])
        scenario = config.scenario
        assert scenario.geometry.n_t == 32
        assert scenario.geometry.n_r == 8
        assert scenario.geometry.spacing_t == 0.5
        assert scenario.n_cl == 10
        assert scenario.n_ray == 8
        assert scenario.condition == "ill"
        assert_allclose(scenario.angle_spread, np.deg2rad(3.0))
        assert_allclose(scenario.snr_db, np.arange(-10.0, 21.0, 5.0))
        assert scenario.trials == 1000
        assert config.schemes == ("physical", "pattern", "ideal")
        assert config.safeguard is False
        assert config.workers == 1

    def test_more_clusters_flag(self):
        assert parse_config(["--ncl", "20"]).scenario.n_cl == 20

    def test_negative_snr_grid_flag(self):
        config = parse_config(["--snr-db", "-10:5:20"])
        assert_allclose(config.scenario.snr_db, np.arange(-10.0, 21.0, 5.0))

    def test_negative_snr_grid_flag_with_equals(self):
        config = parse_config(["--snr-db=-10:5:20"])
        assert_allclose(config.scenario.snr_db, np.arange(-10.0, 21.0, 5.0))

    def test_geometry_invariant_is_usage_error(self):
        with pytest.raises(UsageError):
            parse_config(["--nr", "16", "--nt", "8"])

    def test_unknown_flag_is_usage_error(self):
        with pytest.raises(UsageError):
            parse_config(["--frobnicate"])

    def test_unknown_scheme_is_usage_error(self):
        with pytest.raises(UsageError):
            parse_config(["--schemes", "psychic"])

    def test_config_file_and_flag_override(self, tmp_path):
        config_file = tmp_path / "run.cfg"
        config_file.write_text("trials=5\nncl=12\n# comment\nsafeguard=true\n")
        config = parse_config(["--config", str(config_file), "--trials", "3"])
        assert config.scenario.trials == 3
        assert config.scenario.n_cl == 12
        assert config.safeguard is True

    def test_unknown_config_key(self, tmp_path):
        config_file = tmp_path / "run.cfg"
        config_file.write_text("widgets=2\n")
        with pytest.raises(UsageError):
            parse_config(["--config", str(config_file)])

    @pytest.mark.parametrize("key", ["help", "config"])
    def test_parser_keys_that_are_not_options_are_unknown(self, key, tmp_path):
        with pytest.raises(UsageError, match=f"run.cfg:1: unknown key '{key}'"):
            parse_config(["--config", config_file(tmp_path, f"{key}=x\n")])

    @pytest.mark.parametrize("key", sorted(DEFAULTS))
    def test_config_key_at_its_default_resolves_as_no_file(self, key, tmp_path):
        default = DEFAULTS[key]
        text = str(default).lower() if isinstance(default, bool) else str(default)
        path = config_file(tmp_path, f"{key}={text}\n")
        assert resolved(parse_config(["--config", path])) == resolved(parse_config([]))

    @pytest.mark.parametrize("line", ["nt=abc", "xi_deg=wide", "snr_db=10:5:0", "safeguard=maybe"])
    def test_bad_config_value_names_its_line(self, line, tmp_path):
        key = line.split("=")[0]
        path = config_file(tmp_path, f"{line}\n")
        with pytest.raises(UsageError, match=f"run.cfg:1: bad value for '{key}'"):
            parse_config(["--config", path])

    @pytest.mark.parametrize(
        "line, flags",
        [
            ("trials=5", ["--trials", "3"]),
            ("xi_deg=2.0", ["--xi-deg", "4.5"]),
            ("snr_db=0:5:10", ["--snr-db", "-5:5:5"]),
            ("schemes=ideal", ["--schemes", "pattern"]),
        ],
    )
    def test_flag_beats_the_file(self, line, flags, tmp_path):
        path = config_file(tmp_path, f"{line}\n")
        assert resolved(parse_config(["--config", path])) != resolved(parse_config([]))
        assert resolved(parse_config(["--config", path, *flags])) == resolved(parse_config(flags))

    @pytest.mark.parametrize(
        "line", ["condition=bad", "schemes=psychic", "nt=0", "snr_db=0:1000:4000", "ncl=3"]
    )
    def test_file_value_failing_a_later_check_names_its_line(self, line, tmp_path):
        # Each converts, then fails the scheme list or the scenario's checks.
        key = line.split("=")[0]
        path = config_file(tmp_path, f"# campaign\n{line}\n")
        with pytest.raises(UsageError) as raised:
            parse_config(["--config", path])
        assert str(raised.value).endswith(f"(from {path}:2 {key})")

    def test_file_lines_no_flag_overrode_are_named(self, tmp_path):
        # The geometry fails; trials is the scenario's key, so its line is not named.
        path = config_file(tmp_path, "trials=4\nnt=0\nncl=3\n")
        with pytest.raises(UsageError) as raised:
            parse_config(["--config", path, "--ncl", "12"])
        assert str(raised.value).endswith(f"(from {path}:2 nt)")

    @pytest.mark.parametrize(
        "text, flags, named",
        [
            # The request check reads schemes and workers.
            ("workers=2\nschemes=psychic\nnt=16\n", [], [(1, "workers"), (2, "schemes")]),
            ("workers=2\nschemes=psychic\nnt=16\n", ["--workers", "3"], [(2, "schemes")]),
            # The geometry reads nt, nr and spacing.
            ("spacing=0.25\nncl=12\nnr=40\n", [], [(1, "spacing"), (3, "nr")]),
            # The scenario reads the rest; the geometry's nt line is not named.
            ("nt=16\ntrials=4\nncl=3\n", [], [(2, "trials"), (3, "ncl")]),
            ("nt=16\ntrials=4\nncl=3\n", ["--trials", "5"], [(3, "ncl")]),
        ],
    )
    def test_a_failed_stage_names_only_its_own_keys(self, text, flags, named, tmp_path):
        path = config_file(tmp_path, text)
        with pytest.raises(UsageError) as raised:
            parse_config(["--config", path, *flags])
        lines = ", ".join(f"{path}:{n} {key}" for n, key in named)
        assert str(raised.value).endswith(f"(from {lines})")

    def test_flag_that_overrides_the_file_keeps_its_message(self, tmp_path):
        path = config_file(tmp_path, "ncl=3\n")
        with pytest.raises(UsageError) as from_flag:
            parse_config(["--ncl", "2"])
        with pytest.raises(UsageError) as over_file:
            parse_config(["--config", path, "--ncl", "2"])
        assert str(over_file.value) == str(from_flag.value)

    def test_unreadable_config_file(self, tmp_path):
        with pytest.raises(UsageError):
            parse_config(["--config", str(tmp_path / "missing.cfg")])

    def test_malformed_config_line(self, tmp_path):
        config_file = tmp_path / "run.cfg"
        config_file.write_text("trials\n")
        with pytest.raises(UsageError):
            parse_config(["--config", str(config_file)])


def run_args(out_dir, *extra):
    return [
        "--nt", "8", "--nr", "2", "--ncl", "4", "--nray", "2",
        "--trials", "2", "--snr-db", "0:10:10", "--seed", "7",
        "--out", str(out_dir), *extra,
    ]


class TestMain:
    def test_usage_error_exit_code(self, capsys):
        assert main(["--nr", "16", "--nt", "8"]) == 1
        assert "usage error" in capsys.readouterr().err

    def test_small_run_writes_artifacts(self, tmp_path):
        out = tmp_path / "results"
        assert main(run_args(out)) == 0
        csv_text = (out / "capacity.csv").read_text(encoding="utf-8")
        lines = csv_text.strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + 3 * 2  # three schemes, two SNR points
        assert (out / "run.meta").exists()
        meta = dict(
            line.split("=", 1) for line in (out / "run.meta").read_text().strip().split("\n")
        )
        assert meta["nt"] == "8"
        assert meta["trials"] == "2"
        assert meta["seed"] == "7"
        assert not (out / "plot.script").exists()

    def test_rows_sorted_by_scheme_then_snr(self, tmp_path):
        out = tmp_path / "results"
        assert main(run_args(out)) == 0
        lines = (out / "capacity.csv").read_text().strip().split("\n")[1:]
        keys = [(line.split(",")[0], float(line.split(",")[1])) for line in lines]
        assert keys == sorted(keys)

    def test_repeat_run_is_byte_identical(self, tmp_path):
        first = tmp_path / "a"
        second = tmp_path / "b"
        assert main(run_args(first)) == 0
        assert main(run_args(second)) == 0
        assert (first / "capacity.csv").read_bytes() == (second / "capacity.csv").read_bytes()

    def test_default_grid_row_count(self, tmp_path):
        out = tmp_path / "grid"
        args = ["--nt", "8", "--nr", "2", "--ncl", "4", "--nray", "2",
                "--trials", "2", "--seed", "7", "--out", str(out)]
        assert main(args) == 0
        lines = (out / "capacity.csv").read_text().strip().split("\n")
        assert len(lines) == 1 + 3 * 7  # three schemes on the default 7-point grid

    def test_ideal_only_run(self, tmp_path):
        out = tmp_path / "ideal"
        assert main(run_args(out, "--schemes", "ideal")) == 0
        lines = (out / "capacity.csv").read_text().strip().split("\n")[1:]
        assert len(lines) == 2
        for line in lines:
            fields = line.split(",")
            assert fields[0] == "ideal"
            assert float(fields[3]) == 0.0
            assert fields[4] == "0"

    def test_emit_plot_script(self, tmp_path):
        out = tmp_path / "plot"
        assert main(run_args(out, "--emit-plot")) == 0
        script = (out / "plot.script").read_text(encoding="utf-8")
        assert script.startswith("#!/usr/bin/env python3")
        assert "capacity.csv" in script

    def test_config_file_run_writes_the_flag_run_bytes(self, tmp_path):
        flags, out = tmp_path / "flags", tmp_path / "file"
        path = config_file(
            tmp_path, "nt=8\nnr=2\nncl=4\nnray=2\ntrials=2\nsnr_db=0:10:10\nseed=7\n"
        )
        assert main(run_args(flags)) == 0
        assert main(["--config", path, "--out", str(out)]) == 0
        for name in ("capacity.csv", "run.meta"):
            assert (out / name).read_bytes() == (flags / name).read_bytes()

    @pytest.mark.parametrize("flags", [["--snr", "-10:5:20"], ["--tri", "2"]])
    def test_abbreviated_flag_is_usage_error(self, flags, tmp_path, capsys):
        # Each flag has one spelling, so the grid fold covers every one.
        out = tmp_path / "abbrev"
        assert main(flags + ["--out", str(out)]) == 1
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not out.exists()

    def test_snr_grid_alike_at_csv_digits_is_usage_error(self, tmp_path, capsys):
        # It wrote three identical rows per scheme and exited 0.
        out = tmp_path / "alike"
        args = run_args(out, "--snr-db", "1000:1e-7:1000.0000002")
        assert main(args) == 1
        assert capsys.readouterr().err.startswith("prmimo: usage error: snr grid")
        assert not out.exists()

    def test_ill_with_too_few_clusters_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "ncl3"
        assert main(["--ncl", "3", "--trials", "5", "--out", str(out)]) == 1
        assert "usage error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags",
        [
            ["--snr-db", "nan:1:5"],
            ["--snr-db", "0:inf:5"],
            ["--spacing", "nan"],
            ["--spacing", "inf"],
            ["--xi-deg", "nan"],
            ["--xi-deg", "inf"],
        ],
    )
    def test_non_finite_value_is_usage_error(self, flags, tmp_path, capsys):
        out = tmp_path / "non-finite"
        assert main(flags + ["--trials", "2", "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("prmimo: usage error:")
        assert not out.exists()

    @pytest.mark.parametrize("spacing", ["1e308", "6e305"])
    def test_spacing_whose_phases_overflow_is_usage_error(self, spacing, tmp_path, capsys):
        # Both failed every trial or most of them, and exited 2.
        out = tmp_path / "huge-spacing"
        assert main(["--spacing", spacing, "--trials", "3", "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("prmimo: usage error: spacing_t is too large")
        assert not out.exists()

    @pytest.mark.parametrize("grid", ["0:1e-300:1", "0:1:1e300"])
    def test_huge_snr_grid_is_usage_error(self, grid, tmp_path, capsys):
        out = tmp_path / "huge-grid"
        assert main(["--snr-db", grid, "--trials", "2", "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("prmimo: usage error: snr grid")
        assert not out.exists()

    @pytest.mark.parametrize("grid", ["0:1000:4000", "-4000:1000:0"])
    def test_snr_grid_outside_linear_range_is_usage_error(self, grid, tmp_path, capsys):
        # Each point is finite in dB but not in linear units: refused when
        # the scenario is built, before any trial runs.
        out = tmp_path / "linear-range"
        assert main(["--snr-db", grid, "--trials", "2", "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("prmimo: usage error: snr grid")
        assert not out.exists()

    def test_negative_seed_is_usage_error(self, tmp_path, capsys):
        # Refused when the scenario is built, not as a failed campaign.
        out = tmp_path / "negative-seed"
        assert main(["--seed", "-1", "--trials", "2", "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("prmimo: usage error: master seed")
        assert not out.exists()

    def test_good_with_few_clusters_runs(self, tmp_path):
        assert main(run_args(tmp_path / "good", "--ncl", "3", "--condition", "good")) == 0

    def test_good_flag_runs_the_file_few_clusters(self, tmp_path):
        path = config_file(tmp_path, "ncl=3\n")
        args = ["--config", path, "--condition", "good", "--nt", "8", "--nr", "2", "--nray", "2",
                "--trials", "2", "--snr-db", "0:10:10", "--out", str(tmp_path / "good")]
        assert main(args) == 0

    def test_unwritable_output_is_runtime_error(self, tmp_path, capsys):
        blocker = tmp_path / "blocked"
        blocker.write_text("a file, not a directory")
        assert main(run_args(blocker)) == 2
        assert "error" in capsys.readouterr().err


# Runs main(argv), which resolves its config through parse_config, in a
# new interpreter and prints the pool modules it loaded along the way.
RUN_MAIN = """
import sys

import prmimo
from prmimo.cli import main

assert main(sys.argv[1:]) == 0
print(*sorted(m for m in sys.modules if m.split(".")[0] in ("concurrent", "multiprocessing")))
"""


# RUN_MAIN on one usable core (the lowest in the affinity), where the
# default runs in this process.
RUN_MAIN_ONE_CORE = """
import os

os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
""" + RUN_MAIN


class TestPoolImport:
    def test_serial_run_loads_no_pool_machinery(self, tmp_path):
        assert fresh_interpreter(RUN_MAIN, *run_args(tmp_path / "serial")).split() == []

    def test_first_pool_import_writes_the_serial_bytes(self, tmp_path):
        # Eight trials at L = 80 are two batches, so two workers build a pool.
        flags = ["--trials", "8", "--snr-db", "0:10:10", "--seed", "7"]
        serial, parallel = tmp_path / "w1", tmp_path / "w2"
        assert fresh_interpreter(RUN_MAIN_ONE_CORE, *flags, "--out", str(serial)).split() == []
        loaded = fresh_interpreter(RUN_MAIN, *flags, "--workers", "2", "--out", str(parallel))
        assert "concurrent.futures.process" in loaded.split()
        assert (parallel / "capacity.csv").read_bytes() == (serial / "capacity.csv").read_bytes()
