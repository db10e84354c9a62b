import struct

import numpy as np
import pytest

from voxflow.cli import main, parse_stem_timestamp
from voxflow.rvol import read_motion, read_rvol, write_motion
from voxflow.grid import MotionField


def run(*args):
    return main([str(a) for a in args])


@pytest.fixture(scope="module")
def uniform_files(tmp_path_factory):
    """One uniform volume (24 frames) shared by the pipeline tests."""
    d = tmp_path_factory.mktemp("uniform")
    vol = d / "u.rvol"
    assert run("synth", "--preset", "uniform", "-o", vol, "--seed", "42",
               "--frames", "24") == 0
    return d, vol


class TestSynth:
    def test_writes_volume_and_truth(self, tmp_path, capsys):
        out = tmp_path / "s.rvol"
        assert run("synth", "--preset", "shear2", "-o", out, "--seed", "7") == 0
        assert out.exists()
        assert (tmp_path / "s.truth.rmf").exists()
        text = capsys.readouterr().out
        assert "24 x 2 x 128 x 128" in text
        assert "(3, 0)" in text and "(0, 3)" in text

    def test_uniform_default_dims(self, tmp_path, capsys):
        out = tmp_path / "u.rvol"
        assert run("synth", "--preset", "uniform", "-o", out) == 0
        assert "8 x 8 x 128 x 128" in capsys.readouterr().out

    def test_deterministic_given_seed(self, tmp_path):
        a = tmp_path / "a.rvol"
        b = tmp_path / "b.rvol"
        run("synth", "--preset", "noisy", "-o", a, "--seed", "42")
        run("synth", "--preset", "noisy", "-o", b, "--seed", "42")
        assert a.read_bytes() == b.read_bytes()

    def test_missing_output_is_usage_error(self):
        with pytest.raises(SystemExit) as err:
            run("synth", "--preset", "uniform")
        assert err.value.code == 2

    def test_quantized_output_readable(self, tmp_path):
        out = tmp_path / "q.rvol"
        assert run("synth", "--preset", "uniform", "-o", out, "--quantize") == 0
        vol = read_rvol(out)
        assert vol.shape == (8, 8, 128, 128)


class TestEstimate:
    def test_3d_estimate_recovers_uniform_motion(self, uniform_files):
        d, vol = uniform_files
        out = d / "u.rmf"
        assert run("estimate", vol, "--mode", "3d", "--inputs", "8",
                   "--scales", "1,2,4", "-o", out) == 0
        mf = read_motion(out)
        assert mf.nz == 8
        # bulk motion close to (3, -2)
        assert abs(np.median(mf.u[:, 0]) - 3.0) < 0.5
        assert abs(np.median(mf.u[:, 1]) + 2.0) < 0.5

    def test_trace_is_emitted_and_non_increasing(self, uniform_files):
        d, vol = uniform_files
        trace = d / "u_trace.csv"
        assert trace.exists()
        rows = trace.read_text().strip().splitlines()
        assert rows[0] == "level,iteration,loss_total,loss_multiscale,loss_divergence"
        by_level = {}
        for line in rows[1:]:
            parts = line.split(",")
            by_level.setdefault(parts[0], []).append(float(parts[2]))
        for vals in by_level.values():
            assert all(b <= a for a, b in zip(vals, vals[1:]))

    def test_2d_cmax_mode_gives_single_level(self, uniform_files):
        d, vol = uniform_files
        out = d / "u2d.rmf"
        assert run("estimate", vol, "--mode", "2d-cmax", "--inputs", "6",
                   "--iters", "60", "--scales", "1,2,4", "-o", out) == 0
        assert read_motion(out).nz == 1

    def test_lk_mode(self, uniform_files):
        d, vol = uniform_files
        out = d / "ulk.rmf"
        assert run("estimate", vol, "--mode", "lk", "--inputs", "8",
                   "-o", out) == 0
        mf = read_motion(out)
        assert mf.nz == 1
        assert np.isfinite(mf.u).all()

    @pytest.mark.filterwarnings("error")
    def test_level_that_never_accepts_a_step_is_reported(self, uniform_files,
                                                         capsys):
        d, vol = uniform_files
        assert run("estimate", vol, "--inputs", "3", "--iters", "3",
                   "--step", "1e30", "-o", d / "stuck.rmf") == 0
        out = capsys.readouterr().out
        assert f"(levels: {','.join(['no_accepted_step'] * 8)})" in out

    def test_corrupt_volume_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.rvol"
        bad.write_bytes(b"NOTAVOLUME")
        assert run("estimate", bad) == 1
        assert "magic" in capsys.readouterr().err


class TestNowcast:
    def test_zero_motion_copies_last_frame(self, uniform_files, tmp_path):
        d, vol = uniform_files
        zero = tmp_path / "zero.rmf"
        write_motion(zero, MotionField(np.zeros((8, 2, 128, 128))))
        out = tmp_path / "fc.rvol"
        assert run("nowcast", vol, zero, "-k", "3", "--start-frame", "7",
                   "-o", out) == 0
        fc = read_rvol(out)
        src = read_rvol(vol)
        assert fc.shape[0] == 3
        for t in range(3):
            np.testing.assert_allclose(fc.data[t], src.data[7], atol=1e-3)

    def test_zero_leads_is_usage_error(self, uniform_files, tmp_path):
        d, vol = uniform_files
        zero = tmp_path / "z.rmf"
        write_motion(zero, MotionField(np.zeros((8, 2, 128, 128))))
        with pytest.raises(SystemExit) as err:
            run("nowcast", vol, zero, "-k", "0")
        assert err.value.code == 2

    def test_start_frame_is_python_style_index(self, uniform_files, tmp_path,
                                               capsys):
        d, vol = uniform_files
        zero = tmp_path / "zero.rmf"
        write_motion(zero, MotionField(np.zeros((8, 2, 128, 128))))
        out = tmp_path / "fc.rvol"
        assert run("nowcast", vol, zero, "-k", "1", "--start-frame", "-5",
                   "-o", out) == 0
        assert "from frame 19" in capsys.readouterr().out
        np.testing.assert_allclose(read_rvol(out).data[0],
                                   read_rvol(vol).data[19], atol=1e-3)
        for bad in ("24", "-25"):
            assert run("nowcast", vol, zero, "-k", "1", "--start-frame", bad,
                       "-o", out) == 1
            err = capsys.readouterr().err.strip().splitlines()
            assert err == [f"error: start frame {bad} outside volume (T=24)"]

    def test_level_mismatch_is_data_error(self, uniform_files, tmp_path):
        d, vol = uniform_files
        bad = tmp_path / "bad.rmf"
        write_motion(bad, MotionField(np.zeros((3, 2, 128, 128))))
        assert run("nowcast", vol, bad, "-k", "2") == 1


class TestVerify:
    def test_forecast_equal_truth_scores_perfectly(self, uniform_files, tmp_path):
        d, vol = uniform_files
        truth_mf = d / "u.truth.rmf"
        fc = tmp_path / "fc.rvol"
        assert run("nowcast", vol, truth_mf, "-k", "8", "--start-frame", "7",
                   "-o", fc) == 0
        csv = tmp_path / "m.csv"
        assert run("verify", fc, vol, "-o", csv, "--offset", "8") == 0
        rows = [line.split(",") for line in
                csv.read_text().strip().splitlines()[1:]]
        me = [float(r[4]) for r in rows if r[2] == "me"]
        ets = [float(r[4]) for r in rows if r[2] == "ets"]
        assert max(abs(v) for v in me) < 0.02
        assert min(ets) > 0.97

    def test_csv_schema(self, uniform_files, tmp_path):
        d, vol = uniform_files
        truth_mf = d / "u.truth.rmf"
        fc = tmp_path / "fc.rvol"
        run("nowcast", vol, truth_mf, "-k", "2", "--start-frame", "7", "-o", fc)
        csv = tmp_path / "m.csv"
        run("verify", fc, vol, "-o", csv, "--offset", "8",
            "--thresholds", "1,5,10")
        lines = csv.read_text().strip().splitlines()
        assert lines[0] == "sample_id,lead_steps,metric,threshold_mmh,value"
        # 3 continuous + 3 thresholds x 3 categorical, per 2 leads
        assert len(lines) - 1 == 2 * (3 + 9)

    def test_mismatched_grids_exit_1(self, uniform_files, tmp_path, capsys):
        d, vol = uniform_files
        other = tmp_path / "o.rvol"
        run("synth", "--preset", "shear2", "-o", other)
        assert run("verify", vol, other) == 1
        assert "mismatch" in capsys.readouterr().err


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("dataset")
    for i, seed in enumerate((0, 1)):
        out = d / f"202106{10 + i:02d}_1200.rvol"
        assert main(["synth", "--preset", "shear8", "-o", str(out),
                     "--seed", str(seed)]) == 0
    return d


class TestAnalyze:
    def test_ratios(self, dataset_dir):
        assert run("analyze", dataset_dir, "--which", "ratios") == 0
        csv = dataset_dir / "rainy_ratios.csv"
        assert csv.exists()
        assert (dataset_dir / "rainy_ratios.svg").exists()
        rows = csv.read_text().strip().splitlines()[1:]
        assert len(rows) == 8 * 2

    def test_refl_corr(self, dataset_dir):
        assert run("analyze", dataset_dir, "--which", "refl-corr") == 0
        rows = (dataset_dir / "reflectivity_corr.csv").read_text().splitlines()
        assert len(rows) == 9

    def test_motion_corr_uses_truth_files(self, dataset_dir):
        assert run("analyze", dataset_dir, "--which", "motion-corr",
                   "--level-pair", "0,2") == 0
        rows = (dataset_dir / "motion_corr_both.csv").read_text().splitlines()
        header, first = rows[0], rows[1].split(",")
        assert float(first[1]) == 1.0
        assert (dataset_dir / "motion_corr_u.csv").exists()
        assert (dataset_dir / "motion_corr_v.csv").exists()
        assert (dataset_dir / "motion_corr.svg").exists()

    def test_histogram_and_outliers(self, dataset_dir):
        assert run("analyze", dataset_dir, "--which", "histogram",
                   "--bins", "10") == 0
        hist = (dataset_dir / "coverage_vs_corr.csv").read_text().splitlines()
        counts = sum(int(r.split(",")[4]) for r in hist[1:])
        assert counts == 2
        assert run("analyze", dataset_dir, "--which", "outliers",
                   "--top-k", "1") == 0
        out = (dataset_dir / "outliers.csv").read_text().splitlines()
        assert len(out) == 2

    def test_split_diagnostic_outputs(self, dataset_dir):
        assert run("analyze", dataset_dir, "--which", "split") == 0
        csvs = list(dataset_dir.glob("*_split.csv"))
        assert len(csvs) == 2

    @pytest.mark.parametrize("which", ["motion-corr", "histogram"])
    @pytest.mark.parametrize("pair", ["0,9", "0,-1"])
    def test_level_pair_outside_volume_exit_1(self, dataset_dir, tmp_path,
                                              capsys, which, pair):
        assert run("analyze", dataset_dir, "--which", which, "--level-pair",
                   pair, "-o", tmp_path) == 1
        bad = pair.split(",")[1]
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"error: level index {bad} outside [0, 8): "
                       "the volume has 8 levels"]

    def test_empty_directory_exit_1(self, tmp_path, capsys):
        assert run("analyze", tmp_path, "--which", "ratios") == 1
        assert "no volumes found" in capsys.readouterr().err


class TestConfigFile:
    def test_config_sets_defaults_cli_overrides(self, tmp_path, capsys):
        cfg = tmp_path / "flow.cfg"
        cfg.write_text("preset = noisy\nseed = 9\n# a comment\n")
        out = tmp_path / "n.rvol"
        assert run("synth", "--config", cfg, "-o", out) == 0
        assert read_rvol(out).shape == (8, 2, 128, 128)
        # the flag wins over the file
        out2 = tmp_path / "u.rvol"
        assert run("synth", "--config", cfg, "--preset", "uniform",
                    "-o", out2) == 0
        assert read_rvol(out2).shape == (8, 8, 128, 128)

    def test_unknown_config_key_is_usage_error(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("nonsense = 1\n")
        with pytest.raises(SystemExit) as err:
            run("synth", "--config", cfg, "--preset", "uniform",
                "-o", tmp_path / "x.rvol")
        assert err.value.code == 2


    def test_non_boolean_flag_value_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "q.cfg"
        out = tmp_path / "q.rvol"
        cfg.write_text("preset = uniform\nquantize = maybe\n")
        with pytest.raises(SystemExit) as err:
            run("synth", "--config", cfg, "-o", out)
        assert err.value.code == 2
        assert "config key quantize" in capsys.readouterr().err
        assert not out.exists()
        cfg.write_text("preset = uniform\nframes = 2\nquantize = OFF\n")
        assert run("synth", "--config", cfg, "-o", out) == 0
        assert out.read_bytes()[21] == 0  # dtype f32: not quantized


class TestErrors:
    def test_missing_config_file_is_data_error(self, tmp_path, capsys):
        missing = tmp_path / "missing.cfg"
        assert run("synth", "--config", missing, "--preset", "uniform",
                   "-o", tmp_path / "x.rvol") == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"error: [Errno 2] No such file or directory: "
                       f"'{missing}'"]

    def test_diverged_estimate_is_data_error(self, uniform_files, monkeypatch,
                                             capsys):
        from voxflow import cli
        from voxflow.errors import DivergedError

        def diverge(*args, **kwargs):
            raise DivergedError(3)

        monkeypatch.setattr(cli, "estimate_variational", diverge)
        d, vol = uniform_files
        assert run("estimate", vol, "--inputs", "2",
                   "-o", d / "never.rmf") == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["error: optimization diverged at iteration 3"]


    def test_payload_larger_than_file_is_data_error(self, uniform_files,
                                                    tmp_path, capsys):
        d, vol = uniform_files
        huge_vol = tmp_path / "huge.rvol"
        huge_vol.write_bytes(b"RVOL\x01" + struct.pack(
            "<IIII", 100_000, 2, 100_000, 100_000) + b"\x00"
            + struct.pack("<I2f", 300, 500.0, 1000.0))
        huge_mf = tmp_path / "huge.rmf"
        huge_mf.write_bytes(b"RMF1" + struct.pack("<III", *[100_000] * 3))
        assert run("verify", huge_vol, vol, "-o", tmp_path / "m.csv") == 1
        assert run("nowcast", vol, huge_mf, "-k", "1",
                   "-o", tmp_path / "fc.rvol") == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["error: payload: header declares 8000000000000008 "
                       "more bytes, file holds 8",
                       "error: payload: header declares 8000000000000000 "
                       "more bytes, file holds 0"]


class TestTimestampParsing:
    def test_formats(self):
        from datetime import datetime
        assert parse_stem_timestamp("20220409_0955") == datetime(2022, 4, 9, 9, 55)
        assert parse_stem_timestamp("radar_20220409T0955_x") == \
            datetime(2022, 4, 9, 9, 55)
        assert parse_stem_timestamp("sample") is None


class TestPipelineDeterminism:
    def test_metric_csv_bytes_identical_across_runs(self, tmp_path):
        outputs = []
        for run_dir in ("r1", "r2"):
            d = tmp_path / run_dir
            d.mkdir()
            vol = d / "n.rvol"
            assert run("synth", "--preset", "noisy", "-o", vol, "--seed",
                       "5", "--frames", "12") == 0
            mf = d / "n.rmf"
            assert run("estimate", vol, "--inputs", "8", "--iters", "60",
                       "--scales", "1,2,4", "-o", mf) == 0
            fc = d / "n.fc.rvol"
            assert run("nowcast", vol, mf, "-k", "4", "--start-frame", "7",
                       "-o", fc) == 0
            csv = d / "n.csv"
            assert run("verify", fc, vol, "-o", csv) == 0
            outputs.append(csv.read_bytes())
        assert outputs[0] == outputs[1]
