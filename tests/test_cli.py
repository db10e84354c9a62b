import argparse
import os
import re
import shutil
import struct
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from voxflow.advect import extrapolate
from voxflow.cli import build_parser, main, parse_stem_timestamp
from voxflow.rvol import read_motion, read_rvol, write_motion, write_rvol
from voxflow.grid import MotionField, RadarVolume
from voxflow.transform import rain_to_dbz, volume_to_rain


def run(*args):
    return main([str(a) for a in args])


def _limit_child():
    """Runs in the child before exec: a 2 GiB address space and 60 s of
    CPU, so an unbounded allocation or loop fails there and only there."""
    import resource
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
    resource.setrlimit(resource.RLIMIT_CPU, (60, 60))


def run_limited(*args, cwd=None) -> subprocess.CompletedProcess:
    """python -m voxflow.cli ARGS in a child process under _limit_child."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src), OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return subprocess.run(
        [sys.executable, "-m", "voxflow.cli", *map(str, args)], cwd=cwd,
        env=env, capture_output=True, text=True, timeout=120,
        preexec_fn=_limit_child)


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

    @pytest.mark.parametrize("leads", ["-1", "x", "2.5", "100001"])
    def test_malformed_leads_is_usage_error(self, capsys, leads):
        # rejected while parsing, before any file is opened
        with pytest.raises(SystemExit) as err:
            run("nowcast", "missing.rvol", "missing.rmf", "-k", leads)
        assert err.value.code == 2
        last = capsys.readouterr().err.strip().splitlines()[-1]
        assert last == ("voxflow nowcast: error: argument -k/--leads: "
                        f"expected an integer in [1, 100000], got {leads!r}")

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

    def test_streamed_forecast_equals_the_whole_volume_forecast(
            self, uniform_files, tmp_path):
        # per-level sub-cell motion carries an invalid block of the start
        # frame along and cells out of the domain, so the forecast mask
        # differs from every single lead's
        d, vol = uniform_files
        whole_vol = read_rvol(vol)
        data = whole_vol.data[5:9].copy()
        data[2, 3, 40:50, 60:70] = np.nan
        vol = tmp_path / "holes.rvol"
        write_rvol(vol, RadarVolume(data=data, z_levels=whole_vol.z_levels,
                                    dt=whole_vol.dt))
        rng = np.random.default_rng(3)
        mf = MotionField(rng.uniform(-2.5, 2.5, (8, 2, 1, 1))
                         + rng.uniform(-0.5, 0.5, (8, 2, 128, 128)))
        motion, out = tmp_path / "m.rmf", tmp_path / "fc.rvol"
        write_motion(motion, mf)
        assert run("nowcast", vol, motion, "-k", "5", "--start-frame", "2",
                   "-o", out) == 0
        src = read_rvol(vol, frames=(2, 3))
        leads = extrapolate(volume_to_rain(src, 0), read_motion(motion), 5)
        mask = np.logical_and.reduce([lead.mask for lead in leads])
        assert not any((mask == lead.mask).all() for lead in leads)
        whole = tmp_path / "whole.rvol"
        write_rvol(whole, RadarVolume(
            data=[rain_to_dbz(lead) for lead in leads], z_levels=src.z_levels,
            dt=src.dt, mask=mask))
        assert out.read_bytes() == whole.read_bytes()

    def test_mask_is_and_of_every_lead(self, uniform_files, tmp_path):
        # RVOL keeps one static mask: a cell whose departure point leaves
        # the domain by the last lead is invalid at every lead
        d, vol = uniform_files
        shift = tmp_path / "shift.rmf"
        u = np.zeros((8, 2, 128, 128))
        u[:, 0] = 1.0  # one cell per step toward +x
        write_motion(shift, MotionField(u))
        out = tmp_path / "fc.rvol"
        assert run("nowcast", vol, shift, "-k", "3", "-o", out) == 0
        fc = read_rvol(out)
        # lead 1 alone loses column 0 only; lead 3 loses columns 0-2
        assert not fc.mask[:, :, :3].any()
        assert fc.mask[:, :, 3:].all()


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

    @pytest.mark.parametrize("offset", ["3", "8"])
    def test_pooling_first_gives_the_csv_of_converting_first(
            self, uniform_files, tmp_path, monkeypatch, offset):
        d, vol = uniform_files
        fc = tmp_path / "fc.rvol"
        assert run("nowcast", vol, d / "u.truth.rmf", "-k", "8",
                   "--start-frame", "7", "-o", fc) == 0

        def metrics(tag):
            csv = tmp_path / f"{tag}.csv"
            assert run("verify", fc, vol, "--offset", offset, "-o", csv) == 0
            return csv.read_bytes()

        pooled = metrics("pooled")
        # without the dBZ pooling verify converts every level and
        # verify_nowcast takes the column maximum in mm/h
        monkeypatch.setattr("voxflow.cli.cmax", lambda vol: vol)
        assert pooled == metrics("converted")

    def test_mismatched_grids_exit_1(self, uniform_files, tmp_path, capsys):
        d, vol = uniform_files
        other = tmp_path / "o.rvol"
        run("synth", "--preset", "shear2", "-o", other)
        assert run("verify", vol, other) == 1
        assert "mismatch" in capsys.readouterr().err


class TestStreamingMemory:
    def test_peak_allocation_does_not_grow_with_the_lead_count(
            self, uniform_files, tmp_path):
        # nowcast holds one plane and verify one lead of each volume at a
        # time; an 8 x 128^2 lead is 1 MiB of float64
        d, vol = uniform_files
        peaks = {}
        for k in (4, 16):
            fc = tmp_path / f"fc{k}.rvol"
            for argv in (("nowcast", vol, d / "u.truth.rmf", "-k", k,
                          "--start-frame", "0", "-o", fc),
                         ("verify", fc, vol, "-o", tmp_path / f"m{k}.csv")):
                tracemalloc.start()
                try:
                    assert run(*argv) == 0
                    peaks[argv[0], k] = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
        for command in ("nowcast", "verify"):
            assert peaks[command, 16] <= 1.1 * peaks[command, 4], peaks


class TestFrameRangeReads:
    @pytest.mark.parametrize("quantize", [False, True])
    def test_invalid_cells_in_unread_frames_match_whole_reads(
            self, uniform_files, tmp_path, monkeypatch, quantize):
        # nowcast reads frame 7 and verify frames 8-10; invalid cells only
        # in frames 0 and 23 must still clear the static mask of both
        d, vol = uniform_files
        src = read_rvol(vol)
        data = src.data.copy()
        data[0, 2, 40:44, 50:60] = np.nan
        data[23, 5, 90, 10:30] = np.nan
        path = tmp_path / "holes.rvol"
        write_rvol(path, RadarVolume(data=src.data if quantize else data,
                                     z_levels=src.z_levels, dt=src.dt),
                   quantize=quantize)
        if quantize:  # the writer stores one static mask; 255 per frame
            raw = bytearray(path.read_bytes())
            payload = len(raw) - data.size  # the u8 payload ends the file
            for i in np.flatnonzero(np.isnan(data)):
                raw[payload + i] = 255
            path.write_bytes(bytes(raw))
        assert not read_rvol(path, frames=(7, 11)).mask.all()

        def outputs(tag):
            (tmp_path / tag).mkdir()  # one stem: the CSV holds the stem
            fc, csv = tmp_path / tag / "fc.rvol", tmp_path / tag / "m.csv"
            assert run("nowcast", path, d / "u.truth.rmf", "-k", "3",
                       "--start-frame", "7", "-o", fc) == 0
            assert run("verify", fc, path, "--offset", "8", "-o", csv) == 0
            return fc.read_bytes(), csv.read_bytes()

        ranged = outputs("ranged")

        def whole_read(p, frames=None):
            full = read_rvol(p)
            lo, hi = frames or (0, full.shape[0])
            return RadarVolume(data=full.data[lo:hi], z_levels=full.z_levels,
                               dt=full.dt, mask=full.mask)
        monkeypatch.setattr("voxflow.cli.rvol.read_rvol", whole_read)
        assert ranged == outputs("whole")

    @pytest.mark.parametrize("extra", [
        ["--mode", "3d"], ["--mode", "2d-cmax"], ["--mode", "lk", "--window", "5"],
        ["--mode", "3d", "--denoise"], ["--mode", "3d", "--use-future"]])
    def test_estimate_reads_only_its_inputs_as_a_whole_read_would(
            self, tmp_path, monkeypatch, extra):
        # a moving blob on two levels with rho_hv; the only invalid cell
        # lies in frame 5, after the 4 input frames, and must still clear
        # the static mask
        t_count, n = 6, 32
        yy, xx = np.mgrid[0:n, 0:n]
        data = np.stack([[40.0 * np.exp(-((xx - 10 - 1.5 * t) ** 2
                                          + (yy - 12 - 2 * z - t) ** 2) / 30.0)
                          - 10.0 for z in range(2)] for t in range(t_count)])
        data[5, 1, 3, 4] = np.nan
        rho = np.random.default_rng(31).uniform(0.5, 1.0, data.shape)
        path = tmp_path / "v.rvol"
        write_rvol(path, RadarVolume(data=data, z_levels=[500.0, 1500.0],
                                     rho_hv=rho))
        assert not read_rvol(path, frames=(0, 4)).mask[1, 3, 4]

        def outputs(tag):
            out = tmp_path / tag / "m.rmf"
            out.parent.mkdir()
            assert run("estimate", path, *extra, "--inputs", "4", "--iters",
                       "5", "--levels", "1", "--scales", "1,2", "-o", out) == 0
            return out.read_bytes(), (tmp_path / tag / "m_trace.csv").read_bytes()

        reads = []
        monkeypatch.setattr("voxflow.cli.rvol.read_rvol", lambda p, frames=None: (
            reads.append(frames), read_rvol(p, frames))[1])
        ranged = outputs("ranged")
        assert reads == [None if "--use-future" in extra else (0, 4)]
        monkeypatch.setattr("voxflow.cli.rvol.read_rvol",
                            lambda p, frames=None: read_rvol(p))
        assert ranged == outputs("whole")


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

    def test_motion_corr_matrices_equal_the_library_ones(self, dataset_dir,
                                                         tmp_path):
        from voxflow import analysis, cli
        assert run("analyze", dataset_dir, "--which", "motion-corr",
                   "-o", tmp_path / "got") == 0
        paths = [p for p, _, _ in cli._dataset(dataset_dir)]
        mfs = [cli._motion_for(p) for p in paths]
        vols = [read_rvol(p) for p in paths]
        for component in ("both", "u", "v"):
            name = f"motion_corr_{component}.csv"
            cli._write_matrix(tmp_path / name, analysis.motion_corr_matrix(
                mfs, vols, component=component))
            assert (tmp_path / "got" / name).read_bytes() == \
                (tmp_path / name).read_bytes()

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

    @pytest.mark.parametrize("which", ["motion-corr", "histogram", "outliers"])
    def test_volume_without_motion_is_skipped_with_note(self, dataset_dir, tmp_path,
                                                        capsys, which):
        data = tmp_path / "data"
        data.mkdir()
        for vol in sorted(dataset_dir.glob("*.rvol")):
            shutil.copy(vol, data / vol.name)
        truth = sorted(dataset_dir.glob("*.truth.rmf"))[0]
        shutil.copy(truth, data / truth.name)
        assert run("analyze", data, "--which", which, "-o", tmp_path / "out") == 0
        err = capsys.readouterr().err.splitlines()
        assert "note: 1 volume(s) had no motion file and were skipped" in err

    def test_top_k_zero_ranks_nothing(self, dataset_dir, tmp_path, capsys):
        assert run("analyze", dataset_dir, "--which", "outliers", "--top-k", "0",
                   "-o", tmp_path) == 0
        assert (tmp_path / "outliers.csv").read_text().splitlines() == [
            "rank,sample_id,timestamp,coverage,correlation"]
        assert capsys.readouterr().err == ""

    def test_negative_top_k_is_data_error(self, dataset_dir, tmp_path, capsys):
        assert run("analyze", dataset_dir, "--which", "outliers", "--top-k", "-2",
                   "-o", tmp_path) == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: top-k must be >= 0, got -2"]

    @pytest.mark.parametrize("which", ["ratios", "refl-corr", "motion-corr",
                                       "histogram", "outliers"])
    @pytest.mark.parametrize("presets", [("shear8", "shear2"),
                                         ("shear2", "shear8")])
    def test_mixed_level_counts_exit_1(self, tmp_path, capsys, which, presets):
        # synth writes each volume's truth motion, which the motion analyses
        # read; levels 0 and 1 exist in both volumes
        data = tmp_path / "data"
        data.mkdir()
        paths = [data / f"202106{10 + i:02d}_1200.rvol" for i in range(2)]
        for path, name in zip(paths, presets):
            assert run("synth", "--preset", name, "-o", path, "--frames", "2") == 0
        capsys.readouterr()
        assert run("analyze", data, "--which", which, "--level-pair", "0,1",
                   "-o", tmp_path / "out") == 1
        expected, got = (p[-1] for p in presets)
        assert capsys.readouterr().err.splitlines() == [
            f"error: {paths[1]} has Z={got}, expected Z={expected} "
            "as in the first volume"]

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

    @pytest.mark.parametrize("command, line, message", [
        (("synth", "--preset", "uniform"), "seed = abc",
         "config key seed: invalid literal for int() with base 10: 'abc'"),
        (("estimate", "v.rvol"), "scales = 1,x",
         "config key scales: expected comma-separated integers such as "
         "1,2,4, got '1,x'"),
    ])
    def test_config_value_of_wrong_type_is_usage_error(self, tmp_path, capsys,
                                                       command, line, message):
        cfg = tmp_path / "t.cfg"
        cfg.write_text(line + "\n")
        with pytest.raises(SystemExit) as err:
            run(*command, "--config", cfg, "-o", tmp_path / "x.out")
        assert err.value.code == 2
        last = capsys.readouterr().err.strip().splitlines()[-1]
        assert last == f"voxflow: error: {message}"

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
    @pytest.mark.parametrize("argv, form", [
        (("analyze", "d", "--which", "motion-corr", "--level-pair", "1"),
         "two comma-separated indices such as 0,2"),
        (("analyze", "d", "--which", "histogram", "--level-pair", "a,b"),
         "two comma-separated indices such as 0,2"),
        (("analyze", "d", "--which", "ratios", "--thresholds-dbz", "5,x"),
         "comma-separated numbers such as 1,5,10"),
        (("estimate", "v.rvol", "--scales", "x"),
         "comma-separated integers such as 1,2,4"),
        (("verify", "f.rvol", "t.rvol", "--thresholds", ""),
         "comma-separated numbers such as 1,5,10"),
        (("analyze", "d", "--which", "histogram", "--bins", "0"),
         "an integer in [1, 1000]"),
        (("analyze", "d", "--which", "histogram", "--bins", "-3"),
         "an integer in [1, 1000]"),
        (("analyze", "d", "--which", "histogram", "--bins", "1001"),
         "an integer in [1, 1000]"),
        (("synth", "--preset", "uniform", "-o", "x.rvol", "--frames", "0"),
         "an integer in [1, 100000]"),
        (("synth", "--preset", "uniform", "-o", "x.rvol", "--frames", "-2"),
         "an integer in [1, 100000]"),
        (("verify", "f.rvol", "t.rvol", "--thresholds", "1,1"),
         "comma-separated numbers such as 1,5,10 without repeats"),
        (("verify", "f.rvol", "t.rvol", "--thresholds", "1,5,1.0"),
         "comma-separated numbers such as 1,5,10 without repeats"),
        (("analyze", "d", "--which", "ratios", "--thresholds-dbz", "0,20,0"),
         "comma-separated numbers such as 1,5,10 without repeats"),
        (("synth", "--preset", "uniform", "-o", "x.rvol", "--frames",
          "100001"), "an integer in [1, 100000]"),
        (("verify", "f.rvol", "t.rvol", "--thresholds", "nan"),
         "comma-separated numbers such as 1,5,10"),
        (("verify", "f.rvol", "t.rvol", "--thresholds", "nan,nan"),
         "comma-separated numbers such as 1,5,10"),
        (("verify", "f.rvol", "t.rvol", "--thresholds", "1,inf"),
         "comma-separated numbers such as 1,5,10"),
        (("analyze", "d", "--which", "ratios", "--thresholds-dbz", "0,-inf"),
         "comma-separated numbers such as 1,5,10"),
        (("analyze", "d", "--which", "ratios", "--thresholds-dbz", "NaN"),
         "comma-separated numbers such as 1,5,10"),
        (("analyze", "d", "--which", "split", "--threshold", "nan"),
         "a finite number"),
        (("analyze", "d", "--which", "split", "--threshold", "inf"),
         "a finite number"),
        (("analyze", "d", "--which", "histogram", "--coverage-dbz", "nan"),
         "a finite number"),
        (("analyze", "d", "--which", "histogram", "--coverage-dbz",
          "infinity"), "a finite number"),
        (("analyze", "d", "--which", "outliers", "--gap-minutes", "nan"),
         "a finite number"),
        (("analyze", "d", "--which", "outliers", "--gap-minutes", "inf"),
         "a finite number"),
        (("estimate", "v.rvol", "--inputs", "1"), "an integer in [2, 100000]"),
        (("estimate", "v.rvol", "--inputs", "-5"),
         "an integer in [2, 100000]"),
    ])
    def test_malformed_list_is_usage_error(self, capsys, argv, form):
        with pytest.raises(SystemExit) as err:
            run(*argv)
        assert err.value.code == 2
        last = capsys.readouterr().err.strip().splitlines()[-1]
        assert last == (f"voxflow {argv[0]}: error: argument {argv[-2]}: "
                        f"expected {form}, got {argv[-1]!r}")

    def test_memory_error_is_one_error_line(self, monkeypatch, capsys):
        def exhausted(path):
            raise MemoryError("Unable to allocate 7.28 TiB for an array")
        monkeypatch.setattr("voxflow.cli.rvol.read_header", exhausted)
        assert run("nowcast", "v.rvol", "m.rmf", "-k", "2") == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["error: out of memory: Unable to allocate 7.28 TiB "
                       "for an array"]

    def test_scale_out_of_range_is_data_error(self, uniform_files, capsys):
        d, vol = uniform_files
        assert run("estimate", vol, "--scales", "1,0",
                   "-o", d / "never.rmf") == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["error: scales must be non-empty, each >= 1, got (1, 0)"]

    @pytest.mark.parametrize("scales", ["64", "1000", "1000000"])
    def test_scales_that_leave_no_grid_are_one_error_line(self, uniform_files,
                                                          scales):
        # should the check miss, the oversized pooling fails to allocate
        # in the limited child instead of taking the machine's memory
        d, vol = uniform_files
        child = run_limited("estimate", vol, "--scales", scales,
                            "-o", d / "never.rmf")
        k = int(scales)
        assert child.returncode == 1
        assert "Traceback" not in child.stderr
        assert child.stderr.splitlines() == [
            f"error: no pooling scale leaves a 4 x 4 grid of the 128 x 128 "
            f"frames: the smallest, {k}, leaves {128 // k} x {128 // k}"]
        assert not (d / "never.rmf").exists()

    @pytest.mark.parametrize("step", ["nan", "inf", "1e308"])
    def test_step_that_is_not_finite_or_too_large_is_one_error_line(
            self, uniform_files, step):
        # in a child, so that a warning would reach stderr
        d, vol = uniform_files
        child = run_limited("estimate", vol, "--inputs", "2", "--step", step,
                            "-o", d / "never.rmf")
        assert child.returncode == 1
        assert child.stderr.splitlines() == [
            f"error: step_size must lie in (0, 1e+35], got {float(step)!r}"]
        assert not (d / "never.rmf").exists()

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

    def test_volume_of_one_frame_is_data_error(self, tmp_path, capsys):
        vol = tmp_path / "one.rvol"
        write_rvol(vol, RadarVolume(data=np.full((1, 1, 24, 24), 30.0),
                                    z_levels=np.array([1000.0])))
        assert run("estimate", vol, "-o", tmp_path / "never.rmf") == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["error: need at least 2 input frames, volume has 1"]

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


def _small_volume(path: Path, seed: int = 0) -> None:
    """A 6 x 2 x 24^2 volume of one moving echo at path, and a random
    motion field next to it as its .truth.rmf."""
    rng = np.random.default_rng(seed)
    yy, xx = np.mgrid[0:24, 0:24]
    frames = np.array([[40.0 * np.exp(
        -((yy - 12) ** 2 + (xx - 6 - t - z) ** 2) / 18.0)
        for z in range(2)] for t in range(6)])
    data = np.where(frames > 2.0, frames, -32.0)
    write_rvol(path, RadarVolume(data=data, z_levels=np.array([1000.0, 2000.0])))
    write_motion(path.with_suffix(".truth.rmf"),
                 MotionField(rng.uniform(-1.0, 1.0, (2, 2, 24, 24))))


_NO_SCIPY_CHILD = """
import sys
import voxflow
import voxflow.cli

data, out = sys.argv[1:]
vol, truth = data + "/20210610_1200.rvol", data + "/20210610_1200.truth.rmf"
for argv in (
        ["estimate", vol, "--mode", "3d", "--inputs", "4", "--iters", "5",
         "--scales", "1,2", "-o", out + "/3d.rmf"],
        ["estimate", vol, "--mode", "2d-cmax", "--inputs", "4", "--iters", "5",
         "--scales", "1,2", "-o", out + "/2d.rmf"],
        ["nowcast", vol, truth, "-k", "2", "--start-frame", "3",
         "-o", out + "/fc.rvol"],
        ["verify", out + "/fc.rvol", vol, "-o", out + "/metrics.csv"],
        ["analyze", data, "--which", "motion-corr", "--level-pair", "0,1",
         "-o", out]):
    assert voxflow.cli.main(argv) == 0, argv
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
assert not loaded, loaded
"""


class TestStartup:
    def test_commands_without_scipy_do_not_load_it(self, tmp_path):
        """Importing voxflow and running estimate (3d, 2d-cmax), nowcast,
        verify and analyze motion-corr in a fresh process loads no scipy
        module."""
        (tmp_path / "data").mkdir()
        (tmp_path / "out").mkdir()
        _small_volume(tmp_path / "data" / "20210610_1200.rvol")
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        child = subprocess.run(
            [sys.executable, "-c", _NO_SCIPY_CHILD, str(tmp_path / "data"),
             str(tmp_path / "out")],
            env=env, capture_output=True, text=True, timeout=120)
        assert child.returncode == 0, child.stderr


#: option and positional values that a careless or hostile caller passes
_HOSTILE = ["0", "-1", "1000000000000", "1e308", "nan", "inf", "", "abc"]


@pytest.fixture(scope="module")
def fuzz_runs(tmp_path_factory):
    """(directory for each run, fixture argv values per subcommand): a
    6 x 2 x 24^2 volume with its motion, a forecast of it and a corpus of
    two such volumes; every output path is relative to the run's
    directory."""
    d = tmp_path_factory.mktemp("fuzz")
    vol, corpus = d / "v.rvol", d / "corpus"
    _small_volume(vol)
    corpus.mkdir()
    for i, stem in enumerate(("20210610_1200", "20210711_1200")):
        _small_volume(corpus / f"{stem}.rvol", seed=i)
    fc = d / "fc.rvol"
    assert run("nowcast", vol, d / "v.truth.rmf", "-k", "2", "-o", fc) == 0
    fixtures = {
        "synth": {"out": "s.rvol", "frames": "2"},
        "estimate": {"volume": vol, "out": "m.rmf", "iters": "5",
                     "scales": "1,2"},
        "nowcast": {"volume": vol, "motion": d / "v.truth.rmf",
                    "leads": "2", "out": "fc.rvol"},
        "verify": {"forecast": fc, "truth": vol, "out": "m.csv"},
        "analyze": {"directory": corpus, "outdir": "report"},
    }
    return d, fixtures


@st.composite
def _hostile_argv(draw, command: str, fixtures) -> list[str]:
    """argv of the subcommand built from the parser's own actions: the
    fixture values, a drawn choice for each choice option, drawn flags, and
    a hostile value for one or two of the actions that take a value."""
    _, table = build_parser()
    actions = [a for a in table[command]._actions
               if not isinstance(a, argparse._HelpAction)]
    values = {k: str(v) for k, v in fixtures[command].items()}
    for a in actions:
        if a.choices is not None:
            values[a.dest] = draw(st.sampled_from(sorted(a.choices)))
        elif a.nargs == 0:
            values[a.dest] = draw(st.booleans())
    takes_value = [a for a in actions if a.choices is None and a.nargs != 0]
    for a in draw(st.lists(st.sampled_from(takes_value), min_size=1,
                           max_size=2, unique_by=lambda a: a.dest)):
        values[a.dest] = draw(st.sampled_from(_HOSTILE))
    argv = [command]
    for a in actions:
        value = values.get(a.dest, False)
        if not a.option_strings:
            argv.append(value)
        elif value is True:
            argv.append(a.option_strings[-1])
        elif value is not False:
            argv += [a.option_strings[-1], value]
    return argv


class TestHostileArguments:
    @pytest.mark.parametrize("command", sorted(build_parser()[1]))
    @settings(max_examples=8, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_every_command_ends_in_an_exit_code_not_a_traceback(
            self, fuzz_runs, command, data):
        # one child at a time, each under _limit_child's memory and CPU
        # limits, so a missed bound fails in the child only
        d, fixtures = fuzz_runs
        argv = data.draw(_hostile_argv(command, fixtures))
        child = run_limited(*argv, cwd=tempfile.mkdtemp(dir=d))
        assert child.returncode in (0, 1, 2), (argv, child.stderr)
        assert "Traceback" not in child.stderr, (argv, child.stderr)
        assert "Warning" not in child.stderr, (argv, child.stderr)
        # a failure is voxflow's own one-line error, not an import error
        last = (child.stderr.splitlines() or [""])[-1]
        assert child.returncode == 0 or re.match(
            r"(voxflow( \w+)?: )?error: ", last), (argv, child.stderr)


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
