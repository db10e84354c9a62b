import argparse
import csv
import errno
import json
import os
import re
import shlex
import shutil
import struct
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from itertools import combinations
from pathlib import Path
from xml.etree import ElementTree

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from voxflow.advect import extrapolate
from voxflow.cli import build_parser, main, parse_stem_timestamp
from voxflow.rvol import (RvolReader, read_motion, read_rvol, write_motion,
                          write_rvol)
from voxflow.grid import NO_ECHO_DBZ, MotionField, RadarVolume, RainField, cmax
from voxflow.synth import PRESET_NAMES, generate, preset
from voxflow.transform import (
    F32_OVERFLOW_MMH,
    dbz_reaching,
    rain_to_dbz,
    volume_to_rain,
)

from test_analysis import _ref_refl_corr
from test_synth import _ref_generate

#: every analysis that analyze --which runs
_ANALYSES = ("ratios", "refl-corr", "motion-corr", "histogram", "outliers",
             "split")


def run(*args):
    return main([str(a) for a in args])


def _case(key: str, *values):
    """pytest.param of values whose id is key and each string value (a
    pattern's text) joined by "-": the id pytest generated while these
    cases took positional ids. A case removed later renames no other, and
    a new one takes a key of its own."""
    texts = [v.pattern if isinstance(v, re.Pattern) else v
             for v in values if isinstance(v, (str, re.Pattern))]
    return pytest.param(*values, id="-".join([key, *texts]))


def _limit_child():
    """Runs in the child before exec: a 2 GiB address space and 60 s of
    CPU, so an unbounded allocation or loop fails there and only there."""
    import resource
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
    resource.setrlimit(resource.RLIMIT_CPU, (60, 60))


#: the BLAS thread variables, unset
_NO_THREAD_VARS = dict.fromkeys(
    ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"))


def run_limited(*args, cwd=None, entry="voxflow.cli",
                **env) -> subprocess.CompletedProcess:
    """python -m ENTRY ARGS in a child process under _limit_child, with one
    BLAS thread and the environment variables env added; a None value
    unsets its variable."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src), "OMP_NUM_THREADS": "1",
           "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1", **env}
    return subprocess.run(
        [sys.executable, "-m", entry, *map(str, args)], cwd=cwd,
        env={k: v for k, v in env.items() if v is not None},
        capture_output=True, text=True, timeout=120,
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

    @pytest.mark.parametrize("argv", [
        ["--preset", "noisy", "--seed", "42"],
        ["--preset", "noisy", "--seed", "5"],
        ["--preset", "uniform", "--crop-scale", "--frames", "2", "--seed", "5"],
    ], ids=["noisy-42", "noisy-5", "crop-5"])
    def test_deterministic_given_seed(self, tmp_path, argv):
        # the speckle path and the 512^2 render, twice in this process and
        # once in another: neither state left by an earlier run nor
        # anything that differs between processes may change a byte
        for name in ("a", "b"):
            assert run("synth", *argv, "-o", tmp_path / f"{name}.rvol") == 0
        child = run_limited("synth", *argv, "-o", tmp_path / "c.rvol")
        assert child.returncode == 0, child.stderr
        for suffix in (".rvol", ".truth.rmf"):
            a, b, c = ((tmp_path / f"{n}{suffix}").read_bytes() for n in "abc")
            assert a == b == c, suffix

    def test_missing_output_is_usage_error(self):
        with pytest.raises(SystemExit) as err:
            run("synth", "--preset", "uniform")
        assert err.value.code == 2

    @pytest.mark.parametrize("name", [n for n in PRESET_NAMES if n != "uniform"])
    def test_crop_scale_of_another_preset_is_one_error_line(self, tmp_path,
                                                            capsys, name):
        out = tmp_path / "c.rvol"
        assert run("synth", "--preset", name, "--crop-scale", "-o", out) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: crop_scale applies to the uniform preset only, not {name!r}"]
        assert not out.exists()

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

    def test_2d_cmax_mode_gives_single_level(self, uniform_files,
                                             monkeypatch):
        monkeypatch.setattr("voxflow.variational.MAX_ITERS", 60)
        d, vol = uniform_files
        out = d / "u2d.rmf"
        assert run("estimate", vol, "--mode", "2d-cmax", "--inputs", "6",
                   "--scales", "1,2,4", "-o", out) == 0
        assert read_motion(out).nz == 1

    @pytest.mark.filterwarnings("error")
    def test_level_that_never_accepts_a_step_is_reported(self, uniform_files,
                                                         capsys, monkeypatch):
        monkeypatch.setattr("voxflow.variational.STEP_SIZE", 1e30)
        monkeypatch.setattr("voxflow.variational.MAX_ITERS", 3)
        d, vol = uniform_files
        assert run("estimate", vol, "--inputs", "3",
                   "-o", d / "stuck.rmf") == 0
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

    def test_two_level_motion_on_three_level_volume_is_data_error(
            self, tmp_path, capsys):
        # only a one-level motion takes the column maximum of a volume
        vol = tmp_path / "v.rvol"
        write_rvol(vol, RadarVolume(data=np.full((2, 3, 8, 8), 20.0),
                                    z_levels=[500.0, 1000.0, 1500.0]))
        motion = tmp_path / "m.rmf"
        write_motion(motion, MotionField(np.zeros((2, 2, 8, 8))))
        assert run("nowcast", vol, motion, "-k", "2",
                   "-o", tmp_path / "fc.rvol") == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: field has Z=3 but motion has Z=2"]
        assert not (tmp_path / "fc.rvol").exists()

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
        with RvolReader(vol) as reader:
            src = reader.read(2, 3)
        # nowcast advects the start frame's rates rounded once to float32
        start = volume_to_rain(src, 0)
        start = RainField(data=start.data.astype(np.float32), mask=start.mask)
        leads = extrapolate(start, read_motion(motion), 5)
        mask = np.logical_and.reduce([lead.mask for lead in leads])
        assert not any((mask == lead.mask).all() for lead in leads)
        whole = tmp_path / "whole.rvol"
        write_rvol(whole, RadarVolume(
            data=[rain_to_dbz(lead.data) for lead in leads],
            z_levels=src.z_levels, dt=src.dt, mask=mask))
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

    def test_float32_forecast_at_the_crop_shape(self, workloads, tmp_path):
        # on the seed-1 crop_nowcast input (8 levels at 512^2), built by
        # the benchmark's own set-up, under a fractional motion (the truth
        # plus 0.37 cells), the forecast of float32 rates keeps the masks
        # of the float64 library extrapolation and its dBZ lie within 1e-4
        # of rain_to_dbz of that extrapolation (6.8e-6 measured); the
        # benchmark's integer-shift oracle cannot see interpolation rounding
        leads, start_frame = workloads.CROP_LEADS, workloads.START_FRAME
        workloads.WORKLOADS["crop_nowcast"].setup(1, tmp_path, generate)
        truth = read_motion(tmp_path / "crop.truth.rmf")
        frac = tmp_path / "frac.rmf"
        write_motion(frac, MotionField(truth.u + np.float32(0.37)))
        assert run("nowcast", tmp_path / "crop.rvol", frac, "-k", leads,
                   "--start-frame", start_frame, "-o", tmp_path / "fc.rvol") == 0
        with RvolReader(tmp_path / "crop.rvol") as reader:
            start = volume_to_rain(reader.read(start_frame, start_frame + 1), 0)
        assert start.data.dtype == np.float64
        fc = read_rvol(tmp_path / "fc.rvol")
        worst, cells = [0.0], [0]

        def compare(t, z, plane, valid):
            assert np.array_equal(fc.mask[z], valid), (t, z)
            diff = np.abs(fc.data[t, z][valid] - rain_to_dbz(plane)[valid])
            worst.append(float(diff.max(initial=0.0)))
            cells.append(diff.size)
        extrapolate(start, read_motion(frac), leads, sink=compare)
        assert sum(cells) > 0 and max(worst) <= 1e-4, max(worst)


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
        run("verify", fc, vol, "-o", csv, "--offset", "8")
        lines = csv.read_text().strip().splitlines()
        assert lines[0] == "sample_id,lead_steps,metric,threshold_mmh,value"
        # 3 continuous + 3 thresholds (1, 5, 10 mm/h) x 3 categorical, per
        # 2 leads
        assert len(lines) - 1 == 2 * (3 + 9)
        assert sorted({r.split(",")[3] for r in lines[1:]}) == \
            ["", "1", "10", "5"]

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
        # with whole-lead reads verify converts every level and
        # verify_nowcast takes the column maximum in mm/h
        leads = []

        def whole_lead(reader, t):
            leads.append(t)
            return reader.read(t, t + 1)
        monkeypatch.setattr("voxflow.rvol.RvolReader.read_cmax", whole_lead)
        assert pooled == metrics("converted")
        assert len(leads) == 2 * 8

    def test_sample_id_with_comma_and_quote_round_trips(self, uniform_files,
                                                        tmp_path):
        d, vol = uniform_files
        fc = tmp_path / 'a,"b.rvol'
        assert run("nowcast", vol, d / "u.truth.rmf", "-k", "2",
                   "--start-frame", "7", "-o", fc) == 0
        assert run("verify", fc, vol, "--offset", "8") == 0
        with (tmp_path / 'a,"b.metrics.csv').open(newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2 * (3 + 9)
        assert {r["sample_id"] for r in rows} == {'a,"b'}
        assert {r["lead_steps"] for r in rows} == {"1", "2"}

    def test_mismatched_grids_exit_1(self, uniform_files, tmp_path, capsys):
        # both volumes are pooled to their column maximum, so the grids
        # are Y x X: a different level count alone is no mismatch
        d, vol = uniform_files
        other = tmp_path / "o.rvol"
        write_rvol(other, RadarVolume(data=np.zeros((24, 8, 64, 128)),
                                      z_levels=500.0 * np.arange(1, 9)))
        assert run("verify", vol, other) == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: grid mismatch: forecast (128, 128) vs truth (64, 128)"]

    def test_offset_that_leaves_too_few_truth_frames_is_rejected(
            self, uniform_files, tmp_path):
        from voxflow import cli
        d, vol = uniform_files
        fc = tmp_path / "fc.rvol"
        assert run("nowcast", vol, d / "u.truth.rmf", "-k", "8",
                   "--start-frame", "7", "-o", fc) == 0
        args = build_parser().parse_args(["verify", str(fc), str(vol),
                                  "--offset", "17"])
        with pytest.raises(ValueError, match=r"truth volume \(T=24\) cannot "
                                             r"cover 8 leads at offset 17"):
            cli._cmd_verify(args)
        assert run("verify", fc, vol, "--offset", "16",
                   "-o", tmp_path / "m.csv") == 0


class TestCmaxArm:
    """The CMAX arm runs on the volume itself: estimate --mode 2d-cmax,
    then nowcast and verify of the volume with the one-level motion, write
    the bytes that the same commands write from the volume's grid.cmax
    copy. The volume is synth's shear2 preset, or one of the seed-1
    desk_shear scenes, built through the benchmark's own scenario."""

    @pytest.mark.parametrize("scene", [None, 0, 1],
                             ids=["preset", "desk_shear-0", "desk_shear-1"])
    def test_volume_and_its_cmax_copy_give_the_same_files(
            self, tmp_path, workloads, scene):
        volume, copy = tmp_path / "volume", tmp_path / "copy"
        volume.mkdir()
        copy.mkdir()
        if scene is None:
            assert run("synth", "--preset", "shear2", "-o",
                       volume / "s.rvol") == 0
        else:
            write_rvol(volume / "s.rvol", generate(workloads._scenario(
                "shear2", np.random.default_rng([1, scene]), seed=1))[0])
        write_rvol(copy / "s.rvol", cmax(read_rvol(volume / "s.rvol")))
        names = ("s.rmf", "s_trace.csv", "s.nowcast.rvol",
                 "s.nowcast.metrics.csv")
        for d in (volume, copy):
            assert run("estimate", d / "s.rvol", "--mode", "2d-cmax",
                       "--scales", "1,2,4") == 0
            assert run("nowcast", d / "s.rvol", d / "s.rmf", "-k", "16",
                       "--start-frame", "7") == 0
            assert run("verify", d / "s.nowcast.rvol", d / "s.rvol") == 0
        assert read_rvol(volume / "s.nowcast.rvol").shape == (16, 1, 128, 128)
        for name in names:
            assert (volume / name).read_bytes() == (copy / name).read_bytes(), \
                name


def _corpus(d: Path, count: int, quantize: bool = False, n: int = 40) -> None:
    """count volumes of 4 frames x 4 levels x n^2 in d, stamped in
    successive months, each with a random motion field as its .rmf: moving
    echoes of a different strength per level over no echo, and in the
    first volume invalid cells that only its last frame holds."""
    yy, xx = np.mgrid[0:n, 0:n]
    for i in range(count):
        rng = np.random.default_rng(i)
        y0, x0 = rng.uniform(0.3 * n, 0.5 * n, 2)
        data = np.array([[(50.0 - 8.0 * z) * np.exp(
            -((yy - y0 - t) ** 2 + (xx - x0 - (1 + z) * t) ** 2)
            / (0.02 * n * n)) - 10.0 + rng.normal(0.0, 2.0, (n, n))
            for z in range(4)] for t in range(4)])
        data[data < -8.0] = NO_ECHO_DBZ
        if i == 0:
            data[3, 1, :5, :7] = np.nan
        path = d / f"2021{1 + i % 12:02d}{10 + i // 12:02d}_1200.rvol"
        write_rvol(path, RadarVolume(data=data, z_levels=500.0 * np.arange(
            1, 5)), quantize=quantize)
        write_motion(path.with_suffix(".rmf"),
                     MotionField(rng.normal(0.0, 1.0, (4, 2, n, n))))


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

    def test_estimate_holds_one_float64_copy_of_its_inputs(self, tmp_path,
                                                           monkeypatch):
        # the rain fields are the one whole copy: the decoded volume is
        # read a frame at a time and the dBR planes a level at a time. One
        # level's descent works in about ten levels' worth of inputs, so
        # the volume has enough levels for a second copy to show
        shape = (8, 32, 64, 64)
        yy, xx = np.mgrid[0:64, 0:64]
        data = np.broadcast_to(
            [[45.0 * np.exp(-((xx - 20 - 1.5 * t) ** 2
                              + (yy - 24 - t) ** 2) / 80.0) - 10.0]
             for t in range(shape[0])], shape)
        path = tmp_path / "v.rvol"
        write_rvol(path, RadarVolume(data=data,
                                     z_levels=np.arange(1.0, 33.0)))
        monkeypatch.setattr("voxflow.variational.PYRAMID_STAGES", 1)
        monkeypatch.setattr("voxflow.variational.MAX_ITERS", 5)
        tracemalloc.start()
        try:
            assert run("estimate", path, "--inputs", "8", "--scales", "1,2",
                       "-o", tmp_path / "m.rmf") == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 8 * np.prod(shape), peak


    @pytest.mark.parametrize("which", _ANALYSES)
    def test_analysis_peak_does_not_grow_with_the_corpus(self, tmp_path,
                                                         which):
        # each volume is read one frame at a time and each motion sample is
        # dropped once its correlations are taken, so only per-sample rows
        # and numbers outlive a volume
        peaks = {}
        for count in (2, 6):
            d = tmp_path / f"c{count}"
            d.mkdir()
            _corpus(d, count, n=64)
            tracemalloc.start()
            try:
                assert run("analyze", d, "--which", which,
                           "-o", d / "out") == 0
                peaks[count] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[6] <= 1.1 * peaks[2], peaks


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
        with RvolReader(path) as reader:
            assert not reader.read(7, 11).mask.all()

        def outputs(tag):
            (tmp_path / tag).mkdir()  # one stem: the CSV holds the stem
            fc, csv = tmp_path / tag / "fc.rvol", tmp_path / tag / "m.csv"
            assert run("nowcast", path, d / "u.truth.rmf", "-k", "3",
                       "--start-frame", "7", "-o", fc) == 0
            assert run("verify", fc, path, "--offset", "8", "-o", csv) == 0
            return fc.read_bytes(), csv.read_bytes()

        ranged = outputs("ranged")

        # the nowcast's frame sliced from a whole-volume read
        whole = read_rvol(path)
        monkeypatch.setattr("voxflow.rvol.RvolReader.read",
                            lambda r, start, stop: RadarVolume(
                                data=whole.data[start:stop],
                                z_levels=whole.z_levels, dt=whole.dt,
                                mask=whole.mask))
        assert ranged == outputs("whole")

    @pytest.mark.parametrize("extra", [
        ["--mode", "3d"], ["--mode", "2d-cmax"],
        ["--mode", "3d", "--denoise"], ["--mode", "3d", "--inputs", "6"],
        ["--mode", "2d-cmax", "--denoise"]])
    def test_estimate_reads_only_its_inputs_as_a_whole_read_would(
            self, tmp_path, monkeypatch, extra):
        # a moving blob on two levels with rho_hv; the only invalid cell
        # lies in frame 5, after the 4 input frames (an input only when all
        # 6 frames are), and must still clear the static mask
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
        with RvolReader(path) as reader:
            assert not reader.read(0, 4).mask[1, 3, 4]

        def outputs(tag):
            out = tmp_path / tag / "m.rmf"
            out.parent.mkdir()
            assert run("estimate", path, "--inputs", "4", *extra,
                       "--scales", "1,2", "-o", out) == 0
            return out.read_bytes(), (tmp_path / tag / "m_trace.csv").read_bytes()

        monkeypatch.setattr("voxflow.variational.PYRAMID_STAGES", 1)
        monkeypatch.setattr("voxflow.variational.MAX_ITERS", 5)
        # each input frame is decoded on its own, in order
        reads, read = [], RvolReader.read
        monkeypatch.setattr("voxflow.rvol.RvolReader.read", lambda r, *span: (
            reads.append(span), read(r, *span))[1])
        ranged = outputs("ranged")
        used = t_count if "--inputs" in extra else 4
        assert reads == [(t, t + 1) for t in range(used)]
        # the same frames sliced from a whole-volume read
        whole = read_rvol(path)
        monkeypatch.setattr("voxflow.rvol.RvolReader.read",
                            lambda r, start, stop: RadarVolume(
                                data=whole.data[start:stop],
                                z_levels=whole.z_levels, dt=whole.dt,
                                mask=whole.mask,
                                rho_hv=whole.rho_hv[start:stop]))
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
        mfs = [read_motion(cli._motion_file(p)) for p in paths]
        vols = [read_rvol(p) for p in paths]
        for component in ("both", "u", "v"):
            name = f"motion_corr_{component}.csv"
            cli._write_matrix(tmp_path / name, analysis.motion_corr_matrix(
                mfs, vols, component=component))
            assert (tmp_path / "got" / name).read_bytes() == \
                (tmp_path / name).read_bytes()

    def test_histogram_and_outliers(self, dataset_dir, capsys):
        assert run("analyze", dataset_dir, "--which", "histogram") == 0
        hist = (dataset_dir / "coverage_vs_corr.csv").read_text().splitlines()
        assert len(hist) == 1 + 20 * 20
        counts = sum(int(r.split(",")[4]) for r in hist[1:])
        assert counts == 2
        assert run("analyze", dataset_dir, "--which", "outliers") == 0
        out = (dataset_dir / "outliers.csv").read_text().splitlines()
        # both samples, a day apart, are ranked; analysis.TOP_K asks for 3
        assert len(out) == 1 + 2
        assert "note: only 2 of 3 requested samples available" in \
            capsys.readouterr().err.splitlines()

    def test_split_diagnostic_outputs(self, dataset_dir):
        assert run("analyze", dataset_dir, "--which", "split") == 0
        csvs = list(dataset_dir.glob("*_split.csv"))
        assert len(csvs) == 2

    @pytest.mark.parametrize("which", ["motion-corr", "histogram", "outliers"])
    def test_motion_on_another_grid_is_one_error_line(self, tmp_path, capsys,
                                                      which):
        _small_volume(tmp_path / "v.rvol")
        write_motion(tmp_path / "v.rmf", MotionField(np.zeros((2, 2, 12, 12))))
        assert run("analyze", tmp_path, "--which", which, "--level-pair",
                   "0,1", "-o", tmp_path / "report") == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: {tmp_path / 'v.rmf'} has Z, Y, X = (2, 12, 12), but its "
            f"volume {tmp_path / 'v.rvol'} has (2, 24, 24)"]

    @pytest.mark.parametrize("which", ["motion-corr", "histogram", "outliers"])
    def test_motion_of_another_level_count_is_one_error_line(
            self, tmp_path, capsys, which):
        assert run("synth", "--preset", "uniform", "--frames", "2",
                   "-o", tmp_path / "u.rvol") == 0
        write_motion(tmp_path / "u.rmf", MotionField(np.zeros((2, 2, 128, 128))))
        capsys.readouterr()
        assert run("analyze", tmp_path, "--which", which,
                   "-o", tmp_path / "report") == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: {tmp_path / 'u.rmf'} has Z, Y, X = (2, 128, 128), but its "
            f"volume {tmp_path / 'u.rvol'} has (8, 128, 128)"]

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

    @pytest.mark.parametrize("which", ["motion-corr", "histogram", "outliers"])
    def test_corpus_without_motion_files_exit_1(self, dataset_dir, tmp_path,
                                                capsys, which):
        for vol in sorted(dataset_dir.glob("*.rvol")):
            shutil.copy(vol, tmp_path / vol.name)
        assert run("analyze", tmp_path, "--which", which,
                   "-o", tmp_path / "out") == 1
        assert capsys.readouterr().err.splitlines() == [
            "note: 2 volume(s) had no motion file and were skipped",
            "error: no motion files found next to the volumes"]
        assert not list((tmp_path / "out").glob("*.csv"))

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

    @pytest.mark.parametrize("which", ["motion-corr", "histogram", "outliers"])
    def test_default_pair_on_a_two_level_corpus(self, tmp_path, which):
        # the default pair is levels 0 and min(2, Z - 1)
        assert run("synth", "--preset", "shear2", "--frames", "4",
                   "-o", tmp_path / "s.rvol") == 0
        reports = {}
        for tag, pair in (("default", ()),
                          ("explicit", ("--level-pair", "0,1"))):
            out = tmp_path / tag
            assert run("analyze", tmp_path, "--which", which, *pair,
                       "-o", out) == 0
            reports[tag] = {p.name: p.read_bytes() for p in out.iterdir()}
        assert reports["default"] and reports["default"] == reports["explicit"]

    @pytest.mark.parametrize("which", ["motion-corr", "histogram", "outliers"])
    def test_default_pair_on_a_one_level_corpus_exit_1(self, tmp_path, capsys,
                                                       which):
        assert run("synth", "--preset", "rotation", "--frames", "2",
                   "-o", tmp_path / "r.rvol") == 0
        capsys.readouterr()
        assert run("analyze", tmp_path, "--which", which,
                   "-o", tmp_path / "out") == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: the default level pair needs two levels, the volumes "
            "have Z=1; give --level-pair"]

    def test_empty_directory_exit_1(self, tmp_path, capsys):
        assert run("analyze", tmp_path, "--which", "ratios") == 1
        assert "no volumes found" in capsys.readouterr().err

    @pytest.mark.parametrize("name, code", [("missing", errno.ENOENT),
                                            ("file", errno.ENOTDIR)])
    def test_missing_directory_or_a_file_is_its_os_error(self, tmp_path,
                                                         capsys, name, code):
        (tmp_path / "file").write_bytes(b"")
        path = tmp_path / name
        assert run("analyze", path, "--which", "ratios") == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: [Errno {code}] {os.strerror(code)}: '{path}'"]

    @pytest.mark.parametrize("corpus", ["small", "desk"])
    def test_reports_of_any_stem_are_well_formed(self, tmp_path, corpus):
        # stems holding markup and CSV delimiters reach the split titles
        # and file names, the sample ids and the metrics of a nowcast: two
        # small 2-level volumes, or synth's 8-level uniform and shear8
        if corpus == "small":
            stems, pair = ['a&b<c,"1', 'a&b<c]]>,"2'], ["--level-pair", "0,1"]
            for seed, stem in enumerate(stems):
                _small_volume(tmp_path / f"{stem}.rvol", seed)
        else:
            stems, pair = ["a&b<c,1", "a&b<c,2"], []
            for stem, name, seed in zip(stems, ("uniform", "shear8"), (1, 2)):
                assert run("synth", "--preset", name, "-o",
                           tmp_path / f"{stem}.rvol", "--seed", seed) == 0
        out = tmp_path / "report"
        for which in _ANALYSES:
            assert run("analyze", tmp_path, "--which", which, *pair,
                       "-o", out) == 0
        first = tmp_path / stems[0]
        assert run("nowcast", f"{first}.rvol", f"{first}.truth.rmf", "-k", 4,
                   "--start-frame", 3) == 0
        assert run("verify", f"{first}.nowcast.rvol", f"{first}.rvol") == 0
        svgs = sorted(tmp_path.rglob("*.svg"))
        assert len(svgs) == 8
        for svg in svgs:
            ElementTree.parse(svg)
        csvs = sorted(tmp_path.rglob("*.csv"))
        assert len(svgs) + len(csvs) >= 20
        for path in csvs:
            with path.open(newline="") as fh:
                header, *rows = csv.reader(fh)
            assert all(len(row) == len(header) for row in rows), path.name
        ids = {}
        for name in ("outliers.csv", "coverage_vs_corr_samples.csv"):
            with (out / name).open(newline="") as fh:
                ids[name] = [r["sample_id"] for r in csv.DictReader(fh)]
        assert ids["coverage_vs_corr_samples.csv"] == stems
        assert ids["outliers.csv"] and set(ids["outliers.csv"]) <= set(stems)

    def test_motion_corr_without_finite_correlation_writes_monthly_report(
            self, tmp_path):
        # echo-free volumes leave every correlation NaN
        for i in range(2):
            path = tmp_path / f"202106{10 + i:02d}_1200.rvol"
            write_rvol(path, RadarVolume(
                data=np.full((3, 2, 12, 12), NO_ECHO_DBZ),
                z_levels=np.array([1000.0, 2000.0])))
            write_motion(path.with_suffix(".truth.rmf"),
                         MotionField(np.zeros((2, 2, 12, 12))))
        out = tmp_path / "report"
        assert run("analyze", tmp_path, "--which", "motion-corr",
                   "--level-pair", "0,1", "-o", out) == 0
        assert (out / "motion_corr_monthwise.csv").read_text() == \
            "month,q1,median,q3,lo_whisker,hi_whisker,count,outliers\n"
        svg = ElementTree.parse(out / "motion_corr_monthwise.svg")
        assert [t.text for t in svg.iter("{http://www.w3.org/2000/svg}text")] \
            == ["no data"]


@pytest.fixture(scope="module", params=[False, True], ids=["f32", "u8"])
def corpus_dir(request, tmp_path_factory):
    d = tmp_path_factory.mktemp("corpus")
    _corpus(d, 3, quantize=request.param)
    return d


class TestAnalyzeEqualsWholeVolumeReferences:
    """Every analyze report, read one frame at a time, equals the one its
    library function gives on whole-volume reads. The first volume's
    invalid cells lie only in its last frame."""

    @pytest.fixture
    def refs(self, corpus_dir, tmp_path):
        from voxflow import cli
        files = cli._dataset(corpus_dir)
        vols = [read_rvol(p) for p, _, _ in files]
        assert vols[0].mask.sum() < vols[1].mask.sum()
        return files, vols, [read_motion(cli._motion_file(p)) for p, _, _ in files]

    def _same(self, corpus_dir, tmp_path, which, expected):
        assert run("analyze", corpus_dir, "--which", which,
                   "-o", tmp_path / "got") == 0
        for name in expected:
            assert (tmp_path / "got" / name).read_bytes() == \
                (tmp_path / name).read_bytes(), name

    def test_ratios(self, corpus_dir, tmp_path, refs):
        from voxflow import analysis, cli
        files, vols, _ = refs
        thresholds = analysis.RAINY_THRESHOLDS_DBZ
        ratios = [analysis.rainy_ratio(v, thresholds) for v in vols]
        mean = np.mean(ratios, axis=0)
        cli._write_csv(tmp_path / "rainy_ratios.csv",
                       ["level", "threshold_dbz", "fraction"],
                       [[z, cli._fmt(thr), float(mean[z, j])]
                        for z in range(4) for j, thr in enumerate(thresholds)])
        cli._write_boxstats(tmp_path, "rainy_ratio_monthwise",
                            [float(r[0, 1]) for r in ratios],
                            [ts for _, _, ts in files], "", "")
        self._same(corpus_dir, tmp_path, "ratios",
                   ["rainy_ratios.csv", "rainy_ratio_monthwise.csv"])

    def test_refl_corr(self, corpus_dir, tmp_path, refs):
        from voxflow import analysis, cli
        _, vols, _ = refs
        mat = analysis.reflectivity_corr_matrix(vols)
        assert np.isfinite(mat).all()
        cli._write_matrix(tmp_path / "reflectivity_corr.csv", mat)
        self._same(corpus_dir, tmp_path, "refl-corr", ["reflectivity_corr.csv"])

    def test_motion_corr(self, corpus_dir, tmp_path, refs):
        from voxflow import analysis, cli
        files, vols, mfs = refs
        for component in ("both", "u", "v"):
            cli._write_matrix(tmp_path / f"motion_corr_{component}.csv",
                              analysis.motion_corr_matrix(mfs, vols, component))
        cli._write_boxstats(tmp_path, "motion_corr_monthwise",
                            [analysis.motion_pair_corr(mf, v, 0, 2)
                             for mf, v in zip(mfs, vols)],
                            [ts for _, _, ts in files], "", "")
        self._same(corpus_dir, tmp_path, "motion-corr",
                   [f"motion_corr_{c}.csv" for c in ("both", "u", "v")]
                   + ["motion_corr_monthwise.csv"])

    @pytest.mark.parametrize("pair", [None, "0,0", "1,0"])
    def test_motion_corr_monthwise_is_each_samples_pair_corr(
            self, corpus_dir, tmp_path, refs, pair):
        from voxflow import analysis, cli
        files, vols, mfs = refs
        low, mid = (0, 2) if pair is None else map(int, pair.split(","))
        corrs = [analysis.sample_pair_corr(analysis.motion_sample(mf, v),
                                           low, mid)
                 for mf, v in zip(mfs, vols)]
        finite = [(c, ts) for c, (_, _, ts) in zip(corrs, files)
                  if np.isfinite(c)]
        assert finite
        cli._write_boxstats(tmp_path, "motion_corr_monthwise",
                            [c for c, _ in finite], [ts for _, ts in finite],
                            "", "")
        flags = () if pair is None else ("--level-pair", pair)
        assert run("analyze", corpus_dir, "--which", "motion-corr", *flags,
                   "-o", tmp_path / "got") == 0
        assert (tmp_path / "got" / "motion_corr_monthwise.csv").read_bytes() \
            == (tmp_path / "motion_corr_monthwise.csv").read_bytes()

    def _pair_samples(self, refs):
        from voxflow import analysis
        files, vols, mfs = refs
        return [analysis.OutlierSample(
                    stem, ts, analysis.coverage_ratio(v),
                    analysis.motion_pair_corr(mf, v, 0, 2))
                for (_, stem, ts), v, mf in zip(files, vols, mfs)]

    def test_histogram(self, corpus_dir, tmp_path, refs):
        from voxflow import cli
        samples = self._pair_samples(refs)
        assert all(0.0 < s.coverage < 1.0 for s in samples)
        cli._write_csv(tmp_path / "coverage_vs_corr_samples.csv",
                       ["sample_id", "timestamp", "coverage", "correlation"],
                       [[s.sample_id, s.timestamp.isoformat(), s.coverage,
                         s.correlation] for s in samples])
        self._same(corpus_dir, tmp_path, "histogram",
                   ["coverage_vs_corr_samples.csv"])

    def test_outliers(self, corpus_dir, tmp_path, refs):
        from voxflow import analysis, cli
        samples = self._pair_samples(refs)
        ranked = analysis.rank_outliers(samples)
        by_id = {s.sample_id: s for s in samples}
        cli._write_csv(tmp_path / "outliers.csv",
                       ["rank", "sample_id", "timestamp", "coverage",
                        "correlation"],
                       [[rank + 1, sid, by_id[sid].timestamp.isoformat(),
                         by_id[sid].coverage, by_id[sid].correlation]
                        for rank, sid in enumerate(ranked.ids)])
        self._same(corpus_dir, tmp_path, "outliers", ["outliers.csv"])

    def test_split(self, corpus_dir, tmp_path, refs):
        files, vols, _ = refs
        for (_, stem, _), vol in zip(files, vols):
            _write_split_reference(tmp_path / f"{stem}_split.csv", vol)
        self._same(corpus_dir, tmp_path, "split",
                   [f"{stem}_split.csv" for _, stem, _ in files])


def _write_split_reference(path: Path, vol: RadarVolume) -> None:
    """The _split.csv of the rain-rate split, where analyze thresholds the
    stored dBZ at transform.dbz_reaching: every frame converted to mm/h,
    then counted."""
    from voxflow import analysis, cli
    diag = analysis.cell_split_diagnostic(
        [volume_to_rain(vol, t) for t in range(vol.shape[0])])
    cli._write_csv(path, ["lead", "cmax_components", "level_components",
                          "cmax_rainy_cells"],
                   [[li, n, ";".join(str(c) for c in counts), cells]
                    for li, (n, counts, cells) in enumerate(zip(
                        diag.cmax_counts, diag.level_counts,
                        diag.cmax_rainy_cells))])


class TestAnalyzeAtTheCorpusShape:
    """The six analyze commands on the seed-1 corpus_analyze inputs write
    the bytes of references formed pair by pair: refl-corr,
    motion_corr_{both,u,v} and motion_corr_monthwise.csv with each pair's
    samples gathered and centred on their own, where analyze centres each
    level once per frame and joint mask, gathers each pair once for all
    three components and takes each sample's low/mid r from
    sample_pair_corr; every *_split.csv from the rain-rate split."""

    def test_reports_equal_the_pair_by_pair_references(self, corpus_inputs,
                                                       tmp_path):
        from voxflow import analysis, cli
        got, ref = tmp_path / "got", tmp_path / "ref"
        ref.mkdir()
        for which in _ANALYSES:
            assert run("analyze", corpus_inputs, "--which", which,
                       "-o", got) == 0
        files = cli._dataset(corpus_inputs)
        vols = [read_rvol(p) for p, _, _ in files]
        mfs = [read_motion(p.with_suffix(".truth.rmf")) for p, _, _ in files]
        echoes = [((v.data > NO_ECHO_DBZ) & np.isfinite(v.data)).any(0)
                  for v in vols]

        def motion_r(k, i, j, component):
            # the pair's region and gathers formed anew for each component
            mask = vols[k].mask
            region = (echoes[k][i] | echoes[k][j]) & mask[i] & mask[j]
            (ui, vi), (uj, vj) = mfs[k].level(i), mfs[k].level(j)
            a, b = {"u": (ui[region], uj[region]),
                    "v": (vi[region], vj[region]),
                    "both": (np.concatenate([ui[region], vi[region]]),
                             np.concatenate([uj[region], vj[region]]))
                    }[component]
            return analysis._pearson(a, b) if region.sum() >= 2 \
                else float("nan")

        z = vols[0].shape[1]
        cli._write_matrix(ref / "reflectivity_corr.csv", _ref_refl_corr(vols))
        for component in ("both", "u", "v"):
            cli._write_matrix(
                ref / f"motion_corr_{component}.csv", analysis.pair_mean(z, [
                    (i, j, motion_r(k, i, j, component))
                    for k in range(len(vols))
                    for i, j in combinations(range(z), 2)]))
        # analyze's default level pair (0, 2) of every sample with a
        # finite r; only the .csv is compared, so the .svg is left aside
        finite = [(r, ts) for r, (_, _, ts) in zip(
                      [motion_r(k, 0, 2, "both") for k in range(len(vols))],
                      files) if np.isfinite(r)]
        cli._write_boxstats(tmp_path, "motion_corr_monthwise",
                            [r for r, _ in finite], [ts for _, ts in finite],
                            "", "")
        (tmp_path / "motion_corr_monthwise.csv").rename(
            ref / "motion_corr_monthwise.csv")
        for (_, stem, _), vol in zip(files, vols):
            _write_split_reference(ref / f"{stem}_split.csv", vol)
        names = sorted(p.name for p in ref.iterdir())
        assert len(names) == 5 + len(files)
        for name in names:
            assert (got / name).read_bytes() == (ref / name).read_bytes(), \
                name


@pytest.fixture(scope="module")
def file_runs(tmp_path_factory):
    """A corpus of two small volumes with their motions, and a two-lead
    forecast of the first beside the corpus, for runs whose arguments come
    from flags or from an @FILE."""
    d = tmp_path_factory.mktemp("argfile")
    (d / "corpus").mkdir()
    for i, stem in enumerate(("20210610_1200", "20210711_1200")):
        _small_volume(d / "corpus" / f"{stem}.rvol", seed=i)
    vol = d / "corpus" / "20210610_1200.rvol"
    assert run("nowcast", vol, vol.with_suffix(".truth.rmf"), "-k", "2",
               "--start-frame", "3", "-o", d / "fc.rvol") == 0
    return d


def _file_argv(command: str, d: Path, out: Path) -> tuple[list, list]:
    """(positional arguments, options one per list) of a run of command on
    the file_runs data in d that writes into the directory out."""
    vol = d / "corpus" / "20210610_1200.rvol"
    return {
        "synth": ([], [["--preset", "noisy"], ["--seed", "3"],
                       ["--frames", "2"], ["--quantize"],
                       ["-o", out / "s.rvol"]]),
        "estimate": ([vol], [["--mode", "2d-cmax"], ["--inputs", "3"],
                             ["--scales", "1,2"], ["--denoise"],
                             ["-o", out / "m.rmf"]]),
        "nowcast": ([vol, vol.with_suffix(".truth.rmf")],
                    [["-k", "2"], ["--start-frame", "3"],
                     ["-o", out / "fc.rvol"]]),
        "verify": ([d / "fc.rvol", vol],
                   [["--offset", "3"], ["-o", out / "m.csv"]]),
        "analyze": ([d / "corpus"], [["--which", "motion-corr"],
                                     ["--level-pair", "1,0"], ["-o", out]]),
    }[command]


#: a value of each command's first _file_argv option that writes other
#: bytes than the one _file_argv gives
_DECOYS = {"synth": ["--preset", "shear2"], "estimate": ["--mode", "3d"],
           "nowcast": ["-k", "3"], "verify": ["--offset", "2"],
           "analyze": ["--which", "ratios"]}


def _written(out: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in out.iterdir()}


class TestArgumentFile:
    """An argument @FILE stands for the arguments on FILE's lines, split as
    a shell splits words, with # comments skipped."""

    @pytest.mark.parametrize("command", sorted(_DECOYS))
    def test_options_in_a_file_write_the_flag_runs_bytes(
            self, file_runs, tmp_path, command):
        # "file" and "earlier" hold every option, "decoy" and "override" a
        # decoy for the first; "earlier" gives the decoy before @FILE and
        # "override" the first option after it
        written = {}
        for how in ("flags", "file", "earlier", "decoy", "override"):
            (tmp_path / how).mkdir()
            positionals, options = _file_argv(command, file_runs,
                                              tmp_path / how)
            decoy = _DECOYS[command]
            args = tmp_path / f"{how}.args"
            lines = [decoy] + options[1:] if how in ("decoy", "override") \
                else options
            args.write_text("".join(shlex.join(map(str, line)) + "\n"
                                    for line in lines))
            argv = {"flags": sum(options, []), "file": [f"@{args}"],
                    "earlier": decoy + [f"@{args}"], "decoy": [f"@{args}"],
                    "override": [f"@{args}"] + options[0]}[how]
            assert run(command, *positionals, *argv) == 0
            written[how] = _written(tmp_path / how)
        assert written["flags"]
        assert written["decoy"] != written["flags"]
        for how in ("file", "earlier", "override"):
            assert written[how] == written["flags"], how

    def test_comments_blank_lines_quotes_and_nested_files(self, file_runs,
                                                          tmp_path):
        vol = file_runs / "corpus" / "20210610_1200.rvol"
        motion = vol.with_suffix(".truth.rmf")
        spaced = tmp_path / "out dir"
        spaced.mkdir()
        nested = tmp_path / "nested.args"
        nested.write_text(f'-o "{spaced}/fc 1.rvol"  # a path with spaces\n')
        args = tmp_path / "n.args"
        args.write_text(f"# two leads from frame 3\n\n-k 2   # leads\n   \n"
                        f"--start-frame 3\n@{nested}\n")
        assert run("nowcast", vol, motion, f"@{args}") == 0
        assert run("nowcast", vol, motion, "-k", "2", "--start-frame", "3",
                   "-o", tmp_path / "flags.rvol") == 0
        assert (spaced / "fc 1.rvol").read_bytes() == \
            (tmp_path / "flags.rvol").read_bytes()

    @pytest.mark.parametrize("name, content, code, message", [
        pytest.param("missing", None, 2, r"voxflow: error: \[Errno 2\] "
                     r"No such file or directory: 'missing'", id="missing"),
        pytest.param("directory", "", 2, r"voxflow: error: \[Errno \d+\] "
                     r"Is a directory: 'directory'", id="directory"),
        # decoded as UTF-8: the child runs in UTF-8 mode
        pytest.param("non_utf8", b"--frames \xff\n", 1,
                     r"error: @FILE is not text: 'utf-8' codec can't decode "
                     r"byte 0xff in position 9: invalid start byte",
                     id="non_utf8"),
        pytest.param("unclosed_quote", b'-o "s.rvol\n', 1,
                     r"error: @FILE line '-o \"s\.rvol': No closing "
                     r"quotation", id="unclosed_quote"),
        pytest.param("names_itself", b"@names_itself\n", 1,
                     r"error: @FILE arguments nest too deeply",
                     id="names_itself"),
    ])
    def test_unreadable_file_is_one_error_line(self, tmp_path, name, content,
                                               code, message):
        if content == "":
            (tmp_path / name).mkdir()
        elif content is not None:
            (tmp_path / name).write_bytes(content)
        child = run_limited("synth", "--preset", "uniform", "-o", "s.rvol",
                            f"@{name}", cwd=tmp_path, PYTHONUTF8="1")
        assert child.returncode == code
        assert "Traceback" not in child.stderr
        errors = [line for line in child.stderr.splitlines()
                  if "error:" in line]
        assert errors == child.stderr.splitlines()[-1:], child.stderr
        assert re.fullmatch(message, errors[0]), errors
        assert not (tmp_path / "s.rvol").exists()


class TestReadmePipeline:
    """The README's command-line pipeline as written, each command in its
    own process with the run directory as datadir; then estimate, nowcast,
    verify and analyze again with their options in @FILE argument files,
    which must write the same bytes; then the README's diagnostic fit over
    all 24 frames. The removed --use-future and --config are usage errors
    (exit 2)."""

    def test_commands_as_written(self, tmp_path):
        def voxflow(*args, code=0):
            child = run_limited(*args, cwd=tmp_path)
            assert child.returncode == code, (args, child.stderr)

        voxflow("synth", "--preset", "shear2", "-o", "s.rvol", "--seed", "42")
        voxflow("estimate", "s.rvol", "--mode", "3d", "--inputs", "8",
                "-o", "s.rmf")
        voxflow("nowcast", "s.rvol", "s.rmf", "-k", "16", "--start-frame", "7",
                "-o", "s.nowcast.rvol")
        voxflow("verify", "s.nowcast.rvol", "s.rvol", "-o", "s.metrics.csv")
        voxflow("analyze", tmp_path, "--which", "motion-corr",
                "--level-pair", "0,1")
        for command, options in (
                ("estimate", "--mode 3d\n--inputs 8\n"),
                ("nowcast", "-k 16\n--start-frame 7\n"),
                ("verify", "--offset 8\n"),
                ("analyze", "--which motion-corr\n--level-pair 0,1\n")):
            (tmp_path / f"{command}.args").write_text(options)
        voxflow("estimate", "s.rvol", "@estimate.args", "-o", "args.rmf")
        voxflow("nowcast", "s.rvol", "s.rmf", "@nowcast.args",
                "-o", "args.nowcast.rvol")
        voxflow("verify", "s.nowcast.rvol", "s.rvol", "@verify.args",
                "-o", "args.metrics.csv")
        voxflow("analyze", tmp_path, "@analyze.args", "-o", "args_report")
        report = sorted((tmp_path / "args_report").iterdir())
        assert report
        for flags, args in [("s.rmf", "args.rmf"),
                            ("s_trace.csv", "args_trace.csv"),
                            ("s.nowcast.rvol", "args.nowcast.rvol"),
                            ("s.metrics.csv", "args.metrics.csv"),
                            *((f.name, f"args_report/{f.name}")
                              for f in report)]:
            assert (tmp_path / flags).read_bytes() == \
                (tmp_path / args).read_bytes(), flags
        voxflow("estimate", "s.rvol", "--mode", "3d", "--inputs", "24",
                "-o", "fit.rmf")
        voxflow("estimate", "s.rvol", "--use-future", "-o", "gone.rmf", code=2)
        voxflow("estimate", "s.rvol", "--config", "x", code=2)


#: each command's arguments by dest, in parser order; a value the library
#: already holds has no option (README "Fixed constants")
_SURFACE = {
    "synth": ["preset", "out", "seed", "frames", "crop_scale", "quantize"],
    "estimate": ["volume", "mode", "out", "inputs", "scales", "denoise"],
    "nowcast": ["volume", "motion", "leads", "out", "start_frame"],
    "verify": ["forecast", "truth", "out", "offset"],
    "analyze": ["directory", "which", "outdir", "level_pair"],
}


def _subcommands() -> dict[str, argparse.ArgumentParser]:
    """Each subcommand's parser, taken from the parser's subparsers
    action."""
    return next(a.choices for a in build_parser()._actions
                if isinstance(a, argparse._SubParsersAction))


class TestCommandSurface:
    def test_each_command_has_exactly_its_listed_arguments(self, capsys):
        assert {command: [a.dest for a in sub._actions
                          if not isinstance(a, argparse._HelpAction)]
                for command, sub in _subcommands().items()} == _SURFACE
        for command in _SURFACE:
            with pytest.raises(SystemExit) as err:
                run(command, "--help")
            assert err.value.code == 0
            assert capsys.readouterr().out.startswith(
                f"usage: voxflow {command}")


class TestErrors:
    @pytest.mark.parametrize("argv, form", [
        _case("argv0",
              ("analyze", "d", "--which", "motion-corr", "--level-pair", "1"),
              "two comma-separated indices such as 0,2"),
        _case("argv1",
              ("analyze", "d", "--which", "histogram", "--level-pair", "a,b"),
              "two comma-separated indices such as 0,2"),
        _case("argv2", ("estimate", "v.rvol", "--scales", "0"),
              "comma-separated integers such as 1,2,4"),
        _case("argv3", ("estimate", "v.rvol", "--scales", "x"),
              "comma-separated integers such as 1,2,4"),
        _case("argv4", ("estimate", "v.rvol", "--scales", "-2"),
              "comma-separated integers such as 1,2,4"),
        _case("argv5", ("estimate", "v.rvol", "--scales", "1,0"),
              "comma-separated integers such as 1,2,4"),
        _case("argv6", ("estimate", "v.rvol", "--inputs", "1"),
              "an integer in [2, 100000]"),
        _case("argv7", ("estimate", "v.rvol", "--inputs", "-5"),
              "an integer in [2, 100000]"),
        _case("argv8",
              ("synth", "--preset", "uniform", "-o", "x.rvol", "--frames", "0"),
              "an integer in [1, 100000]"),
        _case("argv9",
              ("synth", "--preset", "uniform", "-o", "x.rvol", "--frames", "-2"),
              "an integer in [1, 100000]"),
        _case("argv10",
              ("synth", "--preset", "uniform", "-o", "x.rvol", "--frames",
               "100001"), "an integer in [1, 100000]"),
        # options that no longer exist; form is the whole last line
        _case("argv11", ("estimate", "v.rvol", "--mode", "lk"),
              re.compile(r"voxflow estimate: error: argument --mode: invalid "
                         r"choice: 'lk' \(choose from .*3d.*2d-cmax.*\)")),
        _case("argv12", ("estimate", "v.rvol", "--window", "5"),
              re.compile(r"voxflow: error: unrecognized arguments: "
                         r"--window 5")),
        _case("argv13", ("estimate", "v.rvol", "--step", "0.5"),
              re.compile(r"voxflow: error: unrecognized arguments: "
                         r"--step 0.5")),
        _case("argv14", ("estimate", "v.rvol", "--momentum", "0.9"),
              re.compile(r"voxflow: error: unrecognized arguments: "
                         r"--momentum 0.9")),
        _case("argv15", ("estimate", "v.rvol", "--levels", "2"),
              re.compile(r"voxflow: error: unrecognized arguments: "
                         r"--levels 2")),
        _case("argv16", ("estimate", "v.rvol", "--criterion", "mae"),
              re.compile(r"voxflow: error: unrecognized arguments: "
                         r"--criterion mae")),
        _case("argv17", ("estimate", "v.rvol", "--iters", "5"),
              re.compile(r"voxflow: error: unrecognized arguments: "
                         r"--iters 5")),
        _case("argv18", ("estimate", "v.rvol", "--beta", "0.2"),
              re.compile(r"voxflow: error: unrecognized arguments: "
                         r"--beta 0.2")),
        _case("argv19",
              ("verify", "f.rvol", "t.rvol", "--thresholds", "1,5,10"),
              re.compile(r"voxflow: error: unrecognized arguments: "
                         r"--thresholds 1,5,10")),
        _case("argv20",
              ("analyze", "d", "--which", "ratios", "--thresholds-dbz", "0,20"),
              re.compile(r"voxflow: error: unrecognized arguments: "
                         r"--thresholds-dbz 0,20")),
        _case("argv21",
              ("analyze", "d", "--which", "split", "--threshold", "1"),
              re.compile(r"voxflow: error: unrecognized arguments: "
                         r"--threshold 1")),
        _case("argv22",
              ("analyze", "d", "--which", "histogram", "--coverage-dbz", "20"),
              re.compile(r"voxflow: error: unrecognized arguments: "
                         r"--coverage-dbz 20")),
        _case("argv23",
              ("analyze", "d", "--which", "outliers", "--gap-minutes", "60"),
              re.compile(r"voxflow: error: unrecognized arguments: "
                         r"--gap-minutes 60")),
        _case("argv24",
              ("analyze", "d", "--which", "outliers", "--top-k", "3"),
              re.compile(r"voxflow: error: unrecognized arguments: "
                         r"--top-k 3")),
        _case("argv25",
              ("analyze", "d", "--which", "histogram", "--bins", "20"),
              re.compile(r"voxflow: error: unrecognized arguments: "
                         r"--bins 20")),
        _case("argv26", ("estimate", "v.rvol", "--use-future"),
              re.compile(r"voxflow: error: unrecognized arguments: "
                         r"--use-future")),
        _case("argv27", ("estimate", "v.rvol", "--trace", "t.csv"),
              re.compile(r"voxflow: error: unrecognized arguments: "
                         r"--trace t.csv")),
        # the removed config file: its arguments are an @FILE now
        _case("argv28", ("estimate", "v.rvol", "--config", "x"),
              re.compile(r"voxflow: error: unrecognized arguments: "
                         r"--config x")),
    ])
    @pytest.mark.parametrize("through_file", [False, True],
                             ids=["flags", "file"])
    def test_malformed_list_is_usage_error(self, capsys, tmp_path, argv, form,
                                           through_file):
        # through a file, the arguments after the subcommand are its one line
        args = tmp_path / "a.args"
        args.write_text(shlex.join(argv[1:]) + "\n")
        with pytest.raises(SystemExit) as err:
            run(*(argv[:1] + (f"@{args}",) if through_file else argv))
        assert err.value.code == 2
        lines = capsys.readouterr().err.strip().splitlines()
        assert lines[0].startswith("usage: voxflow")
        if isinstance(form, re.Pattern):
            assert form.fullmatch(lines[-1]), lines[-1]
        else:
            assert lines[-1] == (f"voxflow {argv[0]}: error: argument "
                                 f"{argv[-2]}: expected {form}, "
                                 f"got {argv[-1]!r}")

    def test_memory_error_is_one_error_line(self, monkeypatch, capsys):
        def exhausted(path):
            raise MemoryError("Unable to allocate 7.28 TiB for an array")
        monkeypatch.setattr("voxflow.cli.rvol.RvolReader", exhausted)
        assert run("nowcast", "v.rvol", "m.rmf", "-k", "2") == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["error: out of memory: Unable to allocate 7.28 TiB "
                       "for an array"]

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

    @pytest.mark.parametrize("argv", [
        ("synth", "--preset", "uniform", "--crop-scale"),
        ("estimate", "v.rvol"),
        ("nowcast", "v.rvol", "m.rmf", "-k", "2"),
        ("verify", "f.rvol", "t.rvol"),
    ], ids=lambda argv: argv[0])
    def test_output_in_a_missing_directory_fails_before_the_work(
            self, tmp_path, monkeypatch, capsys, argv):
        def refuse(*args, **kwargs):
            raise AssertionError("the command began its work")
        monkeypatch.setattr("voxflow.cli.generate", refuse)
        monkeypatch.setattr("voxflow.cli.rvol.RvolReader", refuse)
        out = tmp_path / "missing" / "x.out"
        assert run(*argv, "-o", out) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: [Errno 2] No such file or directory: '{out}'"]

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


#: the error line's text after "error: <path>: "
_BEYOND_FLOAT32 = ("a valid rain rate is beyond float32's range "
                   "(reflectivity above about 639.5 dBZ)")


def _hot_volume(path: Path, dbz: float, frame: int) -> None:
    """_small_volume at path with one valid cell of frame set to dbz."""
    _small_volume(path)
    vol = read_rvol(path)
    data = vol.data.copy()
    data[frame, 0, 12, 12] = dbz
    write_rvol(path, RadarVolume(data=data, z_levels=vol.z_levels))


def _run_quietly(*args) -> int:
    """run(*args), asserting that it emits no RuntimeWarning."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run(*args)
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    return code


#: the least float32 reflectivity whose rain rate float32 cannot hold
_F32_EDGE = float(dbz_reaching(F32_OVERFLOW_MMH))


@pytest.mark.parametrize("dbz", [1e30, 640.0, _F32_EDGE])
class TestRatesBeyondFloat32:
    """A valid cell whose rain rate float32 cannot hold ends every command
    that converts frames to rain rate in one error line, exit 1 and no
    RuntimeWarning, before the affected output is written."""

    def test_estimate(self, tmp_path, capsys, dbz):
        vol, out = tmp_path / "v.rvol", tmp_path / "v.rmf"
        _hot_volume(vol, dbz, frame=1)
        assert _run_quietly("estimate", vol, "--inputs", "2", "--scales", "1",
                            "-o", out) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: {vol}: {_BEYOND_FLOAT32}"]
        assert not out.exists() and not (tmp_path / "v_trace.csv").exists()

    def test_nowcast(self, tmp_path, capsys, dbz):
        vol, fc = tmp_path / "v.rvol", tmp_path / "fc.rvol"
        _hot_volume(vol, dbz, frame=3)
        assert _run_quietly("nowcast", vol, vol.with_suffix(".truth.rmf"),
                            "-k", "2", "--start-frame", "3", "-o", fc) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: {vol}: {_BEYOND_FLOAT32}"]
        assert not fc.exists()

    def test_verify(self, tmp_path, capsys, dbz):
        truth, fc = tmp_path / "t.rvol", tmp_path / "fc.rvol"
        _hot_volume(truth, dbz, frame=5)
        clean = read_rvol(truth)
        write_rvol(fc, RadarVolume(data=clean.data[2:4],
                                   z_levels=clean.z_levels))
        out = tmp_path / "m.csv"
        assert _run_quietly("verify", fc, truth, "-o", out) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: {truth}: {_BEYOND_FLOAT32}"]
        assert not out.exists()

    def test_analyze_split(self, tmp_path, capsys, dbz):
        d = tmp_path / "corpus"
        d.mkdir()
        vol = d / "v.rvol"
        _hot_volume(vol, dbz, frame=2)
        assert _run_quietly("analyze", d, "--which", "split",
                            "-o", tmp_path / "r") == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: {vol}: {_BEYOND_FLOAT32}"]
        assert not (tmp_path / "r" / "v_split.csv").exists()


#: altitudes of _small_volume's two levels that no writer stores
_UNWRITTEN_ALTITUDES = [[-np.inf, 2000.0], [1000.0, np.inf], [np.nan, 2000.0]]


def _unwritten_volume(path: Path, levels) -> str:
    """_small_volume at path with a rho_hv of 1, changed as no writer writes
    it: its altitudes set to levels or, where levels is None, the first
    RHOH code of every frame set to 255. Returns the error line a reader
    gives it."""
    _small_volume(path)
    vol = read_rvol(path)
    write_rvol(path, RadarVolume(data=vol.data, z_levels=vol.z_levels,
                                 rho_hv=np.ones(vol.shape)))
    raw = bytearray(path.read_bytes())
    if levels is None:
        rho = len(raw) - vol.data.size  # the RHOH codes end the file
        raw[rho::vol.data[0].size] = bytes([255] * vol.shape[0])
        error = "error: rho_hv: code 255 is above 200"
    else:
        raw[26:34] = struct.pack("<2f", *levels)  # after the 26-byte header
        error = ("error: altitudes: z_levels must be finite and strictly "
                 "increasing")
    path.write_bytes(bytes(raw))
    return error


@pytest.mark.parametrize("levels", [*_UNWRITTEN_ALTITUDES, None], ids=str)
class TestVolumesNoWriterWrites:
    """Altitudes or RHOH codes that no writer stores end each command that
    reads them in exit 1 and one error line, before any output is
    written."""

    def test_estimate(self, tmp_path, capsys, levels):
        vol, out = tmp_path / "v.rvol", tmp_path / "v.rmf"
        error = _unwritten_volume(vol, levels)
        assert run("estimate", vol, "--denoise", "--inputs", "2",
                   "--scales", "1", "-o", out) == 1
        assert capsys.readouterr().err.splitlines() == [error]
        assert not out.exists() and not (tmp_path / "v_trace.csv").exists()

    def test_nowcast(self, tmp_path, capsys, levels):
        vol, fc = tmp_path / "v.rvol", tmp_path / "fc.rvol"
        error = _unwritten_volume(vol, levels)
        assert run("nowcast", vol, vol.with_suffix(".truth.rmf"), "-k", "2",
                   "-o", fc) == 1
        assert capsys.readouterr().err.splitlines() == [error]
        assert not fc.exists()

    def test_analyze(self, tmp_path, capsys, levels):
        d = tmp_path / "corpus"
        d.mkdir()
        error = _unwritten_volume(d / "v.rvol", levels)
        assert run("analyze", d, "--which", "split",
                   "-o", tmp_path / "r") == 1
        assert capsys.readouterr().err.splitlines() == [error]
        assert not (tmp_path / "r" / "v_split.csv").exists()


@pytest.mark.parametrize("levels", _UNWRITTEN_ALTITUDES, ids=str)
def test_verify_of_altitudes_no_writer_writes(tmp_path, capsys, levels):
    # verify pools the stored reflectivity and reads no RHOH code
    vol, out = tmp_path / "v.rvol", tmp_path / "m.csv"
    error = _unwritten_volume(vol, levels)
    clean = tmp_path / "clean.rvol"
    _small_volume(clean)
    assert run("verify", clean, vol, "-o", out) == 1
    assert run("verify", vol, clean, "-o", out) == 1
    assert capsys.readouterr().err.splitlines() == [error, error]
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["verify", "clean.rvol", "v.rvol"], ["verify", "v.rvol", "clean.rvol"],
    *(["nowcast", "v.rvol", motion, "-k", "2", "--start-frame", start]
      for motion in ("clean.truth.rmf", "one.rmf") for start in ("0", "5")),
], ids=["verify-truth", "verify-forecast", "nowcast-levels-first",
        "nowcast-levels-last", "nowcast-cmax-first", "nowcast-cmax-last"])
def test_rhoh_code_of_the_last_frame_ends_every_read(tmp_path, capsys, argv):
    # the first read of a volume checks the RHOH codes of every frame,
    # whether it decodes a frame (the per-level nowcast) or pools one to
    # its column maximum on the stored values (verify, and nowcast with a
    # one-level motion)
    _small_volume(tmp_path / "clean.rvol")
    clean = read_rvol(tmp_path / "clean.rvol")
    vol = tmp_path / "v.rvol"
    write_rvol(vol, RadarVolume(data=clean.data, z_levels=clean.z_levels,
                                rho_hv=np.ones(clean.shape)))
    raw = bytearray(vol.read_bytes())
    raw[-1] = 255  # the RHOH codes end the file
    vol.write_bytes(bytes(raw))
    write_motion(tmp_path / "one.rmf", MotionField.zero(1, 24, 24))
    out = tmp_path / "out"
    assert run(*[tmp_path / a if a.endswith(("rvol", "rmf")) else a
                 for a in argv], "-o", out) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: rho_hv: code 255 is above 200"]
    assert not out.exists()


def test_nowcast_takes_the_largest_rates_float32_holds(tmp_path):
    # 639 dBZ is about 3.2e38 mm/h, inside float32's range: it is advected
    # and written back as about 639 dBZ
    vol, fc = tmp_path / "v.rvol", tmp_path / "fc.rvol"
    _hot_volume(vol, 639.0, frame=3)
    zero = tmp_path / "zero.rmf"
    write_motion(zero, MotionField.zero(2, 24, 24))
    assert _run_quietly("nowcast", vol, zero, "-k", "2", "--start-frame", "3",
                        "-o", fc) == 0
    assert read_rvol(fc).data[:, 0, 12, 12] == pytest.approx([639.0] * 2,
                                                              abs=1e-3)


def test_every_command_takes_the_float32_below_the_edge(tmp_path):
    # one float32 ulp below _F32_EDGE the rate still rounds to a finite
    # float32: each command that refuses the edge runs
    below = float(np.nextafter(np.float32(_F32_EDGE), np.float32(0)))
    d = tmp_path / "corpus"
    d.mkdir()
    vol = d / "v.rvol"
    _hot_volume(vol, below, frame=3)
    truth = vol.with_suffix(".truth.rmf")
    fc = tmp_path / "fc.rvol"
    for argv in (["estimate", vol, "--inputs", "4", "--scales", "1",
                  "-o", tmp_path / "v.rmf"],
                 ["nowcast", vol, truth, "-k", "2", "--start-frame", "3",
                  "-o", fc],
                 ["verify", fc, vol, "--offset", "2", "-o", tmp_path / "m.csv"],
                 ["analyze", d, "--which", "split", "-o", tmp_path / "r"]):
        assert _run_quietly(*argv) == 0, argv


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
import json
import sys
sys.modules["scipy"] = None  # any import of scipy now raises ImportError
import voxflow
import voxflow.cli

for argv in json.loads(sys.argv[1]):
    assert voxflow.cli.main(argv) == 0, argv
loaded = sorted(m for m, module in sys.modules.items()
                if m.split(".")[0] == "scipy" and module is not None)
assert not loaded, loaded
"""


class TestStartup:
    def test_commands_without_scipy_do_not_load_it(self, tmp_path):
        """With scipy blocked from import, a fresh process imports voxflow
        and runs synth of the noisy preset (f32 and 8-bit), estimate with
        --denoise (3d, 2d-cmax), estimate (3d, 2d-cmax), nowcast, verify,
        analyze motion-corr, analyze split and synth of a preset without
        speckle; then, on the whole seed-5 noisy preset, synth (f32 and
        8-bit), estimate --denoise of 8 inputs (3d, 2d-cmax), nowcast,
        verify and all six analyses. Every command returns 0, and the
        seed-5 files are those that write_rvol and write_motion write from
        the SciPy reference renderer of tests/test_synth.py."""
        data, out, d, ref = (tmp_path / n for n in ("data", "out", "d", "ref"))
        for directory in (data, out, d, ref):
            directory.mkdir()
        vol, truth = data / "20210610_1200.rvol", data / "20210610_1200.truth.rmf"
        _small_volume(vol)
        noisy = out / "noisy.rvol"
        argvs = [
            ["synth", "--preset", "noisy", "--frames", "3", "-o", noisy],
            ["synth", "--preset", "noisy", "--frames", "3", "--quantize",
             "-o", out / "noisy_u8.rvol"],
            ["estimate", noisy, "--mode", "3d", "--inputs", "3", "--scales",
             "1,2", "--denoise", "-o", out / "noisy_3d.rmf"],
            ["estimate", noisy, "--mode", "2d-cmax", "--inputs", "3",
             "--scales", "1,2", "--denoise", "-o", out / "noisy_2d.rmf"],
            ["estimate", vol, "--mode", "3d", "--inputs", "4",
             "--scales", "1,2", "-o", out / "3d.rmf"],
            ["estimate", vol, "--mode", "2d-cmax", "--inputs", "4",
             "--scales", "1,2", "-o", out / "2d.rmf"],
            ["nowcast", vol, truth, "-k", "2", "--start-frame", "3",
             "-o", out / "fc.rvol"],
            ["verify", out / "fc.rvol", vol, "-o", out / "metrics.csv"],
            ["analyze", data, "--which", "motion-corr", "--level-pair", "0,1",
             "-o", out],
            ["analyze", data, "--which", "split", "-o", out],
            ["synth", "--preset", "shear2", "--frames", "2",
             "-o", out / "s.rvol"],
            ["synth", "--preset", "noisy", "--seed", "5", "-o", d / "n.rvol"],
            ["synth", "--preset", "noisy", "--seed", "5", "--quantize",
             "-o", d / "q.rvol"],
            ["estimate", d / "n.rvol", "--mode", "3d", "--inputs", "8",
             "--denoise", "-o", d / "n.rmf"],
            ["estimate", d / "n.rvol", "--mode", "2d-cmax", "--inputs", "8",
             "--denoise", "-o", d / "cmax.rmf"],
            ["nowcast", d / "n.rvol", d / "n.rmf", "-k", "4", "--start-frame",
             "3", "-o", d / "n.nowcast.rvol"],
            ["verify", d / "n.nowcast.rvol", d / "n.rvol",
             "-o", d / "n.metrics.csv"],
            *(["analyze", d, "--which", which, "-o", d / "report"]
              for which in _ANALYSES)]
        src = Path(__file__).resolve().parents[1] / "src"
        child = subprocess.run(
            [sys.executable, "-c", _NO_SCIPY_CHILD,
             json.dumps([[str(a) for a in argv] for argv in argvs])],
            env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True,
            text=True, timeout=120)
        assert child.returncode == 0, child.stderr
        want, want_truth = _ref_generate(preset("noisy", seed=5))
        write_rvol(ref / "n.rvol", want)
        write_rvol(ref / "q.rvol", want, quantize=True)
        write_motion(ref / "truth.rmf", want_truth)
        for name, ref_name in (("n.rvol", "n.rvol"), ("q.rvol", "q.rvol"),
                               ("n.truth.rmf", "truth.rmf"),
                               ("q.truth.rmf", "truth.rmf")):
            assert (d / name).read_bytes() == (ref / ref_name).read_bytes(), \
                name


#: option and positional values that a careless or hostile caller passes
_HOSTILE = ["0", "-1", "1000000000000", "1e308", "nan", "inf", "", "abc",
            "@", "@missing"]


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
        "estimate": {"volume": vol, "out": "m.rmf", "scales": "1,2"},
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
    actions = [a for a in _subcommands()[command]._actions
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
    @pytest.mark.parametrize("command", sorted(_subcommands()))
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

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(digits=st.text("0123456789", min_size=12, max_size=12)
           | st.from_regex(r"\A[0-9]{4}(0[0-9]|1[0-3])([0-3][0-9])"
                           r"(2[0-4]|[01][0-9])[0-6][0-9]\Z"),
           sep=st.sampled_from(["", "_", "T", "-"]))
    def test_agrees_with_strptime(self, digits, sep):
        # the stem's fields as integers, or None where strptime refuses
        from datetime import datetime
        try:
            want = datetime.strptime(digits, "%Y%m%d%H%M")
        except ValueError:
            want = None
        stem = f"radar_{digits[:8]}{sep}{digits[8:]}_x"
        assert parse_stem_timestamp(stem) == want
        assert parse_stem_timestamp(digits) == want
        # digits of another script, which strptime's month field refuses
        other = digits.translate(str.maketrans("0123456789",
                                               "\u0660\u0661\u0662\u0663\u0664"
                                               "\u0665\u0666\u0667\u0668\u0669"))
        with pytest.raises(ValueError):
            datetime.strptime(other, "%Y%m%d%H%M")
        assert parse_stem_timestamp(other) is None

    def test_analyze_does_not_load_strptime(self, tmp_path):
        # datetime.strptime would load _strptime, calendar and locale
        d = tmp_path / "corpus"
        d.mkdir()
        _small_volume(d / "20210610_1200.rvol")
        code = ("import sys, voxflow.cli\n"
                "assert voxflow.cli.main(sys.argv[1:]) == 0\n"
                "assert '_strptime' not in sys.modules, 'strptime loaded'\n")
        src = Path(__file__).resolve().parents[1] / "src"
        child = subprocess.run(
            [sys.executable, "-c", code, "analyze", str(d), "--which",
             "outliers", "--level-pair", "0,1", "-o", str(tmp_path / "r")],
            env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True,
            text=True, timeout=120)
        assert child.returncode == 0, child.stderr


#: a child that runs python -m voxflow --help, then prints its thread
#: count and the three BLAS thread variables
_HELP_THREADS_CHILD = """
import json, os, runpy, sys
sys.argv = ["voxflow", "--help"]
try:
    runpy.run_module("voxflow", run_name="__main__", alter_sys=True)
except SystemExit:
    pass
print(json.dumps([len(os.listdir("/proc/self/task")),
                  *map(os.environ.get, ("OMP_NUM_THREADS",
                                        "OPENBLAS_NUM_THREADS",
                                        "MKL_NUM_THREADS"))]))
"""


class TestEntryPoint:
    """run() serves python -m voxflow.cli, and through voxflow.__main__
    python -m voxflow and the voxflow script: it freezes the import-time
    heap and exits with main()'s code; main() leaves the collector alone.
    voxflow.__main__ first gives each unset BLAS thread variable "1"."""

    def test_run_freezes_then_exits_with_mains_code(self, monkeypatch,
                                                    capsys):
        import gc
        import voxflow.cli
        events = []
        monkeypatch.setattr(gc, "freeze", lambda: events.append("freeze"))
        monkeypatch.setattr(voxflow.cli, "main",
                            lambda: events.append("main") or 3)
        with pytest.raises(SystemExit) as exit_:
            voxflow.cli.run()
        assert exit_.value.code == 3
        assert events == ["freeze", "main"]

    def test_main_does_not_freeze(self, monkeypatch, uniform_files,
                                  tmp_path):
        import gc

        def refuse():
            raise AssertionError("main() froze the heap")
        monkeypatch.setattr(gc, "freeze", refuse)
        _, vol = uniform_files
        assert run("verify", vol, vol, "-o", tmp_path / "m.csv") == 0

    def test_module_and_script_run_it(self, tmp_path):
        import tomllib
        root = Path(__file__).resolve().parents[1]
        with open(root / "pyproject.toml", "rb") as fh:
            scripts = tomllib.load(fh)["project"]["scripts"]
        assert scripts == {"voxflow": "voxflow.__main__:main"}
        # a frozen process still ends with main()'s exit code and output
        child = run_limited("analyze", tmp_path, "--which", "ratios")
        assert child.returncode == 1
        assert child.stderr.splitlines() == ["error: no volumes found"]
        code = ("import gc, runpy, sys\n"
                "sys.argv = ['voxflow', 'analyze', sys.argv[1], '--which',"
                " 'ratios']\n"
                "try:\n"
                "    runpy.run_module('voxflow.cli', run_name='__main__')\n"
                "finally:\n"
                "    print(gc.get_freeze_count() > 10000)\n")
        child = subprocess.run(
            [sys.executable, "-c", code, str(tmp_path)],
            env=dict(os.environ, PYTHONPATH=str(root / "src")),
            capture_output=True, text=True, timeout=120)
        assert child.returncode == 1
        assert child.stdout == "True\n"

    @pytest.mark.skipif(not Path("/proc/self/task").is_dir(),
                        reason="no /proc/self/task to count threads in")
    @pytest.mark.parametrize("env, one_thread, want", [
        ({}, True, ["1", "1", "1"]),
        ({"OPENBLAS_NUM_THREADS": "2"}, False, ["1", "2", "1"]),
    ], ids=["unset", "openblas-2"])
    def test_module_entry_defaults_one_blas_thread(self, env, one_thread,
                                                   want):
        root = Path(__file__).resolve().parents[1]
        child = subprocess.run(
            [sys.executable, "-c", _HELP_THREADS_CHILD],
            env={**{k: v for k, v in os.environ.items()
                    if k not in _NO_THREAD_VARS},
                 "PYTHONPATH": str(root / "src"), **env},
            capture_output=True, text=True, timeout=120, check=True)
        threads, *variables = json.loads(child.stdout.splitlines()[-1])
        assert variables == want
        assert threads == 1 or not one_thread

    def test_both_entries_write_the_same_bytes(self, tmp_path):
        """Every command, an error and a usage error, through python -m
        voxflow.cli with one BLAS thread set and through python -m voxflow
        with none set, each in its own directory: the same exit codes,
        stdout, stderr and files."""
        commands = [
            ("--help",), ("synth", "--preset", "shear2", "--frames", "4",
                          "-o", "s.rvol"),
            ("estimate", "d/20210610_1200.rvol", "--inputs", "2",
             "--scales", "1,2", "-o", "e.rmf"),
            ("nowcast", "d/20210610_1200.rvol", "e.rmf", "-k", "3",
             "-o", "fc.rvol"),
            ("verify", "fc.rvol", "d/20210610_1200.rvol", "-o", "m.csv"),
            *(("analyze", "d", "--which", which, "-o", "report")
              for which in _ANALYSES),
            ("analyze", "empty", "--which", "ratios"),
            ("estimate", "s.rvol", "--config", "x"),
        ]
        outputs = {}
        for entry, env in (("voxflow.cli", {}), ("voxflow", _NO_THREAD_VARS)):
            run_dir = tmp_path / entry
            for sub in ("d", "empty"):
                (run_dir / sub).mkdir(parents=True)
            _small_volume(run_dir / "d" / "20210610_1200.rvol")
            results = [run_limited(*args, cwd=run_dir, entry=entry, **env)
                       for args in commands]
            outputs[entry] = ([(r.returncode, r.stdout, r.stderr)
                               for r in results],
                              {str(f.relative_to(run_dir)): f.read_bytes()
                               for f in sorted(run_dir.rglob("*"))
                               if f.is_file()})
        codes = [code for code, _, _ in outputs["voxflow"][0]]
        assert codes == [0] * (len(commands) - 2) + [1, 2]
        assert outputs["voxflow"] == outputs["voxflow.cli"]


class TestPipelineDeterminism:
    def test_metric_csv_bytes_identical_across_runs(self, tmp_path,
                                                    monkeypatch):
        monkeypatch.setattr("voxflow.variational.MAX_ITERS", 60)
        outputs = []
        for run_dir in ("r1", "r2"):
            d = tmp_path / run_dir
            d.mkdir()
            vol = d / "n.rvol"
            assert run("synth", "--preset", "noisy", "-o", vol, "--seed",
                       "5", "--frames", "12") == 0
            mf = d / "n.rmf"
            assert run("estimate", vol, "--inputs", "8",
                       "--scales", "1,2,4", "-o", mf) == 0
            fc = d / "n.fc.rvol"
            assert run("nowcast", vol, mf, "-k", "4", "--start-frame", "7",
                       "-o", fc) == 0
            csv = d / "n.csv"
            assert run("verify", fc, vol, "-o", csv) == 0
            outputs.append(csv.read_bytes())
        assert outputs[0] == outputs[1]
