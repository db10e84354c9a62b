"""Peak RSS of each command at the paper's 512^2 crop scale (the uniform
scene, 8 levels, seed 5), read through the peak_rss runner."""

import sys

import pytest

SYNTH = "synth --preset uniform --crop-scale --frames {0} --seed 5 -o v{0}/c.rvol"

#: case: (command, bound in MB), run in order (synth makes nowcast's input,
#: nowcast verify's); each comment names the regressions its bound catches
CASES = {
    # a float32 volume and truth (about 186 MB); a float64 truth (about
    # 207 MB) or volume (about 333 MB)
    "synth": (SYNTH.format(16), 200),
    # only the start frame decoded, the float32 motion read without a
    # float64 copy, float32 advection (about 114 MB); float64 advection
    # (about 124 MB) or motion (about 140 MB)
    "nowcast": ("nowcast v16/c.rvol v16/c.truth.rmf -k 8 --start-frame 7 "
                "-o fc.rvol", 120),
    # one lead of each volume pooled at a time (about 63 MB); every pooled
    # lead of both volumes held (about 95 MB) or whole-volume reads (about
    # 450 MB)
    "verify": ("verify fc.rvol v16/c.rvol -o m.csv", 80),
    # one float64 copy of the inputs, one workspace for all loss scales, the
    # descent's float32 history of 3 pairs (about 184 MB); a float32 copy
    # of the inputs (about 209 MB), a second float64 copy (48 MiB more) or
    # a workspace per scale (about 248 MB)
    "estimate": ("estimate v3/c.rvol --mode 3d --inputs 3 --scales 1,2,4 "
                 "-o v3/c.rmf", 205),
    # one float32 frame at a time and a float32 truth motion (about 82 and
    # 90 MB); a float64 motion (about 96 and 103 MB), float64 frames (about
    # 123 and 129 MB) or whole-volume reads (about 270 and 350 MB)
    "analyze-motion-corr": ("analyze v8 --which motion-corr -o v8/mc", 88),
    "analyze-histogram": ("analyze v8 --which histogram -o v8/hist", 96),
}


@pytest.fixture(scope="module")
def peaks(peak_rss, tmp_path_factory):
    """Each case's result, after the 3- and 8-frame volumes are made."""
    d = tmp_path_factory.mktemp("crop")

    def run(command):
        return peak_rss([sys.executable, "-m", "voxflow.cli", *command.split()],
                        cwd=d)
    for frames in (3, 8, 16):
        (d / f"v{frames}").mkdir()
    assert all(run(SYNTH.format(n))["returncode"] == 0 for n in (3, 8))
    return {case: run(command) for case, (command, _) in CASES.items()}


@pytest.mark.skipif(sys.platform != "linux",
                    reason="ru_maxrss is KiB on Linux only")
@pytest.mark.parametrize("case", CASES)
def test_peak_rss_at_crop_scale(peaks, case):
    result = peaks[case]
    assert result["returncode"] == 0, result
    assert result["peak_rss_mb"] <= CASES[case][1], result
