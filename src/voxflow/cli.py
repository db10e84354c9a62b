"""Command-line pipeline: synth, estimate, nowcast, verify, analyze.

Every command validates file magic before reading payloads, takes its
arguments from the command line or from @FILE (see build_parser), and exits 0
on success, 1 on runtime/data errors, and 2 on usage errors.
"""

from __future__ import annotations

import argparse
import csv
import errno
import gc
import os
import re
import sys
from datetime import datetime, timedelta
from pathlib import Path

import numpy as np

from . import analysis, rvol, svgplot
from .advect import extrapolate
from .denoise import denoise_volume
from .errors import DivergedError, FormatError, NoOverlapError
from .flow import LossConfig
from .grid import RadarVolume, RainField, cmax
from .output import open_output
from .synth import PRESET_NAMES, generate, preset
from .transform import (F32_OVERFLOW_MMH, dbz_reaching, rain_to_dbz,
                        volume_to_rain)
from .variational import estimate_variational
from .verify import verify_nowcast


def _fmt(v: float) -> str:
    if isinstance(v, float) and np.isnan(v):
        return "nan"
    return f"{v:.10g}"


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    """Floats through _fmt; a field holding a comma or a quote is quoted."""
    with open_output(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows([header] + [
            [_fmt(c) if isinstance(c, float) else str(c) for c in row]
            for row in rows])


def _comma_list(convert, form: str, count: int | None = None):
    """argparse type for a comma-separated list; a malformed list is a usage
    error that names the expected form."""
    def parse(text: str) -> tuple:
        try:
            items = tuple(convert(s) for s in text.split(",") if s.strip())
        except (ValueError, argparse.ArgumentTypeError):
            items = ()
        if not items or (count is not None and len(items) != count):
            raise argparse.ArgumentTypeError(f"expected {form}, got {text!r}")
        return items
    return parse


def _int_in(lo: int, hi: float = float("inf")):
    """argparse type for an integer in [lo, hi]; anything else is a usage
    error that names the range."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = None
        if value is None or not lo <= value <= hi:
            raise argparse.ArgumentTypeError(
                f"expected an integer in [{lo}, {hi}], got {text!r}")
        return value
    return parse


_scales = _comma_list(_int_in(1), "comma-separated integers such as 1,2,4")
_level_pair = _comma_list(int, "two comma-separated indices such as 0,2", 2)


_TS_RE = re.compile(r"(\d{4})(\d\d)(\d\d)[T_-]?(\d\d)(\d\d)", re.ASCII)


def parse_stem_timestamp(stem: str) -> datetime | None:
    """The datetime of the first YYYYMMDD[T_-]HHMM of ASCII digits in a
    stem, or None. Its fields are taken as integers, which is what
    datetime.strptime with %Y%m%d%H%M accepts of twelve digits, without
    loading strptime's locale tables."""
    m = _TS_RE.search(stem)
    if not m:
        return None
    try:
        return datetime(*map(int, m.groups()))
    except ValueError:
        return None


def _arg_line(line: str) -> list[str]:
    """The arguments of one line of an @FILE: split as a shell splits
    words, from a # to the end of the line skipped; a line shlex cannot
    split is a ValueError that quotes it. shlex is imported here, so
    start-up does not load it."""
    import shlex
    try:
        return shlex.split(line, comments=True)
    except ValueError as exc:
        raise ValueError(f"@FILE line {line!r}: {exc}") from None


def build_parser() -> argparse.ArgumentParser:
    """The voxflow parser. An argument @FILE is replaced by the arguments
    on FILE's lines (nested @FILEs too) before the subcommand parses."""
    parser = argparse.ArgumentParser(
        prog="voxflow",
        description="volumetric radar-echo motion estimation and "
                    "extrapolation nowcasting. An argument @FILE stands for "
                    "the arguments on FILE's lines, split as a shell splits "
                    "words, # comments skipped; arguments after it override "
                    "it.",
        fromfile_prefix_chars="@")
    parser.convert_arg_line_to_args = _arg_line
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("synth", help="generate a synthetic volume + truth motion")
    p.add_argument("--preset", choices=PRESET_NAMES, required=True)
    p.add_argument("-o", "--out", required=True, help="output .rvol path")
    p.add_argument("--seed", type=int, default=0,
                   help="seed of the noisy preset's speckle; the other "
                        "presets write the same bytes for every seed")
    p.add_argument("--frames", type=_int_in(1, rvol.MAX_DIM), default=None,
                   help="override the preset's frame count (>= 1)")
    p.add_argument("--crop-scale", action="store_true",
                   help="512 x 512 geometry; the uniform preset only")
    p.add_argument("--quantize", action="store_true",
                   help="store reflectivity as 8-bit (0.5 dBZ steps)")

    p = subs.add_parser("estimate", help="estimate a motion field from a volume")
    p.add_argument("volume", help="input .rvol path")
    p.add_argument("--mode", choices=("3d", "2d-cmax"), default="3d")
    p.add_argument("-o", "--out", default=None,
                   help="output .rmf path; the loss trace is written beside "
                        "it as <stem>_trace.csv")
    p.add_argument("--inputs", type=_int_in(2, rvol.MAX_DIM), default=8,
                   help="number of leading frames fed to the estimator; the "
                        "frame count fits the whole volume")
    p.add_argument("--scales", type=_scales, default="1,2,4,8")
    p.add_argument("--denoise", action="store_true",
                   help="apply quality control before estimation")

    p = subs.add_parser("nowcast", help="extrapolate a volume with a motion field",
                        description="The forecast's one static mask is the "
                        "AND of every lead's mask.")
    p.add_argument("volume", help="input .rvol path")
    p.add_argument("motion", help="input .rmf path")
    p.add_argument("-k", "--leads", type=_int_in(1, rvol.MAX_DIM),
                   required=True)
    p.add_argument("-o", "--out", default=None, help="output forecast .rvol")
    p.add_argument("--start-frame", type=int, default=-1,
                   help="index of the frame advected forward; negative "
                        "values count from the end, Python-style "
                        "(default: -1, the last frame)")

    p = subs.add_parser("verify", help="score a forecast volume against truth")
    p.add_argument("forecast", help="forecast .rvol path")
    p.add_argument("truth", help="observed .rvol path")
    p.add_argument("-o", "--out", default=None, help="metrics CSV path")
    p.add_argument("--offset", type=int, default=None,
                   help="truth frame index of lead 1 (default: aligned ends)")

    p = subs.add_parser("analyze", help="dataset analyses over a directory of volumes")
    p.add_argument("directory", help="directory of .rvol files")
    p.add_argument("--which", required=True, choices=tuple(_ANALYSES))
    p.add_argument("-o", "--outdir", default=None,
                   help="report directory (default: the dataset directory)")
    p.add_argument("--level-pair", type=_level_pair, default=None,
                   help="low,mid level indices for pair analyses "
                        "(default: 0 and min(2, Z - 1))")

    return parser


def _cmd_synth(args) -> int:
    scn = preset(args.preset, frames=args.frames, seed=args.seed,
                 crop_scale=args.crop_scale)
    vol, truth = generate(scn)
    out = Path(args.out)
    rvol.write_rvol(out, vol, quantize=args.quantize)
    truth_path = out.with_suffix(".truth.rmf")
    rvol.write_motion(truth_path, truth)
    t, z, y, x = vol.shape
    print(f"wrote {out} ({t} x {z} x {y} x {x}, dt={vol.dt:.0f}s) "
          f"and {truth_path}")
    print(f"cells: {len(scn.cells)}")
    if scn.rotation_omega is not None:
        print(f"motion: rigid rotation, {np.degrees(scn.rotation_omega):.2f} deg/step")
    else:
        for zi in range(z):
            vels = sorted({(float(vx), float(vy)) for vx, vy in scn.velocities[zi]})
            text = ", ".join(f"({vx:g}, {vy:g})" for vx, vy in vels)
            print(f"level {zi}: velocities {text}")
    return 0


#: columns of the loss trace CSV, one row per accepted iterate
_TRACE_HEADER = ["level", "iteration", "loss_total", "loss_multiscale",
                 "loss_divergence"]


def _in_range(vol: RadarVolume, path: str | Path) -> RadarVolume:
    """vol, unless a valid cell holds reflectivity whose rain rate float32
    cannot hold (dBZ at or above transform.dbz_reaching of F32_OVERFLOW_MMH,
    639.5198 in float32): that is a ValueError that names the file. nowcast
    advects its rates in float32, and every command that reads reflectivity
    as rain rate refuses such a frame the same way, split included, which
    thresholds it in dBZ."""
    hot = vol.data >= dbz_reaching(F32_OVERFLOW_MMH, vol.data.dtype.type)
    if np.logical_and(hot, vol.mask, out=hot).any():
        raise ValueError(f"{path}: a valid rain rate is beyond float32's "
                         "range (reflectivity above about 639.5 dBZ)")
    return vol


def _rain(vol: RadarVolume, path: str | Path) -> RainField:
    """volume_to_rain of a one-frame volume read from path, refused as
    _in_range refuses it."""
    return volume_to_rain(_in_range(vol, path), 0)


def _rain_frame(reader: rvol.RvolReader, t: int, args) -> RainField:
    """Frame t of the estimate's input in mm/h: decoded, denoised and
    pooled on its own, so no decoded copy of other frames is held. Each
    step acts frame by frame, so the field is the one a whole-volume read
    gives."""
    vol = reader.read(t, t + 1)
    if args.denoise:
        vol = denoise_volume(vol)
    if args.mode == "2d-cmax":
        vol = cmax(vol)
    return _rain(vol, args.volume)


def _cmd_estimate(args) -> int:
    stem = Path(args.volume)
    out = Path(args.out) if args.out else stem.with_suffix(".rmf")
    trace_path = out.with_name(out.stem + "_trace.csv")

    with rvol.RvolReader(args.volume) as reader:
        t_total = reader.header.t
        n = min(args.inputs, t_total)
        if n < 2:
            raise ValueError(f"need at least 2 input frames, volume has "
                             f"{t_total}")
        # only the frames the estimator uses are decoded
        inputs = [_rain_frame(reader, t, args) for t in range(n)]
    result = estimate_variational(inputs, cfg=LossConfig(scales=args.scales))
    rvol.write_motion(out, result.motion)
    rows = []
    for z, trace in enumerate(result.traces):
        for i, (tot, data, div) in enumerate(trace):
            rows.append([z, i, float(tot), float(data), float(div)])
    _write_csv(trace_path, _TRACE_HEADER, rows)
    statuses = ",".join(s.value for s in result.statuses)
    print(f"wrote {out} (levels: {statuses}) and {trace_path}")
    return 0


def _cmd_nowcast(args) -> int:
    with rvol.RvolReader(args.volume) as reader:
        t_count = reader.header.t
        if not -t_count <= args.start_frame < t_count:
            raise ValueError(f"start frame {args.start_frame} outside volume "
                             f"(T={t_count})")
        start = args.start_frame % t_count
        # the motion is read before any frame: a one-level motion of a
        # volume with more levels is the CMAX arm's (estimate --mode
        # 2d-cmax), which advects the start frame's column maximum
        mf = rvol.read_motion(args.motion)
        cmax_arm = mf.nz == 1 and reader.header.z > 1
        vol = reader.read_cmax(start) if cmax_arm else \
            reader.read(start, start + 1)
    # the rates are rounded once to float32, RVOL's own precision, and
    # advected and converted back to dBZ in float32
    last = _rain(vol, args.volume)
    last = RainField(data=last.data.astype(np.float32), mask=last.mask)
    out = Path(args.out) if args.out else \
        Path(args.volume).with_suffix(".nowcast.rvol")
    # each plane is converted and written as it is advected; its mask, the
    # AND of its level's leads, is the forecast's one static mask
    with rvol.RvolWriter(out, (args.leads,) + last.data.shape, vol.z_levels,
                         vol.dt) as writer:
        extrapolate(last, mf, args.leads,
                    sink=lambda t, z, plane, valid: writer.write(
                        t, z, rain_to_dbz(plane), valid))
    print(f"wrote {out} ({args.leads} leads from frame {start})")
    return 0


def _cmd_verify(args) -> int:
    with rvol.RvolReader(args.forecast) as fc, \
            rvol.RvolReader(args.truth) as truth:
        k, t_truth = fc.header.t, truth.header.t
        # both are pooled to their column maximum: only Y x X must agree
        if fc.header[2:4] != truth.header[2:4]:
            raise ValueError(f"grid mismatch: forecast {fc.header[2:4]} vs "
                             f"truth {truth.header[2:4]}")
        offset = args.offset if args.offset is not None else t_truth - k
        if offset < 0 or offset + k > t_truth:
            raise ValueError(f"truth volume (T={t_truth}) cannot cover "
                             f"{k} leads at offset {offset}")
        # one sample: one lead of each volume is read, pooled to its column
        # maximum on the stored values, decoded and converted at a time
        report = verify_nowcast(
            [(_rain(fc.read_cmax(t), args.forecast) for t in range(k))],
            [(_rain(truth.read_cmax(t), args.truth)
              for t in range(offset, offset + k))])
    sample_id = Path(args.forecast).stem
    rows = []
    for lead in report.leads:
        me, mae, mse = report.continuous(lead)
        rows.append([sample_id, lead, "me", "", float(me)])
        rows.append([sample_id, lead, "mae", "", float(mae)])
        rows.append([sample_id, lead, "mse", "", float(mse)])
        for thr in report.thresholds:
            p, r, e = report.categorical(lead, thr)
            rows.append([sample_id, lead, "precision", _fmt(thr), float(p)])
            rows.append([sample_id, lead, "recall", _fmt(thr), float(r)])
            rows.append([sample_id, lead, "ets", _fmt(thr), float(e)])
    out = Path(args.out) if args.out else \
        Path(args.forecast).with_suffix(".metrics.csv")
    _write_csv(out, ["sample_id", "lead_steps", "metric", "threshold_mmh",
                     "value"], rows)
    print(f"wrote {out} ({len(rows)} rows)")
    return 0


def _dataset(directory: str):
    # listing the directory raises the OSError of a missing one or a file
    files = sorted(Path(directory) / name for name in os.listdir(directory)
                   if name.endswith(".rvol") and not name.endswith(".nowcast.rvol"))
    if not files:
        raise ValueError("no volumes found")
    epoch = datetime(2000, 1, 1)
    return [(f, f.stem, parse_stem_timestamp(f.stem)
             or epoch + timedelta(minutes=5 * idx)) for idx, f in enumerate(files)]


def _motion_file(path: Path) -> Path | None:
    for cand in (path.with_suffix(".rmf"), path.with_suffix(".truth.rmf")):
        if cand.exists():
            return cand
    return None


def _motion_samples(files, args):
    """(stem, timestamp, open reader, motion, low/mid level pair) of every
    volume with a motion file.

    The motion file is looked up before the volume is opened. The level
    count is checked by _same_levels, the motion's Z x Y x X against the
    volume header's and the pair taken by _pair before any frame is read;
    the reader is closed when the next sample is asked for. Once the files
    are exhausted, the count of volumes without a motion file is noted on
    stderr, and a corpus where no volume has one is a data error.
    """
    skipped, nz = 0, None
    for path, stem, ts in files:
        mpath = _motion_file(path)
        if mpath is None:
            skipped += 1
            continue
        mf = rvol.read_motion(mpath)
        with rvol.RvolReader(path) as reader:
            nz = _same_levels(path, reader.header.z, nz)
            if (mf.nz, *mf.grid_shape) != reader.header[1:4]:
                raise ValueError(f"{mpath} has Z, Y, X = {(mf.nz, *mf.grid_shape)}"
                                 f", but its volume {path} has {reader.header[1:4]}")
            yield stem, ts, reader, mf, _pair(args, nz)
    if skipped:
        print(f"note: {skipped} volume(s) had no motion file and were skipped",
              file=sys.stderr)
    if skipped == len(files):
        raise ValueError("no motion files found next to the volumes")


def _pair_samples(files, args):
    """Per-sample (id, timestamp, coverage, low/mid motion correlation).
    The coverage pools each frame on its stored values (read_cmax gives
    grid.cmax of the frame without decoding its levels); the correlation's
    region is OR-ed from the decoded frames one at a time."""
    return [analysis.OutlierSample(
                sample_id=stem, timestamp=ts,
                coverage=analysis.coverage_ratio(
                    map(reader.read_cmax, range(reader.header.t))),
                correlation=analysis.motion_pair_corr(mf, reader, *pair))
            for stem, ts, reader, mf, pair in _motion_samples(files, args)]


def _write_boxstats(outdir: Path, name: str, values: list[float],
                    stamps: list[datetime], title: str, y_label: str) -> None:
    """Month-wise box statistics of per-sample values as <name>.csv/.svg."""
    stats = analysis.monthwise_boxstats(values, stamps)
    rows = [[m, s.q1, s.median, s.q3, s.lo_whisker, s.hi_whisker,
             s.count, ";".join(_fmt(o) for o in s.outliers)]
            for m, s in stats.items()]
    _write_csv(outdir / f"{name}.csv",
               ["month", "q1", "median", "q3", "lo_whisker", "hi_whisker",
                "count", "outliers"], rows)
    svgplot.box_plot({str(m): s for m, s in stats.items()},
                     outdir / f"{name}.svg", title=title, y_label=y_label)


def _pair(args, nz: int) -> tuple[int, int]:
    """--level-pair, or by default level 0 and level min(2, nz - 1) of a
    corpus of nz levels, which needs two levels."""
    if args.level_pair is not None:
        return args.level_pair
    if nz < 2:
        raise ValueError(f"the default level pair needs two levels, the "
                         f"volumes have Z={nz}; give --level-pair")
    return 0, min(2, nz - 1)


def _same_levels(path: Path, z: int, nz: int | None) -> int:
    """The corpus level count: the first volume's. A volume whose level
    count z differs from it is a data error that names the volume."""
    if nz is not None and z != nz:
        raise ValueError(f"{path} has Z={z}, expected Z={nz} "
                         "as in the first volume")
    return z


def _volumes(files):
    """Each corpus volume in turn as an open reader, its level count
    checked by _same_levels before any frame is read; the reader is closed
    when the next volume is asked for."""
    nz = None
    for path, _, _ in files:
        with rvol.RvolReader(path) as reader:
            nz = _same_levels(path, reader.header.z, nz)
            yield reader


def _analyze_ratios(args, files, outdir: Path) -> str:
    thresholds = analysis.RAINY_THRESHOLDS_DBZ
    ratios = [analysis.rainy_ratio(reader, thresholds)
              for reader in _volumes(files)]
    mean = np.mean(ratios, axis=0)
    rows = [[z, _fmt(thr), float(mean[z, j])]
            for z in range(mean.shape[0])
            for j, thr in enumerate(thresholds)]
    _write_csv(outdir / "rainy_ratios.csv",
               ["level", "threshold_dbz", "fraction"], rows)
    series = {f"> {thr:g} dBZ": [(z, float(mean[z, j]))
                                 for z in range(mean.shape[0])]
              for j, thr in enumerate(thresholds)}
    svgplot.line_chart(series, outdir / "rainy_ratios.svg",
                       title="rainy-pixel ratio by altitude level",
                       x_label="level index", y_label="fraction")
    _write_boxstats(outdir, "rainy_ratio_monthwise",
                    [float(r[0, 1]) for r in ratios],
                    [ts for _, _, ts in files],
                    title="monthly rainy-pixel ratio, lowest level",
                    y_label="fraction")
    return "ratios reports"


def _analyze_refl_corr(args, files, outdir: Path) -> str:
    mat = analysis.reflectivity_corr_matrix(_volumes(files))
    _write_matrix(outdir / "reflectivity_corr.csv", mat)
    svgplot.heatmap(mat, outdir / "reflectivity_corr.svg",
                    title="reflectivity correlation by level pair",
                    vmin=-1.0, vmax=1.0)
    return "reflectivity correlation"


def _analyze_motion_corr(args, files, outdir: Path) -> str:
    # one pass over the corpus: a sample's motion is dropped once its rows
    # and its low/mid correlation are taken; each level pair's region and
    # gathers serve all three components
    rows = {component: [] for component in analysis.COMPONENTS}
    stamps, corrs = [], []
    for _, ts, reader, mf, (low, mid) in _motion_samples(files, args):
        sample = analysis.motion_sample(mf, reader)
        corrs.append(analysis.sample_pair_corr(sample, low, mid))
        got = analysis.component_rows(sample)
        stamps.append(ts)
        for component, kept in rows.items():
            kept += got[component]
        nz = mf.nz
    for component, kept in rows.items():
        mat = analysis.pair_mean(nz, kept)
        _write_matrix(outdir / f"motion_corr_{component}.csv", mat)
        if component == "both":
            svgplot.heatmap(mat, outdir / "motion_corr.svg",
                            title="motion correlation by level pair",
                            vmin=-1.0, vmax=1.0)
    finite = [(c, ts) for c, ts in zip(corrs, stamps) if np.isfinite(c)]
    _write_boxstats(outdir, "motion_corr_monthwise",
                    [c for c, _ in finite], [ts for _, ts in finite],
                    title=f"monthly motion correlation, levels {low}/{mid}",
                    y_label="Pearson correlation")
    return "motion correlation reports"


def _analyze_histogram(args, files, outdir: Path) -> str:
    samples = _pair_samples(files, args)
    counts, xe, ye = analysis.coverage_vs_corr_histogram(
        [(s.coverage, s.correlation) for s in samples])
    rows = [[_fmt(float(xe[i])), _fmt(float(xe[i + 1])),
             _fmt(float(ye[j])), _fmt(float(ye[j + 1])), int(counts[i, j])]
            for i in range(counts.shape[0]) for j in range(counts.shape[1])]
    _write_csv(outdir / "coverage_vs_corr.csv",
               ["coverage_lo", "coverage_hi", "corr_lo", "corr_hi", "count"],
               rows)
    _write_csv(outdir / "coverage_vs_corr_samples.csv",
               ["sample_id", "timestamp", "coverage", "correlation"],
               [[s.sample_id, s.timestamp.isoformat(), s.coverage,
                 s.correlation] for s in samples])
    svgplot.heatmap(counts.T[::-1], outdir / "coverage_vs_corr.svg",
                    title="sample density: coverage vs motion correlation")
    return "histogram reports"


def _analyze_outliers(args, files, outdir: Path) -> str:
    samples = _pair_samples(files, args)
    usable = [s for s in samples if np.isfinite(s.correlation)]
    ranked = analysis.rank_outliers(usable)
    by_id = {s.sample_id: s for s in usable}
    rows = [[rank + 1, sid, by_id[sid].timestamp.isoformat(),
             by_id[sid].coverage, by_id[sid].correlation]
            for rank, sid in enumerate(ranked.ids)]
    _write_csv(outdir / "outliers.csv",
               ["rank", "sample_id", "timestamp", "coverage", "correlation"],
               rows)
    if ranked.exhausted:
        print(f"note: only {len(ranked.ids)} of {analysis.TOP_K} requested "
              "samples available", file=sys.stderr)
    return "outlier ranking"


def _analyze_split(args, files, outdir: Path) -> str:
    """Split diagnostic: each volume's frames are treated as nowcast leads,
    thresholded in dBZ, and refused as _rain refuses them."""
    for path, stem, _ in files:
        with rvol.RvolReader(path) as reader:
            diag = analysis.cell_split_diagnostic(
                _in_range(frame, path) for frame in reader)
        rows = [[li, n, ";".join(str(c) for c in counts), cells]
                for li, (n, counts, cells) in enumerate(zip(
                    diag.cmax_counts, diag.level_counts,
                    diag.cmax_rainy_cells))]
        _write_csv(outdir / f"{stem}_split.csv",
                   ["lead", "cmax_components", "level_components",
                    "cmax_rainy_cells"], rows)
        svgplot.line_chart(
            {"cmax components": list(enumerate(diag.cmax_counts))},
            outdir / f"{stem}_split.svg",
            title=f"{stem}: component count of thresholded composite",
            x_label="lead", y_label="components")
    return "split diagnostics"


_ANALYSES = {
    "ratios": _analyze_ratios,
    "refl-corr": _analyze_refl_corr,
    "motion-corr": _analyze_motion_corr,
    "histogram": _analyze_histogram,
    "outliers": _analyze_outliers,
    "split": _analyze_split,
}


def _cmd_analyze(args) -> int:
    files = _dataset(args.directory)
    outdir = Path(args.outdir) if args.outdir else Path(args.directory)
    outdir.mkdir(parents=True, exist_ok=True)
    what = _ANALYSES[args.which](args, files, outdir)
    print(f"wrote {what} to {outdir}")
    return 0


def _write_matrix(path: Path, mat: np.ndarray) -> None:
    rows = [[i] + [float(v) for v in mat[i]] for i in range(mat.shape[0])]
    _write_csv(path, ["level"] + [str(j) for j in range(mat.shape[1])], rows)


_COMMANDS = {
    "synth": _cmd_synth,
    "estimate": _cmd_estimate,
    "nowcast": _cmd_nowcast,
    "verify": _cmd_verify,
    "analyze": _cmd_analyze,
}


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        # an output whose directory is missing fails before any input is
        # read or any volume rendered
        out = getattr(args, "out", None)
        if out and not Path(out).parent.is_dir():
            raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT),
                                    out)
        return _COMMANDS[args.command](args)
    except UnicodeDecodeError as exc:
        # argparse reading an @FILE is the only text decoding voxflow does
        print(f"error: @FILE is not text: {exc}", file=sys.stderr)
        return 1
    except (FormatError, NoOverlapError, DivergedError, ValueError,
            OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RecursionError:
        print("error: @FILE arguments nest too deeply", file=sys.stderr)
        return 1
    except MemoryError as exc:
        # a backstop: sizes a user controls are bounded before allocation
        detail = f": {exc}" if str(exc) else ""
        print(f"error: out of memory{detail}", file=sys.stderr)
        return 1


def run() -> None:
    """The entry point of python -m voxflow.cli and the voxflow script.

    Once the imports are done it freezes the collector's view of the
    heap, so no later collection, nor the one at exit, walks the objects
    that importing NumPy and voxflow made; then it exits with main()'s
    code. main() itself leaves the collector alone.
    """
    gc.freeze()
    sys.exit(main())


if __name__ == "__main__":
    run()
