"""Command-line pipeline: synth, estimate, nowcast, verify, analyze.

Every command validates file magic before reading payloads, honors a flat
key=value config file (command-line flags win), and exits 0 on success, 1 on
runtime/data errors, and 2 on usage errors.
"""

from __future__ import annotations

import argparse
import csv
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
from .grid import MotionField, RainField, cmax
from .synth import PRESET_NAMES, generate, preset
from .transform import rain_to_dbz, volume_to_rain
from .variational import estimate_variational
from .verify import verify_nowcast


def _fmt(v: float) -> str:
    if isinstance(v, float) and np.isnan(v):
        return "nan"
    return f"{v:.10g}"


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    """Floats through _fmt; a field holding a comma or a quote is quoted."""
    with path.open("w", newline="") as fh:
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


_TS_RE = re.compile(r"(\d{8})[T_-]?(\d{4})")


def parse_stem_timestamp(stem: str) -> datetime | None:
    m = _TS_RE.search(stem)
    if not m:
        return None
    try:
        return datetime.strptime(m.group(1) + m.group(2), "%Y%m%d%H%M")
    except ValueError:
        return None


def _load_config(path: str) -> dict[str, str]:
    out: dict[str, str] = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line is not key = value: {raw!r}")
        key, value = line.split("=", 1)
        out[key.strip().replace("-", "_")] = value.strip()
    return out


_BOOLEANS = {"1": True, "true": True, "yes": True, "on": True,
             "0": False, "false": False, "no": False, "off": False}


def _apply_config(parser: argparse.ArgumentParser, table: dict,
                  argv: list[str]) -> argparse.Namespace:
    """Two-pass parse so config-file values become defaults of the
    subcommand's parser (table[command]) that explicit flags override. Only
    the second pass requires options, and not those the file sets."""
    relaxed = [a for sub in table.values() for a in sub._actions
               if a.required and a.option_strings]
    for action in relaxed:
        action.required = False
    args, _ = parser.parse_known_args(argv)
    values = _load_config(args.config) if args.config else {}
    for action in relaxed:
        action.required = action.dest not in values
    if values:
        sub = table[args.command]
        known = {a.dest: a for a in sub._actions}
        defaults = {}
        for key, text in values.items():
            if key not in known:
                parser.error(f"unknown config key: {key}")
            action = known[key]
            if isinstance(action, argparse._StoreTrueAction):
                defaults[key] = _BOOLEANS.get(text.lower())
                if defaults[key] is None:
                    parser.error(f"config key {key}: expected one of "
                                 f"{'/'.join(_BOOLEANS)}, got {text!r}")
            elif action.type is not None:
                try:
                    defaults[key] = action.type(text)
                except (argparse.ArgumentTypeError, ValueError) as exc:
                    parser.error(f"config key {key}: {exc}")
            else:
                defaults[key] = text
            if action.choices and defaults[key] not in action.choices:
                parser.error(f"config key {key}: expected one of "
                             f"{', '.join(action.choices)}, got {text!r}")
        sub.set_defaults(**defaults)
    return parser.parse_args(argv)


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="flat key = value config file; "
                                      "command-line flags override it")


def build_parser() -> tuple[argparse.ArgumentParser, dict]:
    parser = argparse.ArgumentParser(
        prog="voxflow",
        description="volumetric radar-echo motion estimation and "
                    "extrapolation nowcasting")
    subs = parser.add_subparsers(dest="command", required=True)
    table = {}

    p = subs.add_parser("synth", help="generate a synthetic volume + truth motion")
    p.add_argument("--preset", choices=PRESET_NAMES, required=True)
    p.add_argument("-o", "--out", required=True, help="output .rvol path")
    p.add_argument("--seed", type=int, default=0,
                   help="seed of the noisy preset's speckle; the other "
                        "presets write the same bytes for every seed")
    p.add_argument("--frames", type=_int_in(1, rvol._MAX_DIM), default=None,
                   help="override the preset's frame count (>= 1)")
    p.add_argument("--crop-scale", action="store_true",
                   help="512 x 512 geometry; the uniform preset only")
    p.add_argument("--quantize", action="store_true",
                   help="store reflectivity as 8-bit (0.5 dBZ steps)")
    _add_common(p)
    table["synth"] = p

    p = subs.add_parser("estimate", help="estimate a motion field from a volume")
    p.add_argument("volume", help="input .rvol path")
    p.add_argument("--mode", choices=("3d", "2d-cmax"), default="3d")
    p.add_argument("-o", "--out", default=None, help="output .rmf path")
    p.add_argument("--trace", default=None, help="loss trace CSV path")
    p.add_argument("--inputs", type=_int_in(2, rvol._MAX_DIM), default=8,
                   help="number of leading frames fed to the estimator; the "
                        "frame count fits the whole volume")
    p.add_argument("--scales", type=_scales, default="1,2,4,8")
    p.add_argument("--denoise", action="store_true",
                   help="apply quality control before estimation")
    _add_common(p)
    table["estimate"] = p

    p = subs.add_parser("nowcast", help="extrapolate a volume with a motion field",
                        description="The forecast's one static mask is the "
                        "AND of every lead's mask.")
    p.add_argument("volume", help="input .rvol path")
    p.add_argument("motion", help="input .rmf path")
    p.add_argument("-k", "--leads", type=_int_in(1, rvol._MAX_DIM),
                   required=True)
    p.add_argument("-o", "--out", default=None, help="output forecast .rvol")
    p.add_argument("--start-frame", type=int, default=-1,
                   help="index of the frame advected forward; negative "
                        "values count from the end, Python-style "
                        "(default: -1, the last frame)")
    _add_common(p)
    table["nowcast"] = p

    p = subs.add_parser("verify", help="score a forecast volume against truth")
    p.add_argument("forecast", help="forecast .rvol path")
    p.add_argument("truth", help="observed .rvol path")
    p.add_argument("-o", "--out", default=None, help="metrics CSV path")
    p.add_argument("--offset", type=int, default=None,
                   help="truth frame index of lead 1 (default: aligned ends)")
    _add_common(p)
    table["verify"] = p

    p = subs.add_parser("analyze", help="dataset analyses over a directory of volumes")
    p.add_argument("directory", help="directory of .rvol files")
    p.add_argument("--which", required=True, choices=tuple(_ANALYSES))
    p.add_argument("-o", "--outdir", default=None,
                   help="report directory (default: the dataset directory)")
    p.add_argument("--level-pair", type=_level_pair, default=None,
                   help="low,mid level indices for pair analyses "
                        "(default: 0 and min(2, Z - 1))")
    _add_common(p)
    table["analyze"] = p

    return parser, table


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
    return volume_to_rain(vol, 0)


def _cmd_estimate(args) -> int:
    stem = Path(args.volume)
    out = Path(args.out) if args.out else stem.with_suffix(".rmf")
    trace_path = Path(args.trace) if args.trace else \
        out.with_name(out.stem + "_trace.csv")

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
    last = volume_to_rain(vol, 0)
    out = Path(args.out) if args.out else \
        Path(args.volume).with_suffix(".nowcast.rvol")
    # each plane is converted and written as it is advected; its mask, the
    # AND of its level's leads, is the forecast's one static mask
    with rvol.RvolWriter(out, (args.leads,) + last.data.shape, vol.z_levels,
                         vol.dt) as writer:
        extrapolate(last, mf, args.leads, sink=lambda t, z, lead: writer.write(
            t, z, rain_to_dbz(lead)[0], lead.mask[0]))
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
            [(volume_to_rain(fc.read_cmax(t), 0) for t in range(k))],
            [(volume_to_rain(truth.read_cmax(t), 0)
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
    files = sorted(Path(directory).glob("*.rvol"))
    files = [f for f in files if not f.name.endswith(".nowcast.rvol")]
    if not files:
        raise ValueError("no volumes found")
    epoch = datetime(2000, 1, 1)
    out = []
    for idx, f in enumerate(files):
        ts = parse_stem_timestamp(f.stem) or (epoch + timedelta(minutes=5 * idx))
        out.append((f, f.stem, ts))
    return out


def _motion_for(path: Path) -> MotionField | None:
    for cand in (path.with_suffix(".rmf"), path.with_suffix(".truth.rmf")):
        if cand.exists():
            return rvol.read_motion(cand)
    return None


def _motion_samples(files, args):
    """(stem, timestamp, open reader, motion, low/mid level pair) of every
    volume with a motion file.

    The motion file is looked up before the volume is opened, and the level
    count is checked by _same_levels and the pair taken by _pair before any
    frame is read; the reader is closed when the next sample is asked for.
    Once the files are exhausted, the count of volumes without a motion
    file is noted on stderr, and a corpus where no volume has one is a
    data error.
    """
    skipped, nz = 0, None
    for path, stem, ts in files:
        mf = _motion_for(path)
        if mf is None:
            skipped += 1
            continue
        with rvol.RvolReader(path) as reader:
            nz = _same_levels(path, reader.header.z, nz)
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
    # and its low/mid correlation are taken
    rows = {component: [] for component in ("both", "u", "v")}
    stamps, corrs = [], []
    for _, ts, reader, mf, (low, mid) in _motion_samples(files, args):
        sample = analysis.motion_sample(mf, reader)
        corrs.append(analysis.sample_pair_corr(sample, low, mid))
        stamps.append(ts)
        for component, kept in rows.items():
            kept += analysis.sample_rows(sample, component)
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
    """Split diagnostic: each volume's frames are treated as nowcast leads."""
    for path, stem, _ in files:
        with rvol.RvolReader(path) as reader:
            diag = analysis.cell_split_diagnostic(
                volume_to_rain(frame, 0) for frame in reader)
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


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, table = build_parser()
    try:
        args = _apply_config(parser, table, argv)
        if args.command == "synth":
            return _cmd_synth(args)
        if args.command == "estimate":
            return _cmd_estimate(args)
        if args.command == "nowcast":
            return _cmd_nowcast(args)
        if args.command == "verify":
            return _cmd_verify(args)
        return _cmd_analyze(args)
    except (FormatError, NoOverlapError, DivergedError, ValueError,
            OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        # a backstop: sizes a user controls are bounded before allocation
        detail = f": {exc}" if str(exc) else ""
        print(f"error: out of memory{detail}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
