"""Command-line interface.

Subcommands mirror the analysis stages: score, f0, beats, histogram,
patterns, run. Success prints the requested artifact (or writes --out) and
exits 0; any failure prints a one-line JSON error object to stderr and
exits nonzero.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from functools import partial
from pathlib import Path

from . import report
from .beat_grid import load_beats
from .errors import RECOVERABLE_ERRORS, SorimirError, UsageError
from .histogram import BIN_MIDI, BIN_PITCH_CLASS, MODE_FACTORIES, f0_histogram, score_duration_histogram
from .patterns import DEFAULT_MIN_SUPPORT, DEFAULT_N_VALUES
from .pitch_track import (
    DEFAULT_FRAME_S,
    DEFAULT_HOP_S,
    DEFAULT_SEARCH_MAX_HZ,
    DEFAULT_SEARCH_MIN_HZ,
    DEFAULT_YIN_THRESHOLD,
    FilterConfig,
    estimate_f0_yin,
    export_f0_csv,
    filter_track,
    import_f0_csv,
    load_wav,
)
from .report import dump_json
from .score import event_records, note_sequence, parse_musicxml


def _write_or_print(text: str, out_path: str | None):
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", newline="\n") as fh:
            fh.write(text)


def _write_outputs(args, render_text, render_svg):
    """Write --out and/or --svg; with neither, print the artifact --format names. Each artifact
    is rendered (`render_*() -> str`) only if it is written or printed."""
    if args.out:
        _write_or_print(render_text(), args.out)
    if args.svg:
        _write_or_print(render_svg(), args.svg)
    if not (args.out or args.svg):
        sys.stdout.write(render_svg() if args.format == "svg" else render_text())


def _filter_args(parser: argparse.ArgumentParser):
    default = FilterConfig()
    parser.add_argument("--min-conf", type=float, default=default.min_confidence,
                        help="confidence gate; frames below are dropped (default %(default)s)")
    parser.add_argument("--min-hz", type=float, default=default.min_hz,
                        help="register gate; both bounds themselves are kept (default %(default)s)")
    parser.add_argument("--max-hz", type=float, default=default.max_hz,
                        help="upper register gate (default %(default)s)")


def _n_values(text: str) -> list[int]:
    """`--n`'s comma-separated n-gram lengths; an item that is not an integer, an empty one
    too, is a usage error that names the flag."""
    try:
        return [int(v) for v in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}") from None


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser, and through `parser_class` its subparsers, that raises UsageError."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="sorimir",
        description="Audio/transcription alignment and melodic-pattern analysis for solo vocal music.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # score
    p_score = sub.add_parser("score", help="MusicXML score operations")
    score_sub = p_score.add_subparsers(dest="score_command", required=True)
    p_dump = score_sub.add_parser("dump", help="dump the note-event table as JSON")
    p_dump.add_argument("--in", dest="infile", required=True)
    p_dump.add_argument("--no-merge-ties", action="store_true")
    p_dump.add_argument("--out")

    # f0
    p_f0 = sub.add_parser("f0", help="F0 track operations")
    f0_sub = p_f0.add_subparsers(dest="f0_command", required=True)
    p_ext = f0_sub.add_parser("extract", help="estimate F0 from a WAV file (YIN)")
    p_ext.add_argument("--in", dest="infile", required=True)
    p_ext.add_argument("--hop", type=float, default=DEFAULT_HOP_S)
    p_ext.add_argument("--frame", type=float, default=DEFAULT_FRAME_S)
    p_ext.add_argument("--search-min-hz", type=float, default=DEFAULT_SEARCH_MIN_HZ)
    p_ext.add_argument("--search-max-hz", type=float, default=DEFAULT_SEARCH_MAX_HZ)
    p_ext.add_argument("--threshold", type=float, default=DEFAULT_YIN_THRESHOLD)
    p_ext.add_argument("--out")
    p_imp = f0_sub.add_parser("import", help="validate and canonicalize an F0 CSV")
    p_imp.add_argument("--in", dest="infile", required=True)
    p_imp.add_argument("--out")
    p_fil = f0_sub.add_parser("filter", help="apply confidence and register gates")
    p_fil.add_argument("--in", dest="infile", required=True)
    _filter_args(p_fil)
    p_fil.add_argument("--out")

    # beats
    p_beats = sub.add_parser("beats", help="beat annotation operations")
    beats_sub = p_beats.add_subparsers(dest="beats_command", required=True)
    p_val = beats_sub.add_parser("validate", help="check a beats CSV against the jangdan spec")
    p_val.add_argument("--in", dest="infile", required=True)
    p_val.add_argument("--beats-per-measure", type=int,
                       default=report.DEFAULT_SETTINGS["beats_per_measure"])
    p_val.add_argument("--jangdan", default=report.DEFAULT_SETTINGS["jangdan"])

    # histogram
    p_hist = sub.add_parser("histogram", help="paired F0/score pitch histograms")
    p_hist.add_argument("--score", required=True)
    p_hist.add_argument("--f0", required=True, help="F0 CSV (time,frequency,confidence)")
    p_hist.add_argument("--mode", action="append", choices=sorted(MODE_FACTORIES),
                        help="mode template(s) to score; repeatable")
    p_hist.add_argument("--bin-kind", choices=(BIN_MIDI, BIN_PITCH_CLASS), default=BIN_MIDI)
    defaults = report.DEFAULT_SETTINGS
    p_hist.add_argument("--reference-hz", type=float, default=defaults["reference_hz"])
    p_hist.add_argument("--tuning-offset-cents", type=float, default=defaults["tuning_offset_cents"])
    p_hist.add_argument("--no-filter", action="store_true", help="histogram the track as-is")
    _filter_args(p_hist)
    p_hist.add_argument("--out", help="write the JSON report here")
    p_hist.add_argument("--svg", help="also write a paired bar chart here")
    p_hist.add_argument("--format", choices=("json", "svg"), default="json",
                        help="what to print when --out/--svg are not given")

    # patterns
    p_pat = sub.add_parser("patterns", help="n-gram mining and per-pattern analysis")
    pat_sub = p_pat.add_subparsers(dest="patterns_command", required=True)
    p_mine = pat_sub.add_parser("mine", help="mine n-grams across a directory of scores")
    p_mine.add_argument("--scores", required=True, help="directory of .musicxml/.xml files")
    p_mine.add_argument("--n", type=_n_values, default=",".join(map(str, DEFAULT_N_VALUES)),
                        help="comma-separated n-gram lengths (default 2,3,4,6)")
    p_mine.add_argument("--min-support", type=int, default=DEFAULT_MIN_SUPPORT)
    p_mine.add_argument("--skip-rests", action="store_true")
    p_mine.add_argument("--out")
    for name, help_text in (
        ("contours", "beat-aligned F0 contours of one pattern"),
        ("vibrato", "vibrato metrics of one pattern's occurrences"),
    ):
        p_c = pat_sub.add_parser(name, help=help_text)
        p_c.add_argument("--manifest", required=True, help="pipeline manifest with per-daemok inputs")
        p_c.add_argument("--pattern", required=True, help='token text, e.g. "G4:1/2 A4:1/2 C5:1/1"')
        p_c.add_argument("--out")
        if name == "contours":
            p_c.add_argument("--svg")
            p_c.add_argument("--format", choices=("csv", "svg"), default="csv")

    # run
    p_run = sub.add_parser("run", help="run the full pipeline from a manifest")
    p_run.add_argument("--manifest", required=True)
    p_run.add_argument("--out-dir")

    return parser


def _cmd_score(args) -> int:
    score = parse_musicxml(Path(args.infile).read_bytes())
    events = note_sequence(score, merge_ties=not args.no_merge_ties)
    record = {
        "daemok_id": score.daemok_id,
        "time_signature": str(score.time_signature),
        "divisions": score.divisions,
        "merge_ties": not args.no_merge_ties,
        "events": event_records(events),
    }
    _write_or_print(dump_json(record), args.out)
    return 0


def _cmd_f0(args) -> int:
    if args.f0_command == "extract":
        samples, sample_rate = load_wav(args.infile)
        track = estimate_f0_yin(
            samples,
            sample_rate,
            frame_s=args.frame,
            hop_s=args.hop,
            search_min_hz=args.search_min_hz,
            search_max_hz=args.search_max_hz,
            threshold=args.threshold,
        )
    else:
        track = import_f0_csv(Path(args.infile).read_text())
        if args.f0_command == "filter":
            track = filter_track(track, FilterConfig(args.min_conf, args.min_hz, args.max_hz))
    _write_or_print(export_f0_csv(track), args.out)
    return 0


def _cmd_beats(args) -> int:
    grid = load_beats(Path(args.infile).read_text(), args.beats_per_measure)
    sys.stdout.write(
        dump_json(
            {
                "ok": True,
                "jangdan": args.jangdan,
                "beats_per_measure": grid.beats_per_measure,
                "measures": grid.n_measures,
                "beats": grid.n_beats,
                "first_time_s": grid.times[0],
                "last_time_s": grid.times[-1],
            }
        )
    )
    return 0


def _cmd_histogram(args) -> int:
    score = parse_musicxml(Path(args.score).read_bytes())
    events = note_sequence(score, merge_ties=True)
    track = import_f0_csv(Path(args.f0).read_text())
    if not args.no_filter:
        track = filter_track(track, FilterConfig(args.min_conf, args.min_hz, args.max_hz))
    reference = report.reference_hz(
        {"reference_hz": args.reference_hz, "tuning_offset_cents": args.tuning_offset_cents}
    )

    f0_hist = f0_histogram(track, reference_hz=reference, bin_kind=args.bin_kind)
    score_hist = score_duration_histogram(events, bin_kind=args.bin_kind)
    record = report.histogram_record(score.daemok_id, f0_hist, score_hist, args.mode or [])
    record["reference_hz"] = reference
    _write_outputs(args, partial(dump_json, record),
                   partial(report.render_histogram_figure, f0_hist, score_hist))
    return 0


def _collect_score_events(directory: str) -> dict[str, list]:
    files = sorted(p for p in Path(directory).iterdir() if p.suffix.lower() in (".musicxml", ".xml"))
    if not files:
        raise SorimirError(f"no .musicxml/.xml files in {directory}")
    events_by_id, seen = {}, {}
    for p in files:
        if p.stem in seen:
            raise SorimirError(f"score id {p.stem!r} is given by both {seen[p.stem]} and {p}")
        seen[p.stem] = p
        with report._stage("score", p.stem):
            events_by_id[p.stem] = note_sequence(parse_musicxml(p.read_bytes()), merge_ties=True)
    return events_by_id


def _cmd_patterns(args) -> int:
    if args.patterns_command == "mine":
        settings = {"n_values": args.n, "min_support": args.min_support, "skip_rests": args.skip_rests}
        index = report.mine_index(_collect_score_events(args.scores), settings)
        chunks: list[str] = []
        report.pattern_index_record(index, chunks.append)
        _write_or_print("".join(chunks), args.out)
        return 0

    # contours | vibrato: `run`'s contour stage for one pattern, every setting from the manifest
    entries, settings = report.load_manifest(args.manifest)
    _, grids, tracks, index = report.load_corpus(entries, settings)
    _, artifacts = report.pattern_artifacts(index, args.pattern, grids, tracks, settings)
    if args.patterns_command == "contours":
        _write_outputs(args, artifacts["contours.csv"], artifacts["overlay.svg"])
    else:
        _write_or_print(artifacts["vibrato.json"](), args.out)
    return 0


def _cmd_run(args) -> int:
    summary = report.run_pipeline(args.manifest, out_dir=args.out_dir)
    sys.stdout.write(dump_json({"ok": True, **summary}))
    return 0


_COMMANDS = {
    "score": _cmd_score,
    "f0": _cmd_f0,
    "beats": _cmd_beats,
    "histogram": _cmd_histogram,
    "patterns": _cmd_patterns,
    "run": _cmd_run,
}


def main(argv=None) -> int:
    """Run one subcommand; a failure is one JSON line that also carries the warnings before it."""
    try:
        with warnings.catch_warnings(record=True) as caught:
            args = build_parser().parse_args(argv)
            code = _COMMANDS[args.command](args)
    except RECOVERABLE_ERRORS as exc:
        # numpy raises a private MemoryError subclass; the JSON names the public type.
        error = {"type": "MemoryError" if isinstance(exc, MemoryError) else type(exc).__name__,
                 "message": str(exc)}
        if caught:
            error["warnings"] = [str(w.message) for w in caught]
        sys.stderr.write(json.dumps({"error": error}) + "\n")
        return 1
    for w in caught:
        warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
    return code


if __name__ == "__main__":
    sys.exit(main())
