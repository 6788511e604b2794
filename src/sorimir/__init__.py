"""Audio/transcription alignment and melodic-pattern analysis for solo vocal music."""

__version__ = "0.1.0"  # first, so that submodules can import it

from .beat_grid import BeatGrid, ScoreGrid, TrackSegment, load_beats, slice_track
from .errors import SorimirError
from .histogram import (
    ModeTemplate,
    PitchHistogram,
    f0_histogram,
    gyemyeonjo,
    mode_affinity,
    score_duration_histogram,
    ujo,
)
from .patterns import (
    Contour,
    NGramPattern,
    PatternIndex,
    PatternOccurrence,
    VibratoMetrics,
    find_post_rest_long_notes,
    mine_ngrams,
    occurrence_contours,
    occurrence_vibrato,
    onset_glide,
    tokenize,
    vibrato_metrics,
)
from .pitch_track import (
    F0Track,
    FilterConfig,
    estimate_f0_yin,
    filter_track,
    hz_to_cents,
    import_f0_csv,
    load_wav,
)
from .report import render_contour_overlay, render_histogram_figure, run_pipeline
from .score import (
    Measure,
    NoteEvent,
    Pitch,
    Score,
    TimeSignature,
    note_sequence,
    parse_musicxml,
    parse_pitch_name,
    pitch_from_midi,
    pitch_name,
)
