"""Frame-level diarization timelines and RTTM records."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

#: Seconds per timeline frame: 10 ms, the rate of every timeline and mask.
FRAME_DURATION = 0.01


def check_rttm_field(name: str, value) -> None:
    """Refuse a value that RTTM text would not read back as one field."""
    if not isinstance(value, str) or value.split() != [value]:
        raise ValueError(f"{name} must be a non-empty string without whitespace, got {value!r}")


@dataclass
class RttmRecord:
    """One speaker turn: file id, onset and duration in seconds, speaker label."""

    file_id: str
    onset: float
    duration: float
    speaker: str

    def __post_init__(self):
        check_rttm_field("file id", self.file_id)
        check_rttm_field("speaker", self.speaker)
        if not 0 <= self.onset < np.inf:
            raise ValueError(f"onset {self.onset} must be finite and non-negative")
        if not 0 < self.duration < np.inf:
            raise ValueError(f"duration {self.duration} must be finite and positive")

    @property
    def end(self) -> float:
        return self.onset + self.duration


def write_rttm(records) -> str:
    """Render records as RTTM text, one 'SPEAKER' line per turn."""
    lines = [
        f"SPEAKER {r.file_id} 1 {r.onset:.3f} {r.duration:.3f} <NA> <NA> {r.speaker} <NA> <NA>"
        for r in records
    ]
    return "".join(line + "\n" for line in lines)


def read_rttm(text: str) -> list[RttmRecord]:
    """Parse RTTM text; malformed lines raise with their line number."""
    records = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        fields = line.split()
        if len(fields) != 10:
            raise ValueError(f"line {lineno}: expected 10 fields, got {len(fields)}")
        if fields[0] != "SPEAKER":
            raise ValueError(f"line {lineno}: expected SPEAKER record, got {fields[0]!r}")
        try:
            onset = float(fields[3])
            duration = float(fields[4])
        except ValueError:
            raise ValueError(f"line {lineno}: onset/duration are not numbers") from None
        try:
            records.append(RttmRecord(fields[1], onset, duration, fields[7]))
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
    return records


@dataclass
class DiarizationTimeline:
    """Per-frame speaker labels, at most two speakers per frame.

    primary[i] is the main community label of frame i (-1 = non-speech);
    secondary[i] is the overlap label (-1 = none). A secondary label can
    only exist on a speech frame. Frames are FRAME_DURATION long.
    """

    primary: np.ndarray
    secondary: np.ndarray = field(default=None)

    def __post_init__(self):
        self.primary = np.asarray(self.primary, dtype=np.int64)
        if self.secondary is None:
            self.secondary = np.full(self.primary.shape, -1, dtype=np.int64)
        self.secondary = np.asarray(self.secondary, dtype=np.int64)
        if self.secondary.shape != self.primary.shape:
            raise ValueError("secondary labels must match the number of frames")
        if ((self.secondary >= 0) & (self.primary < 0)).any():
            raise ValueError("secondary label on a non-speech frame")

    def to_records(self, file_id: str) -> list[RttmRecord]:
        """Merge contiguous same-speaker frames into RTTM records "spk<label>".

        Onsets and durations land on the millisecond grid; records come out
        sorted by onset, then speaker label.
        """
        # Distinct labels by a sort and a neighbour mask, faster than np.unique here.
        labels = np.sort(np.concatenate([self.primary, self.secondary]))
        records = []
        for label in labels[(labels >= 0) & (np.diff(labels, prepend=-1) != 0)]:
            active = (self.primary == label) | (self.secondary == label)
            padded = np.concatenate([[False], active, [False]])
            start, stop = np.flatnonzero(padded[1:] != padded[:-1]).reshape(-1, 2).T
            # np.round, as round() on a numpy float; Python's float round differs.
            onsets = np.round(start * FRAME_DURATION, 3).tolist()
            durations = np.round((stop - start) * FRAME_DURATION, 3).tolist()
            speaker = f"spk{label}"
            records.extend(RttmRecord(file_id, onset, duration, speaker)
                           for onset, duration in zip(onsets, durations))
        records.sort(key=lambda r: (r.onset, r.speaker))
        return records
