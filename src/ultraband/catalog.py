"""ATT&CK/D3FEND pairings and the voice-command survey data.

Two small CSV datasets ship with the package:

* ``attack_catalog.csv`` -- 20 offensive techniques relevant to inaudible
  voice command delivery, each paired with a defensive technique. IDs are
  kept verbatim from the source transcription even where they drift from
  current published MITRE numbering; this module validates shape, not
  upstream registry membership.
* ``command_survey.csv`` -- 50 voice commands tried both as normal audio
  and as near-ultrasound injections (the ``nuit`` arm), with per-command
  outcomes.
"""

from __future__ import annotations

import csv
import io
import re
from dataclasses import astuple, dataclass, fields
from importlib import resources
from typing import Iterable, List, Optional, Sequence

from .errors import EmptyInput, ParseError, opened

ATTACK_ID_PATTERN = re.compile(r"^T\d{4}$")
DEFEND_ID_PATTERN = re.compile(r"^D3-T\d{4}$")

OUTCOMES = ("fail", "trigger", "success")

_TRUE_WORDS = {"yes", "true", "1"}
_FALSE_WORDS = {"no", "false", "0"}


@dataclass(frozen=True)
class CatalogEntry:
    """One attack technique and the defensive technique that counters it."""

    attack_tactic: str
    attack_technique_id: str
    attack_technique_name: str
    defend_tactic: str
    defend_technique_id: str
    defend_technique_name: str
    ultrasonic_applicable: bool


@dataclass(frozen=True)
class CommandRecord:
    """Outcome of one command under both delivery arms.

    ``wrong_command`` marks trigger-only cases where the assistant woke but
    heard a different command than the one sent.
    """

    id: int
    command: str
    original_outcome: str
    nuit_outcome: str
    wrong_command: bool


#: CSV columns, in file order: the fields of the record each row holds.
_CATALOG_FIELDS = [f.name for f in fields(CatalogEntry)]
_SURVEY_FIELDS = [f.name for f in fields(CommandRecord)]


@dataclass(frozen=True)
class ArmTotals:
    """Outcome counts for one delivery arm, with display percentages."""

    fail_n: int
    trigger_n: int
    success_n: int

    @property
    def total(self) -> int:
        return self.fail_n + self.trigger_n + self.success_n

    # exact fractions, for arithmetic
    @property
    def fail_fraction(self) -> float:
        return self.fail_n / self.total

    @property
    def trigger_fraction(self) -> float:
        return self.trigger_n / self.total

    @property
    def success_fraction(self) -> float:
        return self.success_n / self.total

    # whole-percent values, for report display
    @property
    def fail_pct(self) -> int:
        return round(100.0 * self.fail_fraction)

    @property
    def trigger_pct(self) -> int:
        return round(100.0 * self.trigger_fraction)

    @property
    def success_pct(self) -> int:
        return round(100.0 * self.success_fraction)


@dataclass(frozen=True)
class SurveyTotals:
    original: ArmTotals
    nuit: ArmTotals


def _bundled(name: str):
    return resources.files("ultraband.data").joinpath(name)


def _open_rows(path, expected_fields: Sequence[str], what: str):
    with opened(_bundled(what) if path is None else path, "r", encoding="utf-8", newline="") as fh:
        text = fh.read()
    reader = csv.DictReader(io.StringIO(text, newline=""))
    if reader.fieldnames is None:
        raise ParseError(f"{path or what}: empty file, expected a header row")
    if list(reader.fieldnames) != list(expected_fields):
        raise ParseError(
            f"{path or what}: header {reader.fieldnames} does not match {list(expected_fields)}"
        )
    return reader


def _parse_bool(raw: str, where: str) -> bool:
    word = raw.strip().lower()
    if word in _TRUE_WORDS:
        return True
    if word in _FALSE_WORDS:
        return False
    raise ParseError(f"{where}: expected yes/no, got {raw!r}")


def load_catalog(path=None) -> List[CatalogEntry]:
    """Load catalog entries from ``path`` (default: the bundled dataset).

    Every row is validated: nonempty fields, T####/D3-T#### ID shapes, and
    no duplicate (attack, defend) pairing. Errors carry row and column.
    """
    entries: List[CatalogEntry] = []
    seen = set()
    for row_no, row in enumerate(_open_rows(path, _CATALOG_FIELDS, "attack_catalog.csv"), start=2):
        values = {name: (row.get(name) or "").strip() for name in _CATALOG_FIELDS}
        for name, value in values.items():
            if not value:
                raise ParseError(f"row {row_no}, column '{name}': empty value")
        for name, pattern, shape in (
            ("attack_technique_id", ATTACK_ID_PATTERN, "T####"),
            ("defend_technique_id", DEFEND_ID_PATTERN, "D3-T####"),
        ):
            if not pattern.match(values[name]):
                raise ParseError(f"row {row_no}, column '{name}': {values[name]!r} is not {shape}")
        pair = (values["attack_technique_id"], values["defend_technique_id"])
        if pair in seen:
            raise ParseError(f"row {row_no}: duplicate pairing {pair}")
        seen.add(pair)
        values["ultrasonic_applicable"] = _parse_bool(
            row["ultrasonic_applicable"], f"row {row_no}, column 'ultrasonic_applicable'"
        )
        entries.append(CatalogEntry(**values))
    return entries


def _save_rows(records: Iterable, path, fieldnames: Sequence[str], yes_no: tuple) -> None:
    """Write dataclass records as CSV, one column per field, with booleans
    spelled as the file's own ``(true word, false word)``."""
    with opened(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(fieldnames)
        for record in records:
            writer.writerow(
                [(yes_no[0] if v else yes_no[1]) if isinstance(v, bool) else v
                 for v in astuple(record)]
            )


def save_catalog(entries: Iterable[CatalogEntry], path) -> None:
    """Write entries as CSV; load_catalog(save_catalog(e)) round-trips."""
    _save_rows(entries, path, _CATALOG_FIELDS, ("yes", "no"))


def pair_defense(
    attack_technique_id: str, entries: Optional[Sequence[CatalogEntry]] = None
) -> List[CatalogEntry]:
    """All catalog rows for one attack technique ID; unknown IDs give []."""
    if entries is None:
        entries = load_catalog()
    return [e for e in entries if e.attack_technique_id == attack_technique_id]


def load_survey(path=None) -> List[CommandRecord]:
    """Load command survey rows from ``path`` (default: bundled dataset).

    Validates outcome values, unique nonnegative IDs, and the rule that
    ``wrong_command`` may only be set on rows whose nuit outcome is
    ``trigger`` (a wrong command implies the assistant did wake up).
    """
    records: List[CommandRecord] = []
    seen_ids = set()
    for row_no, row in enumerate(_open_rows(path, _SURVEY_FIELDS, "command_survey.csv"), start=2):
        values = {name: (row.get(name) or "").strip() for name in _SURVEY_FIELDS}
        try:
            cmd_id = int(values["id"])
        except ValueError:
            raise ParseError(
                f"row {row_no}, column 'id': {values['id']!r} is not an integer"
            ) from None
        if cmd_id < 0:
            raise ParseError(f"row {row_no}, column 'id': {cmd_id} is negative")
        if cmd_id in seen_ids:
            raise ParseError(f"row {row_no}, column 'id': duplicate id {cmd_id}")
        seen_ids.add(cmd_id)
        if not values["command"]:
            raise ParseError(f"row {row_no}, column 'command': empty value")
        for field in ("original_outcome", "nuit_outcome"):
            if values[field] not in OUTCOMES:
                raise ParseError(
                    f"row {row_no}, column '{field}': {values[field]!r} not one of {OUTCOMES}"
                )
        wrong = _parse_bool(row.get("wrong_command") or "", f"row {row_no}, column 'wrong_command'")
        if wrong and values["nuit_outcome"] != "trigger":
            raise ParseError(
                f"row {row_no}, column 'wrong_command': set on a non-trigger outcome"
            )
        records.append(CommandRecord(**{**values, "id": cmd_id, "wrong_command": wrong}))
    return records


def save_survey(records: Iterable[CommandRecord], path) -> None:
    """Write records as CSV; load_survey(save_survey(r)) round-trips."""
    _save_rows(records, path, _SURVEY_FIELDS, ("true", "false"))


def _tally(outcomes: Iterable[str]) -> ArmTotals:
    counts = {o: 0 for o in OUTCOMES}
    for o in outcomes:
        counts[o] += 1
    return ArmTotals(fail_n=counts["fail"], trigger_n=counts["trigger"], success_n=counts["success"])


def aggregate_survey(records: Sequence[CommandRecord]) -> SurveyTotals:
    """Count outcomes per arm. Raises EmptyInput on an empty record list."""
    if not records:
        raise EmptyInput("no survey records to aggregate")
    return SurveyTotals(
        original=_tally(r.original_outcome for r in records),
        nuit=_tally(r.nuit_outcome for r in records),
    )
