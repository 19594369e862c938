"""Run configuration, usage errors and machine-readable check reports."""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field, fields
from typing import get_type_hints

from .groebner import DEFAULT_TERM_CAP


class UsageError(ValueError):
    """Malformed input: a bad argument rather than a failed check."""


@dataclass
class Config:
    term_cap: int = DEFAULT_TERM_CAP
    seed: int = 0
    output: str = "text"
    timing: bool = False

    def __post_init__(self):
        for name, kind in get_type_hints(Config).items():
            if type(getattr(self, name)) is not kind:
                raise ValueError(f"config value {name}={getattr(self, name)!r} is not a {kind.__name__}")
        if self.term_cap < 1:
            raise ValueError("term_cap must be positive")
        if self.output not in ("json", "csv", "text"):
            raise ValueError(f"unknown output format {self.output!r}")

    @classmethod
    def read_settings(cls, path: str) -> dict:
        """The settings a JSON config file gives, checked against the fields."""
        with open(path) as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ValueError(f"config file {path} does not hold a JSON object")
        unknown = set(data) - {f.name for f in fields(cls)}
        if unknown:
            raise ValueError(f"unknown config keys {sorted(unknown)}")
        return data


@dataclass
class CheckRecord:
    name: str
    status: str
    witness: str = ""
    ms: int = 0


@dataclass
class Report:
    suite: str
    timing: bool = False
    checks: list[CheckRecord] = field(default_factory=list)

    def check(self, name: str, thunk):
        """Run ``thunk`` now and record its verdict, timing only the thunk.

        The thunk returns ``passed`` or ``(passed, witness)``. ``ms`` stays 0
        unless timing is on; an exception propagates and records nothing.
        """
        start = time.perf_counter()
        result = thunk()
        ms = int(round((time.perf_counter() - start) * 1000)) if self.timing else 0
        passed, witness = result if isinstance(result, tuple) else (result, "")
        self.checks.append(CheckRecord(name, "pass" if passed else "fail", witness, ms))

    def add_skipped(self, name: str, witness: str = ""):
        self.checks.append(CheckRecord(name, "skipped-ambiguous", witness, 0))

    def extend(self, other: "Report"):
        self.checks.extend(other.checks)

    @property
    def failed(self) -> list[CheckRecord]:
        return [c for c in self.checks if c.status == "fail"]

    @property
    def ok(self) -> bool:
        return not self.failed

    def to_json(self) -> str:
        return json.dumps(
            {
                "suite": self.suite,
                "checks": [asdict(c) for c in self.checks],
            },
            indent=2,
            sort_keys=False,
        )

    def to_text(self) -> str:
        lines = [f"suite: {self.suite}"]
        for c in self.checks:
            mark = {"pass": "PASS", "fail": "FAIL", "skipped-ambiguous": "SKIP"}[c.status]
            line = f"  [{mark}] {c.name}"
            if c.witness and c.status != "pass":
                line += f"  ({c.witness})"
            lines.append(line)
        npass = sum(1 for c in self.checks if c.status == "pass")
        nfail = len(self.failed)
        nskip = sum(1 for c in self.checks if c.status == "skipped-ambiguous")
        lines.append(f"  {npass} passed, {nfail} failed, {nskip} skipped-ambiguous")
        return "\n".join(lines)

    def to_csv(self) -> str:
        rows = ["suite,name,status,witness,ms"]
        for c in self.checks:
            witness = c.witness.replace('"', "'")
            rows.append(f'{self.suite},"{c.name}",{c.status},"{witness}",{c.ms}')
        return "\n".join(rows)

    def render(self, output: str) -> str:
        if output == "json":
            return self.to_json()
        if output == "csv":
            return self.to_csv()
        return self.to_text()
