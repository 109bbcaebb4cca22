"""The run record: a command's stage timings, outputs and warnings, written last as manifest.json."""

from __future__ import annotations

import hashlib
import json
import time
import warnings
from pathlib import Path

from hiermf import __version__
from hiermf.util import write_json_atomic


class Manifest:
    """Collects the stage timings and outputs of a run; written atomically last."""

    def __init__(self, out_dir: Path, command: str):
        self.out_dir = out_dir
        self.command = command
        self.stages: dict[str, float] = {}
        self.outputs: list[str] = []
        self._t0 = time.perf_counter()
        self._stage_start = self._t0

    @property
    def path(self) -> Path:
        return self.out_dir / "manifest.json"

    def remove_stale(self):
        """Delete an earlier run's manifest, so a run that fails leaves none behind."""
        try:
            self.path.unlink(missing_ok=True)
        except OSError as exc:
            raise ValueError(f"cannot remove {self.path}: {exc.strerror}") from exc

    def stage(self, name: str):
        now = time.perf_counter()
        self.stages[name] = round(now - self._stage_start, 6)
        self._stage_start = now

    def record(self, name: str | Path) -> Path:
        """Path of output `name`, given relative to the run directory, listed as an output."""
        self.outputs.append(str(name))
        return self.out_dir / name

    def write(self, config: dict, warning_messages: list[str]):
        digest = hashlib.sha256(
            json.dumps(config, sort_keys=True, default=str).encode()
        ).hexdigest()
        payload = {
            "version": __version__,
            "command": self.command,
            "config": config,
            "config_sha256": digest,
            "wall_clock_seconds": round(time.perf_counter() - self._t0, 6),
            "stage_seconds": self.stages,
            "warnings": warning_messages,
            "outputs": sorted(self.outputs),
        }
        write_json_atomic(self.path, payload)


def _messages(caught: list[warnings.WarningMessage]) -> list[str]:
    """Each distinct warning message once, in first-seen order."""
    return list(dict.fromkeys(str(w.message) for w in caught))
