"""Golden serving fingerprint: the front-end's bytes, pinned across commits.

The serving tests elsewhere replay a run twice in one process and
compare; that proves determinism, not stability.  This gate pins the
SHA-256 of the serving outputs to a checked-in file, so a change to the
session loop that reorders a single pick (and with it every simulated
byte downstream) fails here even when each run is self-consistent:

* the default multi-tenant run's report JSON;
* both arms of the overload experiment at 120 sessions — report JSON,
  dashboard JSON and the governor's action log;
* each arm's loop-iteration count (monitor ticks minus the closing one).

Regenerate intentionally (after a PR that is *supposed* to change the
simulated world) with:

    REPRO_REGEN_GOLDEN=1 python -m pytest tests/test_golden_serving.py
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib

import pytest

from repro.obs import dashboard_json
from repro.serve import ServeConfig, build_frontend, run_serving
from repro.serve.overload import build_overload_db, overload_config

GOLDEN_PATH = pathlib.Path(__file__).parent / "golden" / "serving.json"
SCALE = 0.02
SEED = 42
OVERLOAD_SESSIONS = 120


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _overload_arm(governor: bool) -> dict:
    config = overload_config(SEED, OVERLOAD_SESSIONS, governor=governor)
    frontend = build_frontend(config, db=build_overload_db(SEED, scale=SCALE))
    monitor = frontend.monitor
    ticks = 0
    tick = monitor.tick

    def counting_tick(now):
        nonlocal ticks
        ticks += 1
        tick(now)

    monitor.tick = counting_tick
    report = frontend.run()
    actions = frontend.governor.actions if frontend.governor else []
    return {
        "report_sha256": _sha256(report.to_json()),
        "dashboard_sha256": _sha256(
            dashboard_json(monitor, governor=frontend.governor)
        ),
        "governor_actions_sha256": _sha256(
            json.dumps(actions, sort_keys=True)
        ),
        "loop_iterations": ticks - 1,  # the last tick closes the epoch
    }


def compute_fingerprint() -> dict:
    report = run_serving(ServeConfig(seed=SEED), scale=SCALE)
    return {
        "scale": SCALE,
        "seed": SEED,
        "serving_report_sha256": _sha256(report.to_json()),
        "overload_sessions": OVERLOAD_SESSIONS,
        "overload": {
            "governor_off": _overload_arm(governor=False),
            "governor_on": _overload_arm(governor=True),
        },
    }


def test_serving_matches_golden():
    fingerprint = compute_fingerprint()
    if os.environ.get("REPRO_REGEN_GOLDEN"):
        GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
        GOLDEN_PATH.write_text(json.dumps(fingerprint, indent=2) + "\n")
        pytest.skip(f"golden serving fingerprint regenerated at {GOLDEN_PATH}")
    assert GOLDEN_PATH.exists(), (
        f"missing golden file {GOLDEN_PATH}; regenerate with "
        "REPRO_REGEN_GOLDEN=1"
    )
    golden = json.loads(GOLDEN_PATH.read_text())
    assert fingerprint == golden, (
        "serving output drifted from the checked-in golden fingerprint; "
        "if the drift is intentional, regenerate with REPRO_REGEN_GOLDEN=1 "
        "and say so in the change description"
    )
