"""The soak harness and its exit contract.

``run_soak`` is one harness for both servers; ``main`` turns its report
into the exit code CI gates on: 0 when clean, 1 on a silently wrong
answer, an unstructured failure or no success at all, 2 on a deadlock.
The fleet soak is exercised in ``tests/serve/test_fleet.py``.
"""

import os
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

import repro
from repro.runtime.deadline import Deadline
from repro.serve import soak
from repro.serve.request import MultiplyRequest, ResponseHandle, ServeReport


def test_short_single_server_soak_is_clean(tmp_path):
    report = soak.run_soak(
        seconds=3.0,
        clients=2,
        n=96,
        include_sharded=False,
        state_root=str(tmp_path),
    )
    assert report["ok"] > 0
    assert report["silent_wrong"] == 0
    assert report["unstructured_failures"] == 0
    assert report["unresolved"] == 0
    assert not report["deadlocked"]
    assert report["workers"] == 0
    assert set(report["variants"]) == {
        "plain-cake",
        "plain-goto",
        "threaded",
        "bitflip-heal",
        "detect-raise",
    }
    assert report["requests"] == sum(
        v["requests"] for v in report["variants"].values()
    )
    assert report["server"]["completed"] == report["ok"]


def test_the_soak_module_runs_without_runpy_warnings():
    # ``python -m repro.serve.soak`` imports ``repro.serve`` first; if the
    # package imported the soak module eagerly, runpy would warn in the
    # parent and again in every spawned shard worker.
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, "-m", "repro.serve.soak", "--seconds", "3"],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert "RuntimeWarning" not in proc.stderr, proc.stderr


class _StrandingServer:
    """Admits every request and never answers it (a wedged server)."""

    instances: list = []

    def __init__(self, *args, **kwargs) -> None:
        self.submitted: list[dict] = []
        _StrandingServer.instances.append(self)

    def start(self):
        return self

    def stop(self, *, drain=True, timeout=None) -> None:
        pass

    def stats(self):
        return SimpleNamespace(as_dict=dict)

    def submit(self, a, b, **kwargs) -> ResponseHandle:
        self.submitted.append(kwargs)
        budget = kwargs.get("deadline")
        return ResponseHandle(
            MultiplyRequest(a, b),
            ServeReport(request_id=len(self.submitted)),
            None if budget is None else Deadline.after(budget),
            time.monotonic(),
        )


def test_a_stranded_handle_is_a_deadlock_not_a_deadline(
    monkeypatch, tmp_path
):
    # A fleet-style deadline far shorter than the result wait: were the
    # single-server soak to send it, the handle would resolve itself as
    # deadline_exceeded and hide the stranded request.
    monkeypatch.setattr(soak, "MultiplyServer", _StrandingServer)
    monkeypatch.setattr(soak, "RESULT_TIMEOUT_SECONDS", 0.5)
    _StrandingServer.instances.clear()
    report = soak.run_soak(
        seconds=0.2,
        clients=2,
        n=32,
        include_sharded=False,
        state_root=str(tmp_path),
        deadline=0.05,
    )
    assert report["deadlocked"]
    assert report["unresolved"] == report["requests"] > 0
    assert report["deadline_exceeded"] == 0
    (server,) = _StrandingServer.instances
    assert all("deadline" not in kwargs for kwargs in server.submitted)


def _report(**overrides) -> dict:
    clean = {
        "requests": 10,
        "ok": 10,
        "shed": 0,
        "deadline_exceeded": 0,
        "structured_failures": 0,
        "unstructured_failures": 0,
        "silent_wrong": 0,
        "unresolved": 0,
        "deadlocked": False,
    }
    return {**clean, **overrides}


@pytest.mark.parametrize(
    "overrides,code",
    [
        ({}, 0),
        ({"ok": 7, "shed": 2, "structured_failures": 1}, 0),
        ({"ok": 9, "silent_wrong": 1}, 1),
        ({"ok": 9, "unstructured_failures": 1}, 1),
        ({"ok": 0, "shed": 10}, 1),
        ({"ok": 9, "unresolved": 1, "deadlocked": True}, 2),
        ({"silent_wrong": 1, "deadlocked": True}, 2),
    ],
)
def test_main_exit_contract(monkeypatch, capsys, overrides, code):
    calls = []

    def fake_run_soak(**kwargs):
        calls.append(kwargs)
        return _report(**overrides)

    monkeypatch.setattr(soak, "run_soak", fake_run_soak)
    assert soak.main(["--seconds", "1", "--fleet", "2"]) == code
    assert calls == [
        {
            "seconds": 1.0,
            "clients": 3,
            "n": 192,
            "include_sharded": True,
            "fleet": 2,
        }
    ]
    err = capsys.readouterr().err
    assert ("SOAK FAILED" in err) == (code != 0)
