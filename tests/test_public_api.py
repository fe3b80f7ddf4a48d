"""The ``repro`` package facade: eager core names, lazy subsystem names.

``import repro`` must stay cheap (the core protocol classes only); the
campaign/check/obs surfaces resolve on first attribute access and are
cached. ``__all__``/``dir()`` advertise everything, so tab completion and
star-imports see one coherent API.
"""

import importlib
import sys

import pytest

import repro


def test_version_bumped_for_the_new_surface():
    # 2.0.0 removed facade names without replacement; 2.1.0 moved the
    # node API onto the exported MembershipNode base and removed
    # deep-module duplicates; 2.2.0 changed the bus.deliver trace row and
    # with it the artifact/fingerprint format; 3.0.0 took a keyword off a
    # facade signature (run_until_settled's idle_skip); 3.1.0 changed the
    # span taxonomy (one can.rx per frame, one fd.surveillance per group)
    # and marked the Chrome export with it; 3.2.0 gave add_data_ind its
    # collective form and put SWIM's silence clocks on the shared table;
    # 4.0.0 removed the backend adapter classes, the node being the
    # contract; 5.0.0 removed a CLI command and flags and two
    # ScenarioBuilder methods; 5.1.0 took the batch keyword off the deep
    # JsonlSink; 6.0.0 removed the remote campaign executor, the
    # Executor classes and the executor= keywords; 7.0.0 removed
    # CampaignSpec.monitors and run_schedule's monitors=; 8.0.0 removed
    # TraceRecorder's enabled/capacity modes and EventQueue's pop/peek_time/
    # clear; 8.1.0 added add_sink's categories= and
    # InvariantMonitor.categories (docs/api.md).
    major, minor, _patch = repro.__version__.split(".")
    assert (int(major), int(minor)) >= (8, 1)


def test_core_names_are_eager():
    for name in ("CanelyNetwork", "CanelyConfig", "CanelyNode",
                 "MembershipNode", "MembershipView", "MembershipChange",
                 "NodeSet"):
        assert name in repro.__dict__, f"{name} should not be lazy"


@pytest.mark.parametrize(
    "name, module",
    [
        ("ScenarioBuilder", "repro.workloads"),
        ("FrameMatch", "repro.workloads"),
        ("run_campaign", "repro.campaign"),
        ("CampaignSpec", "repro.campaign"),
        ("default_workers", "repro.campaign"),
        ("CheckSweep", "repro.check"),
        ("ScheduleSpace", "repro.check"),
        ("explore", "repro.check"),
        ("run_selftest", "repro.check"),
        ("replay_artifact", "repro.check"),
        ("minimize_schedule", "repro.check"),
        ("standard_monitors", "repro.obs"),
        ("InvariantViolation", "repro.obs"),
    ],
)
def test_lazy_exports_resolve_to_their_modules(name, module):
    resolved = getattr(repro, name)
    canonical = getattr(importlib.import_module(module), name)
    assert resolved is canonical
    # Cached after first access: no repeated import machinery.
    assert repro.__dict__[name] is canonical


def test_all_names_resolve():
    for name in repro.__all__:
        assert getattr(repro, name) is not None


def test_dir_advertises_lazy_names():
    listing = dir(repro)
    for name in ("run_campaign", "CheckSweep", "standard_monitors",
                 "ScenarioBuilder"):
        assert name in listing


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        repro.no_such_name


def test_import_repro_does_not_drag_in_subsystems():
    """The lazy facade's point: a fresh ``import repro`` must not import
    the campaign/check machinery."""
    import pathlib
    import subprocess

    code = (
        "import sys, repro; "
        "heavy = [m for m in sys.modules if m.startswith("
        "('repro.campaign', 'repro.check'))]; "
        "sys.exit(1 if heavy else 0)"
    )
    root = pathlib.Path(__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
        cwd=root,
    )
    assert proc.returncode == 0
