"""Exception hierarchy for the CANELy reproduction."""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this library."""


class ConfigurationError(ReproError):
    """Invalid protocol or network configuration."""


class FrameError(ReproError):
    """Malformed CAN frame or identifier."""


class BusError(ReproError):
    """Illegal bus usage (e.g. two data frames with the same identifier)."""


class ProtocolError(ReproError):
    """A CANELy protocol was driven outside its specified state machine."""


class MembershipError(ProtocolError):
    """Invalid membership operation (e.g. joining twice)."""


class ScenarioError(ReproError):
    """A scripted scenario could not be executed as specified.

    Raised, for example, when a cold-start bootstrap does not converge.
    Campaign workers catch this to classify a scenario as
    ``bootstrap_failed`` instead of pattern-matching assertion text.
    """


class CampaignError(ReproError):
    """A campaign ended without a result for every scenario. Bad campaign
    arguments are a :class:`ConfigurationError`."""


class CheckError(ReproError):
    """The systematic checker was driven with an invalid configuration,
    or a counterexample artifact is malformed/stale."""
