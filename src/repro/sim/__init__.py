"""Discrete-event simulation kernel (engine, resources, RNG streams)."""

from .engine import (
    AllOf,
    AnyOf,
    Engine,
    Event,
    Interrupt,
    Process,
    SimRace,
    SimRaceError,
    SimulationError,
    Timeout,
)
from .resources import Semaphore, Server, SlotChannel
from .rng import RngStreams

__all__ = [
    "AllOf",
    "AnyOf",
    "Engine",
    "Event",
    "Interrupt",
    "Process",
    "SimRace",
    "SimRaceError",
    "SimulationError",
    "Timeout",
    "Semaphore",
    "Server",
    "SlotChannel",
    "RngStreams",
]
