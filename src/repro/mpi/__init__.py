"""Simulated MPI: SPMD world, communicators and collectives."""

from .comm import Communicator, Interconnect, MpiError, RankComm
from .runtime import RankContext, World

__all__ = [
    "Communicator",
    "Interconnect",
    "MpiError",
    "RankComm",
    "RankContext",
    "World",
]
