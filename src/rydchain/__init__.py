"""Exact simulator for pulsed Rydberg-chain state preparation and transport.

Names are imported from their modules (``rydchain.protocols``,
``rydchain.montecarlo``, ...); the package root holds only the version.
"""

__version__ = "0.1.0"
