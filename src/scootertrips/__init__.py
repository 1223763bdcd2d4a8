"""Reconstruct shared e-scooter trips from fleet-availability snapshots, link
endpoints to points of interest, and aggregate trip purposes by POI group."""

__version__ = "0.1.0"

from .geo import Bbox, GeoPoint  # noqa: F401
from .trips import CleaningRules, TripTable  # noqa: F401
