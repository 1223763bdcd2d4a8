"""POI acquisition (poi.client) and the catalog built from it (poi.catalog)."""

from .catalog import default_plan_path  # noqa: F401
from .client import load_plan  # noqa: F401
