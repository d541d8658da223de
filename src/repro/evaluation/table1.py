"""Table 1: features of the three datasets.

A descriptive mapping from the generic alarm-feature roles (Location,
Time, Type of Location, Incident Type, Label) to each dataset's concrete
column. The reproduction's check is semantic: every mapped column that
exists as data (rather than as a derivation rule) must actually exist in
the generated dataset's schema.
"""
from __future__ import annotations

import pandas as pd

# role -> (paper's column name, our generator's column name or None)
MAPPING: dict[str, dict[str, tuple[str, str | None]]] = {
    "Sitasys": {
        "Location": ("ZIP code", "zip_code"),
        "Time": ("Timestamp", "ts"),
        "Type of Location": ("ObjectType", "object_type"),
        "Incident Type": ("Alarm Type", "alarm_type"),
        "Label": ("Alarm Duration", "duration_s"),
    },
    "London": {
        "Location": ("ZIP code", "zip_code"),
        "Time": ("Date/TimeOfCall", "ts"),
        "Type of Location": ("PropertyType", "property_type"),
        "Incident Type": ("PropertyCategory", "property_category"),
        "Label": ("Incident Group", "incident_group"),
    },
    "San Francisco": {
        "Location": ("Zip code Of Incident", "zip_code"),
        "Time": ("ReceivedDtTm", "ts"),
        "Type of Location": ("-", None),  # absent, a key SF limitation
        "Incident Type": ("Call Type", "call_type"),
        "Label": ("Call Final Disposition", "call_final_disposition"),
    },
}


def compute() -> pd.DataFrame:
    """The table in the paper's layout: one row per dataset."""
    rows = []
    for dataset, roles in MAPPING.items():
        rows.append(
            {"Dataset": dataset, **{role: paper for role, (paper, _ours) in roles.items()}}
        )
    return pd.DataFrame(rows)
