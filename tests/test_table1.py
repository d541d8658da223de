"""Table 1 reproduction tests: the dataset-feature mapping is real."""
from __future__ import annotations

import pytest

from repro.evaluation import table1


def test_table_layout():
    t = table1.compute()
    assert list(t["Dataset"]) == ["Sitasys", "London", "San Francisco"]
    assert list(t.columns) == [
        "Dataset", "Location", "Time", "Type of Location", "Incident Type", "Label"
    ]


@pytest.mark.parametrize(
    "dataset,paper_label",
    [
        ("Sitasys", "Alarm Duration"),
        ("London", "Incident Group"),
        ("San Francisco", "Call Final Disposition"),
    ],
)
def test_label_sources(dataset, paper_label):
    assert table1.MAPPING[dataset]["Label"][0] == paper_label


def test_sf_has_no_property_type():
    assert table1.MAPPING["San Francisco"]["Type of Location"] == ("-", None)


def test_mapped_columns_exist_sitasys(sitasys_pdf):
    for role, (_paper, col) in table1.MAPPING["Sitasys"].items():
        if col is not None:
            assert col in sitasys_pdf.columns, (role, col)


def test_mapped_columns_exist_london(london_pdf):
    for role, (_paper, col) in table1.MAPPING["London"].items():
        if col is not None:
            assert col in london_pdf.columns, (role, col)


def test_mapped_columns_exist_sf(sf_pdf):
    for role, (_paper, col) in table1.MAPPING["San Francisco"].items():
        if col is not None:
            assert col in sf_pdf.columns, (role, col)
