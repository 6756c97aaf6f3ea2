"""
Ingesting citation CSVs and emitting reports
============================================

The long input format has one publication per row (header
``researcher,citations``, optional ``uncited_publications`` sidecar
column).  Parsed records flow through the same report objects the CLI
prints, in plain, csv or json-lines form.

Equivalent CLI calls:

    bibindex indices demos/data/alpha_beta.csv
    bibindex hcore demos/data/alpha_beta.csv --format csv
"""

import io
from pathlib import Path

from bibindex import (
    PartitionReport,
    ProfileReport,
    discipline_aggregate,
    emit_report,
    h_core_partition,
    index_profile,
    parse_citations_csv,
    records_to_csv,
)

data = Path(__file__).parent / "data" / "alpha_beta.csv"
with open(data, newline="", encoding="utf-8") as stream:
    records = parse_citations_csv(stream)

print(f"parsed {len(records)} researchers from {data.name}\n")

profiles = ProfileReport(tuple((r.researcher_id, index_profile(r)) for r in records))
print(emit_report(profiles, "plain"))
print()
print(emit_report(profiles, "json-lines"))
print()

rows = tuple((r.researcher_id, h_core_partition(r)) for r in records)
partitions = PartitionReport(rows, discipline_aggregate((part for _, part in rows), discipline="demo"))
print(emit_report(partitions, "csv"))
print()

# records serialize back to the same long format they were read from
text = records_to_csv(records)
assert parse_citations_csv(io.StringIO(text)) == records
print("round trip: serialize -> parse reproduces the records exactly")
