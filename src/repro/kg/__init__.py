"""Knowledge-graph substrate: schema, synthetic generators, statistics,
and hexastore-style partitioned triple indices."""
