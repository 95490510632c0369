"""Task substrate: the benchmark's NC/LP task registry (paper Table II)
and the time-based / stratified-random train/valid/test splitters."""
