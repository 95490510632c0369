"""The paper's contribution: the TOSG generic graph pattern and the three
extraction mechanisms (BRW, IBS, SPARQL/BGP-based) plus the URW baseline."""
