"""HGNN training substrate (driver-local numpy; see DESIGN.md layering
note): triples→adjacency transformation, RGCN (Eq. 1) with one
GraphSAINT-style mini-batch trainer (full-batch training is its case with
every vertex a root), and a TransE link-prediction trainer."""
