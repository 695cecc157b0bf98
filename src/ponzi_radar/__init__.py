"""Bitcoin Ponzi scheme detection pipeline.

Parse a transaction log, cluster addresses with the multi-input heuristic,
extract per-cluster behavioral features, train imbalance-aware classifiers,
evaluate them with stratified cross-validation, and rank feature relevance.
Each stage is a module (`ponzi_radar.chain`, `.clustering`, `.features`,
`.dataset`, `.learn`, `.evaluate`, `.rank`, `.synth`); `ponzi_radar.cli` runs
them as subcommands.
"""

__version__ = "0.1.0"
