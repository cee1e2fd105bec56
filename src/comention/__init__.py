"""Co-mention social network analysis toolkit.

Builds an undirected person graph from article co-mentions, scores it with
standard centralities, partitions it into Louvain communities, fits the
degree distribution's power-law tail, clusters communities into affiliation
types, and emits machine-readable reports for all of the above.
"""

from .errors import ConvergenceError, DataError
from .graph import (Graph, Partition, build_graph, clique_graph,
                    connected_components, density, diameter, write_edge_csv)
from .ingest import (AliasMap, Articles, ingest_stats, load_aliases,
                     load_articles, normalize_name, parse_articles)
from .centrality import (CentralityBundle, TopTable, betweenness_centrality,
                         closeness_centrality, clustering_coefficient,
                         compute_bundle, degree_centrality,
                         eigenvector_centrality, pearson_correlation, top_k,
                         top_table)
from .community import (CommunitySummary, InducedGraph, OTHER,
                        community_summary, filter_communities, induced_graph,
                        louvain, modularity, top_members)
from .powerlaw import DegreeDistribution, PowerLawFit, fit_loglog, fit_mle
from .typology import (CATEGORIES, CommunityProfile, KMeansResult, TypeTable,
                       build_profiles, kmeans, load_affiliations, type_table)
from .report import (AuditCheck, PipelineConfig, PipelineRun, ReportBundle,
                     audit, emit_plot_data, export_dot, export_graphml,
                     export_induced_graphml, read_graphml, run_pipeline)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
