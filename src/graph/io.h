// Graph persistence: whitespace-separated edge-list text files (the format
// used by SNAP/WDC dumps the paper loads).
//
// All entry points take a RetryOptions and transparently retry transient
// failures (kIOError) with bounded exponential backoff; parse errors
// (kInvalidArgument / kOutOfRange) surface immediately. Savers write through
// AtomicFileWriter (util/artifact_io.h): bytes go to `<path>.tmp` and are
// atomically renamed onto `path` only after fsync, so neither a write
// failure nor a crash mid-save can leave a partial or torn file at `path`.
#ifndef LIGHTNE_GRAPH_IO_H_
#define LIGHTNE_GRAPH_IO_H_

#include <string>

#include "graph/edge_list.h"
#include "graph/weighted_csr.h"
#include "util/retry.h"
#include "util/status.h"

namespace lightne {

/// Reads "u v" pairs, one per line; '#' or '%' lines are comments, blank
/// lines (including CRLF-only) are skipped. Vertex count is max id + 1
/// unless the file declares "# nodes: N" (anywhere in the file). Malformed
/// data lines yield kInvalidArgument naming the offending line number. The
/// CSR builders' range contract yields kOutOfRange naming the line: an id
/// of 2^32 - 1 or more, a declared N above 2^32 - 1, or an id not below the
/// declared N.
Result<EdgeList> LoadEdgeListText(const std::string& path,
                                  const RetryOptions& retry = {});

/// Writes one "u v" line per edge.
Status SaveEdgeListText(const EdgeList& list, const std::string& path,
                        const RetryOptions& retry = {});

/// Reads "u v w" triples (weight optional per line; defaults to 1.0).
/// Same comment/blank/CRLF handling, strict parsing and id range checks as
/// LoadEdgeListText.
Result<WeightedEdgeList> LoadWeightedEdgeListText(
    const std::string& path, const RetryOptions& retry = {});

/// Writes one "u v w" line per edge.
Status SaveWeightedEdgeListText(const WeightedEdgeList& list,
                                const std::string& path,
                                const RetryOptions& retry = {});

}  // namespace lightne

#endif  // LIGHTNE_GRAPH_IO_H_
