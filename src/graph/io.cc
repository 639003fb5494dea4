#include "graph/io.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "util/artifact_io.h"
#include "util/fault_injection.h"

namespace lightne {

namespace {
// NodeId is 32 bits and a graph holds ids 0 .. num_vertices - 1, so
// num_vertices is at most kMaxVertices and an id at most kMaxVertices - 1.
constexpr uint64_t kMaxVertices = 0xffffffffull;

std::string LineError(const std::string& path, uint64_t line_no,
                      const std::string& what) {
  return path + ":" + std::to_string(line_no) + ": " + what;
}

/// Parses a base-10 unsigned integer at *p (first char must be a digit —
/// strtoull's tolerance for signs/whitespace is not wanted here) and
/// advances *p past it. Overflow saturates to ULLONG_MAX, which the callers
/// reject as out-of-range.
bool ParseUint(const char** p, uint64_t* out) {
  const char* s = *p;
  if (*s < '0' || *s > '9') return false;
  char* end = nullptr;
  *out = std::strtoull(s, &end, 10);
  *p = end;
  return true;
}

/// Requires and consumes at least one space/tab at *p.
bool SkipFieldSeparator(const char** p) {
  const char* s = *p;
  if (*s != ' ' && *s != '\t') return false;
  while (*s == ' ' || *s == '\t') ++s;
  *p = s;
  return true;
}

void SkipSpace(const char** p) {
  while (**p == ' ' || **p == '\t') ++(*p);
}

/// Parses a float at *p and advances past it. Rejects empty matches.
bool ParseFloat(const char** p, float* out) {
  char* end = nullptr;
  *out = std::strtof(*p, &end);
  if (end == *p) return false;
  *p = end;
  return true;
}

/// Prepares one fgets buffer for parsing: verifies the line fit the buffer,
/// strips the trailing "\n" / "\r\n", and skips leading blanks. Returns
/// false with *error set if the line was longer than the buffer.
bool PrepareLine(char* line, size_t cap, std::FILE* f, const std::string& path,
                 uint64_t line_no, const char** first, Status* error) {
  size_t len = std::strlen(line);
  if (len + 1 == cap && line[len - 1] != '\n' && !std::feof(f)) {
    *error = Status::InvalidArgument(
        LineError(path, line_no, "line longer than 4095 bytes"));
    return false;
  }
  while (len > 0 && (line[len - 1] == '\n' || line[len - 1] == '\r')) {
    line[--len] = '\0';
  }
  const char* p = line;
  SkipSpace(&p);
  *first = p;
  return true;
}

/// Shared loader core; `weighted` selects the third-column handling. Both
/// loaders tolerate an optional numeric weight column so weighted files can
/// be read as unweighted graphs; only the weighted loader validates it.
template <typename List, typename AddEdge>
Result<List> LoadEdgeListTextImpl(const std::string& path, bool weighted,
                                  const AddEdge& add_edge) {
  if (LIGHTNE_FAULT_POINT("io/read")) {
    return Status::IOError("injected fault io/read while reading " + path);
  }
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) return Status::IOError("cannot open " + path);
  List list;
  char line[4096];
  uint64_t line_no = 0;
  NodeId max_id = 0;
  uint64_t max_id_line = 0;  // the first line holding max_id; 0: no edges
  bool declared_nodes = false;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    ++line_no;
    const char* p = nullptr;
    Status line_error = Status::Ok();
    if (!PrepareLine(line, sizeof(line), f, path, line_no, &p, &line_error)) {
      std::fclose(f);
      return line_error;
    }
    if (*p == '\0') continue;  // blank line (covers CRLF-only lines)
    if (*p == '#' || *p == '%') {
      unsigned long long n = 0;
      if (std::sscanf(p, "# nodes: %llu", &n) == 1 ||
          std::sscanf(p, "# Nodes: %llu", &n) == 1) {
        if (n > kMaxVertices) {
          std::fclose(f);
          return Status::OutOfRange(
              LineError(path, line_no, "declared node count exceeds 2^32 - 1"));
        }
        list.num_vertices = static_cast<NodeId>(n);
        declared_nodes = true;
      }
      continue;
    }
    uint64_t u = 0, v = 0;
    if (!ParseUint(&p, &u) || !SkipFieldSeparator(&p) || !ParseUint(&p, &v)) {
      std::fclose(f);
      return Status::InvalidArgument(LineError(
          path, line_no, weighted ? "expected \"u v [w]\" with numeric ids"
                                  : "expected \"u v\" with numeric ids"));
    }
    float w = 1.0f;
    SkipSpace(&p);
    if (*p != '\0') {  // optional weight column
      if (!ParseFloat(&p, &w)) {
        std::fclose(f);
        return Status::InvalidArgument(
            LineError(path, line_no, "garbage after edge endpoints"));
      }
      SkipSpace(&p);
      if (*p != '\0') {
        std::fclose(f);
        return Status::InvalidArgument(
            LineError(path, line_no, "trailing garbage after edge fields"));
      }
    }
    if (u >= kMaxVertices || v >= kMaxVertices) {
      std::fclose(f);
      return Status::OutOfRange(
          LineError(path, line_no, "vertex id exceeds 2^32 - 2"));
    }
    if (weighted && !(w > 0.0f)) {
      std::fclose(f);
      return Status::InvalidArgument(
          LineError(path, line_no, "non-positive edge weight"));
    }
    add_edge(&list, static_cast<NodeId>(u), static_cast<NodeId>(v), w);
    const NodeId hi = static_cast<NodeId>(std::max(u, v));
    if (max_id_line == 0 || hi > max_id) {
      max_id = hi;
      max_id_line = line_no;
    }
  }
  const bool read_error = std::ferror(f) != 0;
  std::fclose(f);
  if (read_error) return Status::IOError("read error in " + path);
  if (!declared_nodes) {
    list.num_vertices = list.edges.empty() ? 0 : max_id + 1;
  } else if (max_id_line > 0 && max_id >= list.num_vertices) {
    // The declaration may follow the edges, so the ids are checked here.
    return Status::OutOfRange(LineError(
        path, max_id_line,
        "vertex id " + std::to_string(max_id) +
            " not below the declared node count " +
            std::to_string(list.num_vertices)));
  }
  return list;
}

Status SaveEdgeListTextOnce(const EdgeList& list, const std::string& path) {
  // All savers write through AtomicFileWriter: bytes land in `<path>.tmp`
  // and only an all-or-nothing Commit() renames onto `path`, so neither a
  // write failure nor a crash mid-save can leave a partial file behind.
  AtomicFileWriter writer;
  LIGHTNE_RETURN_IF_ERROR(writer.Open(path));
  std::FILE* f = writer.stream();
  std::fprintf(f, "# nodes: %" PRIu64 "\n",
               static_cast<uint64_t>(list.num_vertices));
  if (LIGHTNE_FAULT_POINT("io/write")) {
    return Status::IOError("injected fault io/write while writing " + path);
  }
  for (const auto& [u, v] : list.edges) {
    if (std::fprintf(f, "%u %u\n", u, v) < 0) {
      return Status::IOError("short write to " + path);
    }
  }
  return writer.Commit();
}

Status SaveWeightedEdgeListTextOnce(const WeightedEdgeList& list,
                                    const std::string& path) {
  AtomicFileWriter writer;
  LIGHTNE_RETURN_IF_ERROR(writer.Open(path));
  std::FILE* f = writer.stream();
  std::fprintf(f, "# nodes: %" PRIu64 "\n",
               static_cast<uint64_t>(list.num_vertices));
  if (LIGHTNE_FAULT_POINT("io/write")) {
    return Status::IOError("injected fault io/write while writing " + path);
  }
  for (const auto& [u, v, w] : list.edges) {
    if (std::fprintf(f, "%u %u %.6g\n", u, v, w) < 0) {
      return Status::IOError("short write to " + path);
    }
  }
  return writer.Commit();
}

}  // namespace

Result<EdgeList> LoadEdgeListText(const std::string& path,
                                  const RetryOptions& retry) {
  return RetryResultWithBackoff<EdgeList>(
      [&] {
        return LoadEdgeListTextImpl<EdgeList>(
            path, /*weighted=*/false,
            [](EdgeList* list, NodeId u, NodeId v, float) {
              list->Add(u, v);
            });
      },
      retry);
}

Status SaveEdgeListText(const EdgeList& list, const std::string& path,
                        const RetryOptions& retry) {
  return RetryWithBackoff([&] { return SaveEdgeListTextOnce(list, path); },
                          retry);
}

Result<WeightedEdgeList> LoadWeightedEdgeListText(const std::string& path,
                                                  const RetryOptions& retry) {
  return RetryResultWithBackoff<WeightedEdgeList>(
      [&] {
        return LoadEdgeListTextImpl<WeightedEdgeList>(
            path, /*weighted=*/true,
            [](WeightedEdgeList* list, NodeId u, NodeId v, float w) {
              list->Add(u, v, w);
            });
      },
      retry);
}

Status SaveWeightedEdgeListText(const WeightedEdgeList& list,
                                const std::string& path,
                                const RetryOptions& retry) {
  return RetryWithBackoff(
      [&] { return SaveWeightedEdgeListTextOnce(list, path); }, retry);
}

}  // namespace lightne
