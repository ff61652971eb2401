#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "bench.hpp"

namespace perfbench {

std::int32_t Tracer::begin(const char* name, std::uint64_t request,
                           std::int64_t start_ns) {
  Span span;
  span.name = name;
  span.start_ns = start_ns < 0 ? now_ns() : start_ns;
  span.parent = open_.empty() ? -1 : open_.back();
  span.request = request;
  const auto id = static_cast<std::int32_t>(spans_.size());
  spans_.push_back(span);
  open_.push_back(id);
  return id;
}

void Tracer::end(std::int32_t id, std::int64_t end_ns) {
  spans_[static_cast<std::size_t>(id)].end_ns = end_ns < 0 ? now_ns() : end_ns;
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

std::map<std::string, double> Tracer::totals_since(std::size_t first) const {
  std::map<std::string, double> totals;
  for (std::size_t i = first; i < spans_.size(); ++i)
    totals[spans_[i].name] += spans_[i].seconds();
  return totals;
}

std::vector<std::string> self_time_table(
    const std::vector<const Tracer*>& tracers, const std::string& root) {
  struct Row {
    std::size_t count = 0;
    std::int64_t self_ns = 0;
  };
  std::map<std::string, Row> rows;
  std::int64_t root_ns = 0;
  for (const Tracer* tracer : tracers) {
    const std::vector<Span>& spans = tracer->spans();
    // A span belongs to the table when its chain of parents ends at a
    // root of the requested name; parents precede children.
    std::vector<char> under(spans.size(), 0);
    std::vector<std::int64_t> self(spans.size(), 0);
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      const std::int64_t dur = s.end_ns - s.start_ns;
      const auto parent = static_cast<std::size_t>(s.parent);
      under[i] = s.parent < 0 ? (root == s.name) : under[parent];
      self[i] += dur;
      if (s.parent >= 0) self[parent] -= dur;
      if (s.parent < 0 && under[i]) root_ns += dur;
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
      if (!under[i]) continue;
      Row& row = rows[spans[i].name];
      ++row.count;
      row.self_ns += self[i];
    }
  }
  std::vector<std::pair<std::string, Row>> sorted(rows.begin(), rows.end());
  std::sort(sorted.begin(), sorted.end(), [](const auto& a, const auto& b) {
    return a.second.self_ns > b.second.self_ns;
  });
  std::vector<std::string> lines;
  char buf[160];
  std::snprintf(buf, sizeof buf, "self time under '%s' (%.4f s total)",
                root.c_str(), static_cast<double>(root_ns) * 1e-9);
  lines.emplace_back(buf);
  std::snprintf(buf, sizeof buf, "  %-22s %10s %12s %8s", "span", "count",
                "self_s", "share");
  lines.emplace_back(buf);
  double share_sum = 0.0;
  for (const auto& [name, row] : sorted) {
    const double share =
        root_ns > 0 ? static_cast<double>(row.self_ns) /
                          static_cast<double>(root_ns)
                    : 0.0;
    share_sum += share;
    std::snprintf(buf, sizeof buf, "  %-22s %10zu %12.6f %8.4f", name.c_str(),
                  row.count, static_cast<double>(row.self_ns) * 1e-9, share);
    lines.emplace_back(buf);
  }
  std::snprintf(buf, sizeof buf, "  %-22s %10s %12s %8.4f", "sum", "", "",
                share_sum);
  lines.emplace_back(buf);
  return lines;
}

bool write_spans(const std::vector<const Tracer*>& tracers,
                 const std::string& path) {
  const std::filesystem::path file(path);
  std::error_code ec;
  if (file.has_parent_path())
    std::filesystem::create_directories(file.parent_path(), ec);
  std::ofstream out(file);
  if (!out) return false;
  for (std::size_t t = 0; t < tracers.size(); ++t) {
    const std::vector<Span>& spans = tracers[t]->spans();
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      out << "{\"thread\":" << t << ",\"id\":" << i << ",\"name\":\""
          << s.name << "\",\"start_ns\":" << s.start_ns
          << ",\"end_ns\":" << s.end_ns << ",\"parent\":" << s.parent
          << ",\"request\":" << s.request << "}\n";
    }
  }
  out.flush();
  return static_cast<bool>(out);
}

}  // namespace perfbench
