#include "src/workload/trace_io.h"

#include <algorithm>
#include <cstdio>
#include <iomanip>
#include <sstream>

#include "src/util/parse.h"

namespace dz {

namespace {

// Minimal field extractor for our flat one-line JSON objects: finds "key":
// and reads the number after it (JSON whitespace may precede it) within
// `bounds`; a ',' or '}' must follow it. An absent key is an error unless
// `optional` (then `value` keeps its default).
template <typename T>
bool Extract(const std::string& line, const std::string& key, NumberBounds bounds,
             T& value, bool optional = false) {
  const std::string needle = "\"" + key + "\":";
  const size_t at = line.find(needle);
  if (at == std::string::npos) {
    return optional;
  }
  size_t pos = line.find_first_not_of(" \t\r\n", at + needle.size());
  return ScanNumber(line, pos, bounds, value) && pos < line.size() &&
         (line[pos] == ',' || line[pos] == '}');
}

}  // namespace

std::string TraceToJsonl(const Trace& trace) {
  // Tenant/class fields are emitted only when the trace actually uses them, so
  // single-tenant all-standard traces serialize byte-identically to the
  // pre-tenant format (and remain readable by older parsers).
  bool tenanted = trace.n_tenants > 1;
  for (const auto& r : trace.requests) {
    tenanted = tenanted || r.tenant_id != 0 || r.slo != SloClass::kStandard;
  }
  std::ostringstream os;
  os << std::setprecision(12);
  os << "{\"type\":\"dz-trace\",\"version\":1,\"n_models\":" << trace.n_models;
  if (tenanted) {
    os << ",\"n_tenants\":" << trace.n_tenants;
  }
  os << ",\"duration\":" << trace.duration_s << "}\n";
  for (const auto& r : trace.requests) {
    os << "{\"id\":" << r.id << ",\"model\":" << r.model_id;
    if (tenanted) {
      os << ",\"tenant\":" << r.tenant_id << ",\"class\":" << static_cast<int>(r.slo);
    }
    os << ",\"arrival\":" << r.arrival_s << ",\"prompt\":" << r.prompt_tokens
       << ",\"output\":" << r.output_tokens << "}\n";
  }
  return os.str();
}

bool TraceFromJsonl(const std::string& text, Trace& out) {
  std::istringstream is(text);
  std::string line;
  bool have_header = false;
  out = Trace();
  while (std::getline(is, line)) {
    if (line.empty()) {
      continue;
    }
    if (!have_header) {
      if (line.find("\"dz-trace\"") == std::string::npos) {
        return false;
      }
      int version = 0;
      // The multi-tenant header field is optional (absent in pre-tenant files).
      out.n_tenants = 1;
      if (!Extract(line, "version", {1, 1}, version) ||
          !Extract(line, "n_models", {1, kMaxModels}, out.n_models) ||
          !Extract(line, "duration", {}, out.duration_s) ||
          !Extract(line, "n_tenants", {1, kMaxTenants}, out.n_tenants,
                   /*optional=*/true)) {
        return false;
      }
      have_header = true;
      continue;
    }
    TraceRequest r;
    // Optional per-request tenant/class fields (default: tenant 0, standard).
    int slo_class = static_cast<int>(SloClass::kStandard);
    if (!Extract(line, "id", {}, r.id) ||
        !Extract(line, "model", {0, out.n_models - 1.0}, r.model_id) ||
        !Extract(line, "arrival", {0}, r.arrival_s) ||
        !Extract(line, "prompt", {1}, r.prompt_tokens) ||
        !Extract(line, "output", {1}, r.output_tokens) ||
        !Extract(line, "tenant", {0, out.n_tenants - 1.0}, r.tenant_id,
                 /*optional=*/true) ||
        !Extract(line, "class", {0, kNumSloClasses - 1.0}, slo_class,
                 /*optional=*/true)) {
      return false;
    }
    r.slo = static_cast<SloClass>(slo_class);
    out.requests.push_back(r);
  }
  if (!have_header) {
    return false;
  }
  std::sort(out.requests.begin(), out.requests.end(),
            [](const TraceRequest& a, const TraceRequest& b) {
              return a.arrival_s < b.arrival_s;
            });
  // Ids must be unique: downstream consumers (shard merging, report joins) key
  // on them, and the serving/cluster layers DZ_CHECK the invariant.
  std::vector<int> ids;
  ids.reserve(out.requests.size());
  for (const auto& r : out.requests) {
    ids.push_back(r.id);
  }
  std::sort(ids.begin(), ids.end());
  if (std::adjacent_find(ids.begin(), ids.end()) != ids.end()) {
    return false;
  }
  return true;
}

bool WriteTraceFile(const std::string& path, const Trace& trace) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  const std::string text = TraceToJsonl(trace);
  const size_t written = std::fwrite(text.data(), 1, text.size(), f);
  std::fclose(f);
  return written == text.size();
}

bool ReadTraceFile(const std::string& path, Trace& out) {
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) {
    return false;
  }
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fseek(f, 0, SEEK_SET);
  std::string text(static_cast<size_t>(std::max(0L, size)), '\0');
  const size_t read = std::fread(text.data(), 1, text.size(), f);
  std::fclose(f);
  if (read != text.size()) {
    return false;
  }
  return TraceFromJsonl(text, out);
}

}  // namespace dz
