#include "src/workload/trace_io.h"

#include <algorithm>
#include <climits>
#include <cmath>
#include <cstdio>
#include <iomanip>
#include <sstream>

namespace dz {

namespace {

// Minimal field extractor for our flat one-line JSON objects: finds "key": and
// parses the number after it, which must be finite. An absent key is an error
// unless `optional` (then `value` keeps its default); a malformed number
// always is.
bool ExtractNumber(const std::string& line, const std::string& key, double& value,
                   bool optional = false) {
  const std::string needle = "\"" + key + "\":";
  const size_t pos = line.find(needle);
  if (pos == std::string::npos) {
    return optional;
  }
  const char* start = line.c_str() + pos + needle.size();
  char* end = nullptr;
  const double parsed = std::strtod(start, &end);
  if (end == start || !std::isfinite(parsed)) {
    return false;
  }
  value = parsed;
  return true;
}

// ExtractNumber for the integer fields: the number must also be integral and
// fit in an int, so the cast is defined.
bool ExtractInt(const std::string& line, const std::string& key, int& value,
                bool optional = false) {
  double parsed = value;
  if (!ExtractNumber(line, key, parsed, optional) || parsed != std::trunc(parsed) ||
      parsed < INT_MIN || parsed > INT_MAX) {
    return false;
  }
  value = static_cast<int>(parsed);
  return true;
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
      double version = 0;
      // The multi-tenant header field is optional (absent in pre-tenant files).
      out.n_tenants = 1;
      if (!ExtractNumber(line, "version", version) || version != 1.0 ||
          !ExtractInt(line, "n_models", out.n_models) ||
          !ExtractNumber(line, "duration", out.duration_s) ||
          !ExtractInt(line, "n_tenants", out.n_tenants, /*optional=*/true) ||
          out.n_tenants < 1) {
        return false;
      }
      have_header = true;
      continue;
    }
    TraceRequest r;
    // Optional per-request tenant/class fields (default: tenant 0, standard).
    int slo_class = static_cast<int>(SloClass::kStandard);
    if (!ExtractInt(line, "id", r.id) || !ExtractInt(line, "model", r.model_id) ||
        !ExtractNumber(line, "arrival", r.arrival_s) ||
        !ExtractInt(line, "prompt", r.prompt_tokens) ||
        !ExtractInt(line, "output", r.output_tokens) ||
        !ExtractInt(line, "tenant", r.tenant_id, /*optional=*/true) ||
        !ExtractInt(line, "class", slo_class, /*optional=*/true)) {
      return false;
    }
    if (r.model_id < 0 || r.model_id >= out.n_models || r.prompt_tokens < 1 ||
        r.output_tokens < 1 || r.arrival_s < 0 || r.tenant_id < 0 ||
        r.tenant_id >= out.n_tenants || slo_class < 0 || slo_class >= kNumSloClasses) {
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
