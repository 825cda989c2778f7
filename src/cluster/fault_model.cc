#include "src/cluster/fault_model.h"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <string_view>
#include <utility>

#include "src/util/check.h"
#include "src/util/parse.h"

namespace dz {

namespace {

// One spec token, e.g. "crash@30:w2" or "slow@10-50:w1x0.5".
bool ParseToken(const std::string& tok, FaultPlan& plan) {
  if (tok.rfind("detect=", 0) == 0) {
    return ParseNumber(std::string_view(tok).substr(7), {0}, plan.detection_delay_s);
  }
  if (tok == "reroute=0" || tok == "reroute=1") {
    plan.reroute = tok.back() == '1';
    return true;
  }
  const size_t at = tok.find('@');
  if (at == std::string::npos) {
    return false;
  }
  const std::string kind = tok.substr(0, at);
  size_t pos = at + 1;
  double t1 = 0.0;
  if (!ScanNumber(tok, pos, {0}, t1)) {
    return false;
  }
  double t2 = t1;
  const bool window = pos < tok.size() && tok[pos] == '-';
  if (window) {
    ++pos;
    if (!ScanNumber(tok, pos, {t1, std::numeric_limits<double>::max(), true}, t2)) {
      return false;
    }
  }
  if (pos + 1 >= tok.size() || tok[pos] != ':' || tok[pos + 1] != 'w') {
    return false;
  }
  pos += 2;
  int worker = 0;
  if (!ScanNumber(tok, pos, {0}, worker)) {
    return false;
  }
  double mult = 1.0;
  if (pos < tok.size() && tok[pos] == 'x') {
    ++pos;
    if (!ScanNumber(tok, pos, {0, 1, true}, mult)) {
      return false;
    }
  }
  if (pos != tok.size()) {
    return false;
  }
  if (kind == "crash" && !window) {
    plan.events.push_back({t1, FaultType::kCrash, worker, 1.0});
  } else if (kind == "recover" && !window) {
    plan.events.push_back({t1, FaultType::kRecover, worker, 1.0});
  } else if (kind == "slow" && window) {
    plan.events.push_back({t1, FaultType::kSlowStart, worker, mult});
    plan.events.push_back({t2, FaultType::kSlowEnd, worker, 1.0});
  } else if (kind == "part" && window) {
    plan.events.push_back({t1, FaultType::kPartitionStart, worker, 1.0});
    plan.events.push_back({t2, FaultType::kPartitionEnd, worker, 1.0});
  } else {
    return false;
  }
  return true;
}

// Plain decimal with nine places, the resolution the spec round-trip keeps,
// trailing zeros trimmed so "30.000000000" prints as the "30" a user wrote.
std::string FormatNum(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9f", v);
  std::string s(buf);
  while (!s.empty() && s.back() == '0') {
    s.pop_back();
  }
  if (!s.empty() && s.back() == '.') {
    s.pop_back();
  }
  return s.empty() ? "0" : s;
}

}  // namespace

bool ParseFaultPlan(const std::string& spec, FaultPlan& out) {
  FaultPlan plan;
  size_t start = 0;
  while (start <= spec.size()) {
    size_t comma = spec.find(',', start);
    if (comma == std::string::npos) {
      comma = spec.size();
    }
    const std::string tok = spec.substr(start, comma - start);
    if (!tok.empty() && !ParseToken(tok, plan)) {
      return false;
    }
    start = comma + 1;
  }
  std::stable_sort(plan.events.begin(), plan.events.end(),
                   [](const FaultEvent& a, const FaultEvent& b) {
                     return a.t_s < b.t_s;
                   });
  out = std::move(plan);
  return true;
}

std::string FaultPlanToSpec(const FaultPlan& plan) {
  std::string spec;
  const auto append = [&spec](const std::string& tok) {
    if (!spec.empty()) {
      spec += ',';
    }
    spec += tok;
  };
  // Pair each window-start with the first unconsumed matching end for the same
  // worker (events are time-sorted, so this undoes ParseFaultPlan's expansion).
  std::vector<char> consumed(plan.events.size(), 0);
  for (size_t i = 0; i < plan.events.size(); ++i) {
    if (consumed[i]) {
      continue;
    }
    const FaultEvent& ev = plan.events[i];
    if (ev.type == FaultType::kCrash) {
      append("crash@" + FormatNum(ev.t_s) + ":w" + std::to_string(ev.worker));
    } else if (ev.type == FaultType::kRecover) {
      append("recover@" + FormatNum(ev.t_s) + ":w" + std::to_string(ev.worker));
    } else if (ev.type == FaultType::kSlowStart ||
               ev.type == FaultType::kPartitionStart) {
      const FaultType end_type = ev.type == FaultType::kSlowStart
                                     ? FaultType::kSlowEnd
                                     : FaultType::kPartitionEnd;
      size_t j = i + 1;
      while (j < plan.events.size() &&
             !(consumed[j] == 0 && plan.events[j].type == end_type &&
               plan.events[j].worker == ev.worker)) {
        ++j;
      }
      if (j == plan.events.size()) {
        continue;  // unmatched start: not representable in the grammar
      }
      consumed[j] = 1;
      std::string tok = (ev.type == FaultType::kSlowStart ? "slow@" : "part@");
      tok += FormatNum(ev.t_s) + "-" + FormatNum(plan.events[j].t_s) + ":w" +
             std::to_string(ev.worker);
      if (ev.type == FaultType::kSlowStart) {
        tok += "x" + FormatNum(ev.multiplier);
      }
      append(tok);
    }
    // Bare kSlowEnd/kPartitionEnd events (unmatched) are unrepresentable and
    // dropped; ParseFaultPlan never produces them.
  }
  append("detect=" + FormatNum(plan.detection_delay_s));
  if (!plan.reroute) {
    append("reroute=0");
  }
  return spec;
}

}  // namespace dz
