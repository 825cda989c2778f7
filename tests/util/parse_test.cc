#include "src/util/parse.h"

#include <cstdint>
#include <cstdlib>
#include <limits>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/cluster/fault_model.h"
#include "src/cluster/placement.h"
#include "src/registry/registry.h"
#include "src/serving/scheduler.h"
#include "src/util/json.h"
#include "src/workload/trace.h"
#include "src/workload/trace_io.h"
#include "tests/cluster/random_fault_plan.h"

namespace dz {
namespace {

// ParseNumber accepts `text` and reads exactly `want`.
template <typename T>
void ExpectReads(const char* text, T want, NumberBounds bounds = {}) {
  T out{};
  EXPECT_TRUE(ParseNumber(text, bounds, out)) << text;
  EXPECT_EQ(out, want) << text;
}

// ParseNumber rejects `text` and leaves `out` as it was.
template <typename T>
void ExpectRejects(const char* text, NumberBounds bounds = {}) {
  T out = static_cast<T>(1);
  EXPECT_FALSE(ParseNumber(text, bounds, out)) << text;
  EXPECT_EQ(out, static_cast<T>(1)) << text;
}

// Spellings every type rejects: signs other than a leading '-', whitespace,
// hex, empty text, trailing characters, words.
constexpr const char* kNeverNumbers[] = {
    "",    "-",     "+1",   " 1",  "1 ",  "\t1", "1\n", "0x10", "0X10", "abc",
    "10abc", "1,5", "--1",  "1-",  "inf", "nan", "-inf", "infinity", "NaN", "1_000"};

TEST(ParseNumberTest, IntegersAreDecimalDigitsAfterAnOptionalMinus) {
  ExpectReads<int>("0", 0);
  ExpectReads<int>("7", 7);
  ExpectReads<int>("-12", -12);
  ExpectReads<int>("-0", 0);
  ExpectReads<int>("007", 7);
  ExpectReads<int>("2147483647", std::numeric_limits<int>::max());
  ExpectReads<int>("-2147483648", std::numeric_limits<int>::min());
  ExpectReads<long long>("9223372036854775807", std::numeric_limits<long long>::max());
  ExpectReads<long long>("-9223372036854775808", std::numeric_limits<long long>::min());
  ExpectReads<uint64_t>("18446744073709551615", std::numeric_limits<uint64_t>::max());
  for (const char* bad : kNeverNumbers) {
    ExpectRejects<int>(bad);
    ExpectRejects<long long>(bad);
    ExpectRejects<uint64_t>(bad);
  }
  // No fraction or exponent, even when the value is integral.
  for (const char* bad : {"1.0", "1.", ".5", "1e3", "1E0", "4.5"}) {
    ExpectRejects<int>(bad);
    ExpectRejects<long long>(bad);
    ExpectRejects<uint64_t>(bad);
  }
  // Overflow is an error, not a clamp or a wrap.
  ExpectRejects<int>("2147483648");
  ExpectRejects<int>("-2147483649");
  ExpectRejects<int>("99999999999");
  ExpectRejects<long long>("9223372036854775808");
  ExpectRejects<uint64_t>("18446744073709551616");
  ExpectRejects<uint64_t>("-1");
  ExpectRejects<uint64_t>("-0");
}

TEST(ParseNumberTest, BoolsAreZeroOrOne) {
  ExpectReads<bool>("0", false);
  ExpectReads<bool>("1", true);
  for (const char* bad : kNeverNumbers) {
    ExpectRejects<bool>(bad);
  }
  for (const char* bad : {"2", "-1", "10", "1.0", "0.5", "true", "false", "yes"}) {
    ExpectRejects<bool>(bad);
  }
  // Bounds narrow [0, 1] further, never widen it.
  ExpectRejects<bool>("0", {1, 1});
  ExpectRejects<bool>("2", {0, 5});
}

TEST(ParseNumberTest, RealsAreFiniteGeneralFormat) {
  ExpectReads<double>("0", 0.0);
  ExpectReads<double>("1.5", 1.5);
  ExpectReads<double>("-2.25", -2.25);
  ExpectReads<double>(".5", 0.5);
  ExpectReads<double>("5.", 5.0);
  ExpectReads<double>("0.1", 0.1);
  ExpectReads<double>("1e-7", 1e-7);
  ExpectReads<double>("1E3", 1e3);
  ExpectReads<double>("1e+20", 1e20);
  ExpectReads<double>("6.02e23", 6.02e23);
  ExpectReads<double>("1.7976931348623157e308", std::numeric_limits<double>::max());
  for (const char* bad : kNeverNumbers) {
    ExpectRejects<double>(bad);
  }
  for (const char* bad : {".", "e5", "1e", "1e+", "0x1p3", "1.2.3", "1e309", "-1e309",
                          "1..5"}) {
    ExpectRejects<double>(bad);
  }
}

TEST(ParseNumberTest, ClosedAndOpenBounds) {
  ExpectReads<int>("1", 1, {1, 4});
  ExpectReads<int>("4", 4, {1, 4});
  ExpectRejects<int>("0", {1, 4});
  ExpectRejects<int>("5", {1, 4});
  ExpectRejects<int>("-1", {0});
  ExpectReads<int>("0", 0, {0});
  // (0, 1]: the lower end itself is out, anything above it in.
  ExpectRejects<double>("0", {0, 1, true});
  ExpectRejects<double>("-0", {0, 1, true});
  ExpectReads<double>("1e-300", 1e-300, {0, 1, true});
  ExpectReads<double>("1", 1.0, {0, 1, true});
  ExpectRejects<double>("1.0000001", {0, 1, true});
  ExpectRejects<int>("1", {1, 4, true});
  ExpectReads<int>("2", 2, {1, 4, true});
  // A bound inside the type's range cuts before the type's own limit does.
  ExpectReads<long long>("2147483647", 2147483647, {1, 2147483647.0});
  ExpectRejects<long long>("2147483648", {1, 2147483647.0});
  ExpectReads<uint64_t>("256", 256, {1});
  ExpectRejects<uint64_t>("0", {1});
}

TEST(ScanNumberTest, FailureLeavesPosAndOutUntouched) {
  for (const char* bad : {"", "x", "+1", "-", " 1", "nan", "99999999999"}) {
    size_t pos = 0;
    int out = 42;
    EXPECT_FALSE(ScanNumber(bad, pos, {}, out)) << bad;
    EXPECT_EQ(pos, 0u) << bad;
    EXPECT_EQ(out, 42) << bad;
  }
  for (const char* bad : {"", "x", "+1", "-", " 1", "nan", ".", "1.5e999"}) {
    size_t pos = 0;
    double out = 4.5;
    EXPECT_FALSE(ScanNumber(bad, pos, {}, out)) << bad;
    EXPECT_EQ(pos, 0u) << bad;
    EXPECT_EQ(out, 4.5) << bad;
  }
  // Out of bounds mid-text.
  size_t pos = 2;
  int out = 42;
  EXPECT_FALSE(ScanNumber("w:9,", pos, {0, 4}, out));
  EXPECT_EQ(pos, 2u);
  EXPECT_EQ(out, 42);
  // At or past the end.
  pos = 4;
  EXPECT_FALSE(ScanNumber("w:9,", pos, {}, out));
  pos = 5;
  EXPECT_FALSE(ScanNumber("w:9,", pos, {}, out));
  EXPECT_EQ(pos, 5u);
  EXPECT_EQ(out, 42);
  // ParseNumber: a valid prefix with trailing text changes nothing.
  EXPECT_FALSE(ParseNumber("12x", {}, out));
  EXPECT_EQ(out, 42);
}

// A scan stops where the number's spelling ends, so the spec grammars can
// split "T1-T2", "k,m" and "KxM" around it.
TEST(ScanNumberTest, PrefixScanStopsWhereTheNumberEnds) {
  size_t pos = 0;
  double t1 = 0.0;
  double t2 = 0.0;
  ASSERT_TRUE(ScanNumber("10-50", pos, {0}, t1));
  EXPECT_EQ(pos, 2u);
  ++pos;
  ASSERT_TRUE(ScanNumber("10-50", pos, {0}, t2));
  EXPECT_EQ(pos, 5u);
  EXPECT_EQ(t1, 10.0);
  EXPECT_EQ(t2, 50.0);

  pos = 0;
  int k = 0;
  int m = 0;
  ASSERT_TRUE(ScanNumber("4,2", pos, {0}, k));
  EXPECT_EQ(pos, 1u);
  ++pos;
  ASSERT_TRUE(ScanNumber("4,2", pos, {0}, m));
  EXPECT_EQ(pos, 3u);
  EXPECT_EQ(k, 4);
  EXPECT_EQ(m, 2);

  pos = 0;
  int worker = 0;
  double mult = 0.0;
  ASSERT_TRUE(ScanNumber("1x0.5", pos, {0}, worker));
  EXPECT_EQ(pos, 1u);
  ++pos;
  ASSERT_TRUE(ScanNumber("1x0.5", pos, {0, 1, true}, mult));
  EXPECT_EQ(pos, 5u);
  EXPECT_EQ(worker, 1);
  EXPECT_EQ(mult, 0.5);

  // An integer scan stops at a fraction or exponent; a real scan takes them.
  pos = 0;
  ASSERT_TRUE(ScanNumber("1e5,", pos, {}, worker));
  EXPECT_EQ(pos, 1u);
  pos = 0;
  ASSERT_TRUE(ScanNumber("1e5,", pos, {}, mult));
  EXPECT_EQ(pos, 3u);
  EXPECT_EQ(mult, 1e5);
  pos = 0;
  ASSERT_TRUE(ScanNumber("1.25}", pos, {}, mult));
  EXPECT_EQ(pos, 4u);
  // A 'e' with no exponent digits is not part of the number.
  pos = 0;
  ASSERT_TRUE(ScanNumber("30e:w1", pos, {}, mult));
  EXPECT_EQ(pos, 2u);
}

// `values` lists every enumerator of E in declaration order (the enums count
// from 0, and the value past the last one has no name), and each name reads
// back through ParseName to its enumerator. An unknown name fails and leaves
// the output alone.
template <typename E, size_t N>
void ExpectNamesRoundTrip(const E (&values)[N], const char* (*name_of)(E),
                          const char* unknown) {
  for (size_t i = 0; i < N; ++i) {
    EXPECT_EQ(values[i], static_cast<E>(i));
    E parsed = values[(i + 1) % N];
    ASSERT_TRUE(ParseName(name_of(values[i]), values, name_of, parsed)) << name_of(values[i]);
    EXPECT_EQ(parsed, values[i]);
  }
  EXPECT_STREQ(name_of(static_cast<E>(N)), "?");
  E out = values[N - 1];
  EXPECT_FALSE(ParseName(unknown, values, name_of, out));
  EXPECT_EQ(out, values[N - 1]);
  EXPECT_FALSE(ParseName("", values, name_of, out));
}

TEST(ParseNameTest, SchedPolicyNamesRoundTrip) {
  ExpectNamesRoundTrip(kSchedPolicies, SchedPolicyName, "lifo");
}

TEST(ParseNameTest, PlacementPolicyNamesRoundTrip) {
  ExpectNamesRoundTrip(kPlacementPolicies, PlacementPolicyName, "zigzag");
}

TEST(ParseNameTest, TenantScenarioNamesRoundTrip) {
  ExpectNamesRoundTrip(kTenantScenarios, TenantScenarioName, "weekend");
}

TEST(ParseNameTest, PopularityDistNamesRoundTrip) {
  ExpectNamesRoundTrip(kPopularityDists, PopularityDistName, "pareto");
}

// The lists the CLI's unknown-name errors print.
TEST(NameListTest, ListsEveryNameInDeclarationOrder) {
  EXPECT_EQ(NameList(kSchedPolicies, SchedPolicyName), "fcfs, priority, dwfq");
  EXPECT_EQ(NameList(kPlacementPolicies, PlacementPolicyName),
            "round-robin, least-outstanding, delta-affinity, tenant-affinity");
  EXPECT_EQ(NameList(kTenantScenarios, TenantScenarioName),
            "steady, diurnal, flash-crowd, heavy-tail");
  EXPECT_EQ(NameList(kPopularityDists, PopularityDistName), "uniform, zipf, azure");
}

// The number tokens of `text`, left to right: each longest run of [0-9.], with
// the exponent ([eE][-+]?[0-9]+) right after it when there is one.
std::vector<std::string> NumberTokens(const std::string& text) {
  // Whether text[i] exists and is one of `chars`.
  const auto in = [&text](size_t i, std::string_view chars) {
    return i < text.size() && chars.find(text[i]) != std::string_view::npos;
  };
  constexpr std::string_view kDigits = "0123456789";
  std::vector<std::string> tokens;
  for (size_t i = 0; i < text.size();) {
    if (!in(i, "0123456789.")) {
      ++i;
      continue;
    }
    const size_t start = i;
    while (in(i, "0123456789.")) {
      ++i;
    }
    if (in(i, "eE")) {
      size_t j = in(i + 1, "+-") ? i + 2 : i + 1;
      if (in(j, kDigits)) {
        while (in(j, kDigits)) {
          ++j;
        }
        i = j;
      }
    }
    tokens.push_back(text.substr(start, i - start));
  }
  return tokens;
}

// Every number token a printer emits reads in full, to the value strtod (the
// reader the printers were written against) gives.
void ExpectTokensReadAsStrtod(const std::string& printed) {
  const std::vector<std::string> tokens = NumberTokens(printed);
  for (const std::string& tok : tokens) {
    double v = 0.0;
    ASSERT_TRUE(ParseNumber(tok, {}, v)) << tok << " in " << printed;
    EXPECT_EQ(v, std::strtod(tok.c_str(), nullptr)) << tok;
  }
  EXPECT_GT(tokens.size(), 0u) << printed;
}

TEST(ParsePrinterRoundTripTest, JsonNumReadsBackExactly) {
  for (const double v : {0.0, 1.0, -2.5, 0.1, 1.0 / 3.0, 90.574333173805186, 1e-300, 1e20,
                         6.02e23, -1e-7, std::numeric_limits<double>::max(),
                         std::numeric_limits<double>::min()}) {
    const std::string text = JsonNum(v);
    double back = 0.0;
    ASSERT_TRUE(ParseNumber(text, {}, back)) << text;
    EXPECT_EQ(back, v) << text;
  }
}

TEST(ParsePrinterRoundTripTest, TraceJsonlReadsBackAsPrinted) {
  Trace trace;
  trace.n_models = 3;
  trace.n_tenants = 2;
  trace.duration_s = 1e6 / 3.0;
  const double arrivals[] = {0.0, 1e-7, 0.1, 1.0 / 3.0, 12345.678901234567, 1e15, 3.5e20};
  int id = 0;
  for (const double arrival : arrivals) {
    TraceRequest r;
    r.id = id;
    r.model_id = id % 3;
    r.tenant_id = id % 2;
    r.slo = static_cast<SloClass>(id % kNumSloClasses);
    r.arrival_s = arrival;
    r.prompt_tokens = id == 0 ? std::numeric_limits<int>::max() : 1 + id;
    r.output_tokens = 1 + 7 * id;
    trace.requests.push_back(r);
    ++id;
  }
  const std::string text = TraceToJsonl(trace);
  ExpectTokensReadAsStrtod(text);
  Trace back;
  ASSERT_TRUE(TraceFromJsonl(text, back));
  EXPECT_EQ(TraceToJsonl(back), text);
}

TEST(ParsePrinterRoundTripTest, FaultSpecReadsBackAsPrinted) {
  FaultPlan plan;
  plan.detection_delay_s = 1.0 / 3.0;
  plan.reroute = false;
  plan.events = {{0.0, FaultType::kCrash, 0, 1.0},
                 {1e-9, FaultType::kSlowStart, 7, 1.0 / 3.0},
                 {0.1, FaultType::kRecover, 0, 1.0},
                 {12345.678901234, FaultType::kSlowEnd, 7, 1.0},
                 {2e6, FaultType::kPartitionStart, 2147483647, 1.0},
                 {3e6, FaultType::kPartitionEnd, 2147483647, 1.0}};
  const std::string spec = FaultPlanToSpec(plan);
  ExpectTokensReadAsStrtod(spec);
  FaultPlan back;
  ASSERT_TRUE(ParseFaultPlan(spec, back)) << spec;
  EXPECT_EQ(FaultPlanToSpec(back), spec);
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    const std::string random_spec = FaultPlanToSpec(RandomFaultPlan(seed, 6, 300.0, 8));
    ExpectTokensReadAsStrtod(random_spec);
    ASSERT_TRUE(ParseFaultPlan(random_spec, back)) << random_spec;
    EXPECT_EQ(FaultPlanToSpec(back), random_spec);
  }
}

TEST(ParsePrinterRoundTripTest, RedundancySpecReadsBackAsPrinted) {
  // Specs as dzip_cli prints them from --replication and --erasure, up to the
  // largest counts the parser takes.
  const std::pair<const char*, RedundancyPolicy> cases[] = {
      {"replicate(1)", {RedundancyMode::kReplicate, 1, 4, 2}},
      {"replicate(2147483647)", {RedundancyMode::kReplicate, 2147483647, 4, 2}},
      {"erasure(4,0)", {RedundancyMode::kErasure, 1, 4, 0}},
      {"erasure(10,4)", {RedundancyMode::kErasure, 1, 10, 4}},
      {"erasure(2147483646,1)", {RedundancyMode::kErasure, 1, 2147483646, 1}},
  };
  for (const auto& [spec, want] : cases) {
    ExpectTokensReadAsStrtod(spec);
    RedundancyPolicy policy;
    ASSERT_TRUE(ParseRedundancyPolicy(spec, policy)) << spec;
    EXPECT_EQ(policy.mode, want.mode) << spec;
    EXPECT_EQ(policy.replicas, want.replicas) << spec;
    EXPECT_EQ(policy.k, want.k) << spec;
    EXPECT_EQ(policy.m, want.m) << spec;
  }
}

}  // namespace
}  // namespace dz
