#include "src/workload/trace_io.h"

#include <cstdio>
#include <string>
#include <utility>

#include <gtest/gtest.h>

namespace dz {
namespace {

Trace SampleTrace() {
  TraceConfig cfg;
  cfg.n_models = 6;
  cfg.arrival_rate = 2.0;
  cfg.duration_s = 30.0;
  cfg.seed = 12;
  return GenerateTrace(cfg);
}

TEST(TraceIoTest, JsonlRoundTrip) {
  const Trace trace = SampleTrace();
  Trace decoded;
  ASSERT_TRUE(TraceFromJsonl(TraceToJsonl(trace), decoded));
  EXPECT_EQ(decoded.n_models, trace.n_models);
  EXPECT_DOUBLE_EQ(decoded.duration_s, trace.duration_s);
  ASSERT_EQ(decoded.requests.size(), trace.requests.size());
  for (size_t i = 0; i < trace.requests.size(); ++i) {
    EXPECT_EQ(decoded.requests[i].id, trace.requests[i].id);
    EXPECT_EQ(decoded.requests[i].model_id, trace.requests[i].model_id);
    EXPECT_EQ(decoded.requests[i].prompt_tokens, trace.requests[i].prompt_tokens);
    EXPECT_EQ(decoded.requests[i].output_tokens, trace.requests[i].output_tokens);
    EXPECT_NEAR(decoded.requests[i].arrival_s, trace.requests[i].arrival_s, 1e-6);
  }
}

TEST(TraceIoTest, FileRoundTrip) {
  const Trace trace = SampleTrace();
  const std::string path = ::testing::TempDir() + "/trace.jsonl";
  ASSERT_TRUE(WriteTraceFile(path, trace));
  Trace decoded;
  ASSERT_TRUE(ReadTraceFile(path, decoded));
  EXPECT_EQ(decoded.requests.size(), trace.requests.size());
  std::remove(path.c_str());
}

TEST(TraceIoTest, RejectsMissingHeader) {
  Trace decoded;
  EXPECT_FALSE(TraceFromJsonl("{\"id\":0,\"model\":0,\"arrival\":1}\n", decoded));
  EXPECT_FALSE(TraceFromJsonl("", decoded));
}

TEST(TraceIoTest, RejectsWrongVersion) {
  Trace decoded;
  EXPECT_FALSE(TraceFromJsonl(
      "{\"type\":\"dz-trace\",\"version\":2,\"n_models\":4,\"duration\":10}\n", decoded));
}

TEST(TraceIoTest, RejectsOutOfRangeModel) {
  const std::string text =
      "{\"type\":\"dz-trace\",\"version\":1,\"n_models\":2,\"duration\":10}\n"
      "{\"id\":0,\"model\":5,\"arrival\":1.0,\"prompt\":10,\"output\":10}\n";
  Trace decoded;
  EXPECT_FALSE(TraceFromJsonl(text, decoded));
}

TEST(TraceIoTest, RejectsMalformedLine) {
  const std::string text =
      "{\"type\":\"dz-trace\",\"version\":1,\"n_models\":2,\"duration\":10}\n"
      "{\"id\":0,\"model\":1,\"arrival\":1.0}\n";  // missing prompt/output
  Trace decoded;
  EXPECT_FALSE(TraceFromJsonl(text, decoded));
}

TEST(TraceIoTest, RejectsDuplicateIds) {
  const std::string text =
      "{\"type\":\"dz-trace\",\"version\":1,\"n_models\":2,\"duration\":10}\n"
      "{\"id\":0,\"model\":0,\"arrival\":1.0,\"prompt\":10,\"output\":10}\n"
      "{\"id\":0,\"model\":1,\"arrival\":2.0,\"prompt\":10,\"output\":10}\n";
  Trace decoded;
  EXPECT_FALSE(TraceFromJsonl(text, decoded));
}

// Every number must be finite, and the integer fields integral and within int
// range before the cast: NaN would slip past `arrival < 0` into the arrival
// sort, and casting 1e30 to int is undefined.
TEST(TraceIoTest, RejectsNonFiniteAndNonIntegralNumbers) {
  const std::string header =
      "{\"type\":\"dz-trace\",\"version\":1,\"n_models\":2,\"n_tenants\":2,\"duration\":10}\n";
  const std::string good =
      "{\"id\":0,\"model\":1,\"tenant\":1,\"class\":0,\"arrival\":1.5,\"prompt\":10,"
      "\"output\":10}\n";
  Trace decoded;
  ASSERT_TRUE(TraceFromJsonl(header + good, decoded));
  for (const char* bad_line :
       {"{\"id\":0,\"model\":1,\"arrival\":nan,\"prompt\":10,\"output\":10}",
        "{\"id\":0,\"model\":1,\"arrival\":inf,\"prompt\":10,\"output\":10}",
        "{\"id\":0,\"model\":1,\"arrival\":-nan,\"prompt\":10,\"output\":10}",
        "{\"id\":1e30,\"model\":1,\"arrival\":1,\"prompt\":10,\"output\":10}",
        "{\"id\":-3e9,\"model\":1,\"arrival\":1,\"prompt\":10,\"output\":10}",
        "{\"id\":0.5,\"model\":1,\"arrival\":1,\"prompt\":10,\"output\":10}",
        "{\"id\":0,\"model\":1e300,\"arrival\":1,\"prompt\":10,\"output\":10}",
        "{\"id\":0,\"model\":0.5,\"arrival\":1,\"prompt\":10,\"output\":10}",
        "{\"id\":0,\"model\":1,\"arrival\":1,\"prompt\":1e10,\"output\":10}",
        "{\"id\":0,\"model\":1,\"arrival\":1,\"prompt\":10,\"output\":inf}",
        "{\"id\":0,\"model\":1,\"arrival\":1,\"prompt\":10,\"output\":10.5}",
        "{\"id\":0,\"model\":1,\"tenant\":1e30,\"arrival\":1,\"prompt\":10,\"output\":10}",
        "{\"id\":0,\"model\":1,\"tenant\":nan,\"arrival\":1,\"prompt\":10,\"output\":10}",
        "{\"id\":0,\"model\":1,\"class\":1e20,\"arrival\":1,\"prompt\":10,\"output\":10}",
        "{\"id\":0,\"model\":1,\"class\":0.5,\"arrival\":1,\"prompt\":10,\"output\":10}",
        // One spelling: no hex, no '+', no trailing characters, no exponent
        // for an integer field.
        "{\"id\":0x10,\"model\":1,\"arrival\":1,\"prompt\":10,\"output\":10}",
        "{\"id\":0,\"model\":1,\"arrival\":+1,\"prompt\":10,\"output\":10}",
        "{\"id\":0,\"model\":1,\"arrival\":0x1p3,\"prompt\":10,\"output\":10}",
        "{\"id\":0,\"model\":1,\"arrival\":1,\"prompt\":10abc,\"output\":10}",
        "{\"id\":0,\"model\":1,\"arrival\":1,\"prompt\":1e1,\"output\":10}"}) {
    EXPECT_FALSE(TraceFromJsonl(header + bad_line + "\n", decoded)) << bad_line;
  }
  for (const char* bad_header :
       {"{\"type\":\"dz-trace\",\"version\":1,\"n_models\":1e30,\"duration\":10}",
        "{\"type\":\"dz-trace\",\"version\":1,\"n_models\":2.5,\"duration\":10}",
        "{\"type\":\"dz-trace\",\"version\":1,\"n_models\":nan,\"duration\":10}",
        "{\"type\":\"dz-trace\",\"version\":1,\"n_models\":2,\"duration\":inf}",
        "{\"type\":\"dz-trace\",\"version\":nan,\"n_models\":2,\"duration\":10}",
        "{\"type\":\"dz-trace\",\"version\":1,\"n_models\":2,\"n_tenants\":1e30,\"duration\":10}",
        "{\"type\":\"dz-trace\",\"version\":1,\"n_models\":2,\"n_tenants\":nan,\"duration\":10}"}) {
    EXPECT_FALSE(TraceFromJsonl(std::string(bad_header) + "\n" + good, decoded))
        << bad_header;
  }
}

// Model and tenant counts stop at kMaxModels and kMaxTenants: a header past
// them is refused before anything allocates per model or per tenant.
TEST(TraceIoTest, RejectsCountsAboveTheCap) {
  const std::string line =
      "{\"id\":0,\"model\":1,\"tenant\":1,\"arrival\":1,\"prompt\":10,\"output\":10}\n";
  const auto header = [](int n_models, int n_tenants) {
    return "{\"type\":\"dz-trace\",\"version\":1,\"n_models\":" +
           std::to_string(n_models) + ",\"n_tenants\":" + std::to_string(n_tenants) +
           ",\"duration\":10}\n";
  };
  Trace decoded;
  ASSERT_TRUE(TraceFromJsonl(header(kMaxModels, kMaxTenants) + line, decoded));
  EXPECT_EQ(decoded.n_models, kMaxModels);
  EXPECT_EQ(decoded.n_tenants, kMaxTenants);
  for (const auto& [n_models, n_tenants] :
       {std::pair{kMaxModels + 1, 2}, std::pair{2000000000, 2},
        std::pair{2, kMaxTenants + 1}, std::pair{2, 2000000000}}) {
    EXPECT_FALSE(TraceFromJsonl(header(n_models, n_tenants) + line, decoded))
        << n_models << " models, " << n_tenants << " tenants";
  }
}

// The strict parser changes nothing for valid files: serializing what it read
// reproduces the input byte for byte.
TEST(TraceIoTest, ValidFilesRoundTripByteIdentically) {
  TraceConfig cfg;
  cfg.n_models = 8;
  cfg.arrival_rate = 3.0;
  cfg.duration_s = 40.0;
  cfg.seed = 99;
  cfg.tenants.n_tenants = 4;
  cfg.tenants.interactive_frac = 0.3;
  for (const Trace& trace : {SampleTrace(), GenerateTrace(cfg)}) {
    const std::string text = TraceToJsonl(trace);
    Trace decoded;
    ASSERT_TRUE(TraceFromJsonl(text, decoded));
    EXPECT_EQ(TraceToJsonl(decoded), text);
  }
}

TEST(TraceIoTest, SortsByArrival) {
  const std::string text =
      "{\"type\":\"dz-trace\",\"version\":1,\"n_models\":2,\"duration\":10}\n"
      "{\"id\":1,\"model\":1,\"arrival\":5.0,\"prompt\":8,\"output\":8}\n"
      "{\"id\":0,\"model\":0,\"arrival\":2.0,\"prompt\":8,\"output\":8}\n";
  Trace decoded;
  ASSERT_TRUE(TraceFromJsonl(text, decoded));
  ASSERT_EQ(decoded.requests.size(), 2u);
  EXPECT_EQ(decoded.requests[0].id, 0);
  EXPECT_EQ(decoded.requests[1].id, 1);
}

TEST(TraceIoTest, SingleTenantSerializationHasNoTenantFields) {
  // Pre-tenant byte format stays stable: default traces carry no tenant keys.
  const std::string text = TraceToJsonl(SampleTrace());
  EXPECT_EQ(text.find("tenant"), std::string::npos);
  EXPECT_EQ(text.find("class"), std::string::npos);
}

TEST(TraceIoTest, MultiTenantRoundTrip) {
  TraceConfig cfg;
  cfg.n_models = 8;
  cfg.arrival_rate = 3.0;
  cfg.duration_s = 40.0;
  cfg.seed = 99;
  cfg.tenants.n_tenants = 4;
  cfg.tenants.scenario = TenantScenario::kFlashCrowd;
  cfg.tenants.interactive_frac = 0.3;
  cfg.tenants.batch_frac = 0.2;
  const Trace trace = GenerateTrace(cfg);
  Trace decoded;
  ASSERT_TRUE(TraceFromJsonl(TraceToJsonl(trace), decoded));
  EXPECT_EQ(decoded.n_tenants, 4);
  ASSERT_EQ(decoded.requests.size(), trace.requests.size());
  for (size_t i = 0; i < trace.requests.size(); ++i) {
    EXPECT_EQ(decoded.requests[i].tenant_id, trace.requests[i].tenant_id);
    EXPECT_EQ(decoded.requests[i].slo, trace.requests[i].slo);
  }
}

TEST(TraceIoTest, RejectsOutOfRangeTenant) {
  const std::string text =
      "{\"type\":\"dz-trace\",\"version\":1,\"n_models\":2,\"n_tenants\":2,\"duration\":10}\n"
      "{\"id\":0,\"model\":0,\"tenant\":5,\"class\":1,\"arrival\":1.0,\"prompt\":10,\"output\":10}\n";
  Trace decoded;
  EXPECT_FALSE(TraceFromJsonl(text, decoded));
}

TEST(TraceIoTest, RejectsBadSloClass) {
  const std::string text =
      "{\"type\":\"dz-trace\",\"version\":1,\"n_models\":2,\"n_tenants\":2,\"duration\":10}\n"
      "{\"id\":0,\"model\":0,\"tenant\":1,\"class\":7,\"arrival\":1.0,\"prompt\":10,\"output\":10}\n";
  Trace decoded;
  EXPECT_FALSE(TraceFromJsonl(text, decoded));
}

TEST(TraceIoTest, PreTenantFilesDefaultToSingleTenant) {
  const std::string text =
      "{\"type\":\"dz-trace\",\"version\":1,\"n_models\":2,\"duration\":10}\n"
      "{\"id\":0,\"model\":1,\"arrival\":1.0,\"prompt\":10,\"output\":10}\n";
  Trace decoded;
  ASSERT_TRUE(TraceFromJsonl(text, decoded));
  EXPECT_EQ(decoded.n_tenants, 1);
  ASSERT_EQ(decoded.requests.size(), 1u);
  EXPECT_EQ(decoded.requests[0].tenant_id, 0);
  EXPECT_EQ(decoded.requests[0].slo, SloClass::kStandard);
}

// JSON whitespace may sit between a key's colon and its number.
TEST(TraceIoTest, AcceptsWhitespaceBeforeANumber) {
  const std::string text =
      "{\"type\":\"dz-trace\",\"version\": 1,\"n_models\":\t3,\"duration\": 5}\n"
      "{\"id\": 4,\"model\":  2,\"arrival\": 0.25,\"prompt\": 32,\"output\":\t16}\n";
  Trace trace;
  ASSERT_TRUE(TraceFromJsonl(text, trace));
  EXPECT_EQ(trace.n_models, 3);
  ASSERT_EQ(trace.requests.size(), 1u);
  EXPECT_EQ(trace.requests[0].id, 4);
  EXPECT_EQ(trace.requests[0].model_id, 2);
  EXPECT_EQ(trace.requests[0].arrival_s, 0.25);
  EXPECT_EQ(trace.requests[0].output_tokens, 16);
}

TEST(TraceIoTest, HandComposedTraceDrivesEngine) {
  // Hand-written JSONL can drive the serving engines directly (the paper-AE workflow).
  const std::string text =
      "{\"type\":\"dz-trace\",\"version\":1,\"n_models\":3,\"duration\":5}\n"
      "{\"id\":0,\"model\":0,\"arrival\":0.1,\"prompt\":32,\"output\":16}\n"
      "{\"id\":1,\"model\":1,\"arrival\":0.2,\"prompt\":32,\"output\":16}\n"
      "{\"id\":2,\"model\":2,\"arrival\":0.3,\"prompt\":32,\"output\":16}\n";
  Trace trace;
  ASSERT_TRUE(TraceFromJsonl(text, trace));
  EXPECT_EQ(trace.requests.size(), 3u);
  EXPECT_EQ(trace.n_models, 3);
}

}  // namespace
}  // namespace dz
