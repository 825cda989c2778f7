#include "src/serving/report.h"

#include <gtest/gtest.h>

namespace dz {
namespace {

RequestRecord MakeRecord(int id, double arrival, double sched, double start,
                         double first, double finish, int output) {
  RequestRecord r;
  r.id = id;
  r.arrival_s = arrival;
  r.sched_attempt_s = sched;
  r.start_s = start;
  r.first_token_s = first;
  r.finish_s = finish;
  r.output_tokens = output;
  return r;
}

TEST(RequestRecordTest, DerivedMetrics) {
  const RequestRecord r = MakeRecord(0, 1.0, 2.0, 3.0, 4.0, 11.0, 5);
  EXPECT_DOUBLE_EQ(r.E2eLatency(), 10.0);
  EXPECT_DOUBLE_EQ(r.Ttft(), 3.0);
  EXPECT_DOUBLE_EQ(r.QueueingTime(), 1.0);
  EXPECT_DOUBLE_EQ(r.LoadingTime(), 1.0);
  EXPECT_DOUBLE_EQ(r.InferenceTime(), 8.0);
  EXPECT_DOUBLE_EQ(r.TimePerToken(), 2.0);
}

TEST(ServeReportTest, AggregatesOverRecords) {
  ServeReport report;
  report.records.push_back(MakeRecord(0, 0.0, 0.0, 0.0, 1.0, 2.0, 10));
  report.records.push_back(MakeRecord(1, 1.0, 1.0, 1.0, 3.0, 5.0, 30));
  report.makespan_s = 5.0;
  EXPECT_DOUBLE_EQ(report.ThroughputRps(), 2.0 / 5.0);
  EXPECT_DOUBLE_EQ(report.TokenThroughput(), 40.0 / 5.0);
  EXPECT_DOUBLE_EQ(report.MeanE2e(), (2.0 + 4.0) / 2.0);
  EXPECT_DOUBLE_EQ(report.MeanTtft(), (1.0 + 2.0) / 2.0);
  EXPECT_DOUBLE_EQ(report.SloAttainmentE2e(2.0), 0.5);
  EXPECT_DOUBLE_EQ(report.SloAttainmentE2e(4.0), 1.0);
  EXPECT_DOUBLE_EQ(report.SloAttainmentTtft(1.5), 0.5);
}

TEST(ServeReportTest, EmptyReportIsZero) {
  ServeReport report;
  EXPECT_EQ(report.ThroughputRps(), 0.0);
  EXPECT_EQ(report.TokenThroughput(), 0.0);
  EXPECT_EQ(report.MeanE2e(), 0.0);
  EXPECT_EQ(report.SloAttainmentE2e(10.0), 0.0);
}

TEST(RequestRecordTest, ZeroOutputTokensSafe) {
  const RequestRecord r = MakeRecord(0, 0.0, 0.0, 0.0, 1.0, 2.0, 0);
  EXPECT_DOUBLE_EQ(r.TimePerToken(), 2.0);  // falls back to E2E
}

// ---- multi-tenant / per-class metric edge cases ----------------------------
// The CompressionRatio lesson applied to the new report math: every metric must
// be finite and well-defined for 0 tenants, 1 tenant, empty classes, and empty
// reports.

RequestRecord TenantRecord(int tenant, SloClass slo, double arrival, double first,
                           double finish, int output) {
  RequestRecord r = MakeRecord(0, arrival, arrival, arrival, first, finish, output);
  r.tenant_id = tenant;
  r.slo = slo;
  return r;
}

TEST(ServeReportTenantTest, EmptyReportMetricsAreFinite) {
  ServeReport report;
  EXPECT_EQ(report.TotalShed(), 0);
  EXPECT_DOUBLE_EQ(report.JainFairnessIndex(), 1.0);
  for (int c = 0; c < kNumSloClasses; ++c) {
    const double att = report.ClassAttainment(static_cast<SloClass>(c));
    EXPECT_DOUBLE_EQ(att, 1.0) << "empty class is vacuously attained";
  }
  // Even a bogus 0-tenant report must not divide by zero.
  report.n_tenants = 0;
  EXPECT_DOUBLE_EQ(report.JainFairnessIndex(), 1.0);
  EXPECT_EQ(report.TenantOutputTokens().size(), 1u);
}

TEST(ServeReportTenantTest, SingleTenantIsPerfectlyFair) {
  ServeReport report;
  report.n_tenants = 1;
  report.records.push_back(TenantRecord(0, SloClass::kStandard, 0.0, 1.0, 2.0, 50));
  EXPECT_DOUBLE_EQ(report.JainFairnessIndex(), 1.0);
}

TEST(ServeReportTenantTest, JainIndexDistinguishesBalancedFromSkewed) {
  ServeReport balanced;
  balanced.n_tenants = 2;
  balanced.records.push_back(TenantRecord(0, SloClass::kStandard, 0, 1, 2, 100));
  balanced.records.push_back(TenantRecord(1, SloClass::kStandard, 0, 1, 2, 100));
  EXPECT_DOUBLE_EQ(balanced.JainFairnessIndex(), 1.0);

  ServeReport skewed;
  skewed.n_tenants = 2;
  skewed.records.push_back(TenantRecord(0, SloClass::kStandard, 0, 1, 2, 200));
  // Tenant 1 served nothing: Jain = (200²)/(2·200²) = 0.5.
  EXPECT_DOUBLE_EQ(skewed.JainFairnessIndex(), 0.5);
  // A tenant with zero served tokens still appears in the denominator.
  EXPECT_EQ(skewed.TenantOutputTokens().size(), 2u);
}

TEST(ServeReportTenantTest, JainAllZeroTokensIsOne) {
  ServeReport report;
  report.n_tenants = 3;
  report.records.push_back(TenantRecord(0, SloClass::kStandard, 0, 1, 2, 0));
  EXPECT_DOUBLE_EQ(report.JainFairnessIndex(), 1.0);
}

TEST(ServeReportTenantTest, ClassAttainmentUsesClassDeadlines) {
  ServeReport report;
  // Interactive deadline (default): TTFT 5s, E2E 60s.
  report.records.push_back(TenantRecord(0, SloClass::kInteractive, 0.0, 1.0, 10.0, 10));
  report.records.push_back(TenantRecord(0, SloClass::kInteractive, 0.0, 8.0, 10.0, 10));
  // Batch deadline is far looser: the same timings pass.
  report.records.push_back(TenantRecord(0, SloClass::kBatch, 0.0, 8.0, 10.0, 10));
  EXPECT_DOUBLE_EQ(report.ClassAttainment(SloClass::kInteractive), 0.5);
  EXPECT_DOUBLE_EQ(report.ClassAttainment(SloClass::kBatch), 1.0);
  EXPECT_DOUBLE_EQ(report.ClassAttainment(SloClass::kStandard), 1.0);  // empty
}

TEST(ServeReportTenantTest, ShedRequestsCountAsMisses) {
  ServeReport report;
  report.records.push_back(TenantRecord(0, SloClass::kInteractive, 0.0, 1.0, 2.0, 10));
  report.metrics.SetValue("sched.shed", MetricKind::kCounter, 3,
                          {{"class", "interactive"}});
  EXPECT_EQ(report.TotalShed(), 3);
  // 1 met out of (1 completed + 3 shed).
  EXPECT_DOUBLE_EQ(report.ClassAttainment(SloClass::kInteractive), 0.25);
  // A class that only shed (nothing completed) attains exactly 0, not NaN.
  report.metrics.SetValue("sched.shed", MetricKind::kCounter, 2, {{"class", "batch"}});
  EXPECT_DOUBLE_EQ(report.ClassAttainment(SloClass::kBatch), 0.0);
}

}  // namespace
}  // namespace dz
