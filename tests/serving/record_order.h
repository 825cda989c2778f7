// Test-local check of the timestamp order every finished request keeps:
// arrival ≤ sched_attempt ≤ start ≤ first_token ≤ finish ≤ the report's
// makespan, with 1e-9 slack. EnginePropertyTest and the two random digest
// tests run it on every record.
#ifndef TESTS_SERVING_RECORD_ORDER_H_
#define TESTS_SERVING_RECORD_ORDER_H_

#include <cstddef>
#include <iterator>
#include <string>

#include <gtest/gtest.h>

#include "src/serving/report.h"

namespace dz {

// Adds one failure, naming `run`, for the first record of `report` out of order.
inline void ExpectRecordsOrdered(const ServeReport& report, const std::string& run) {
  static const char* const kNames[] = {"arrival",     "sched_attempt", "start",
                                       "first_token", "finish",        "makespan"};
  for (const RequestRecord& r : report.records) {
    const double chain[] = {r.arrival_s,     r.sched_attempt_s, r.start_s,
                            r.first_token_s, r.finish_s,        report.makespan_s};
    for (size_t i = 1; i < std::size(chain); ++i) {
      if (!(chain[i] >= chain[i - 1] - 1e-9)) {  // a NaN fails too
        ADD_FAILURE() << run << ": request " << r.id << " has " << kNames[i] << " "
                      << chain[i] << " before " << kNames[i - 1] << " " << chain[i - 1];
        return;
      }
    }
  }
}

}  // namespace dz

#endif  // TESTS_SERVING_RECORD_ORDER_H_
