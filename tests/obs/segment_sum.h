// Test-local total of a request's attributed path segments, which add up to
// the latency they split. Shipped code reads the segments one by one.
#ifndef TESTS_OBS_SEGMENT_SUM_H_
#define TESTS_OBS_SEGMENT_SUM_H_

#include "src/obs/critical_path.h"

namespace dz {

inline double SegmentSum(const PathSegments& s) {
  return s.queue_s + s.load_s + s.compute_s + s.preempt_s;
}

}  // namespace dz

#endif  // TESTS_OBS_SEGMENT_SUM_H_
