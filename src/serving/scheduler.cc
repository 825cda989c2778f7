#include "src/serving/scheduler.h"

namespace dz {

const char* SchedPolicyName(SchedPolicy policy) {
  switch (policy) {
    case SchedPolicy::kFcfs:
      return "fcfs";
    case SchedPolicy::kPriority:
      return "priority";
    case SchedPolicy::kDwfq:
      return "dwfq";
  }
  return "?";
}

}  // namespace dz
