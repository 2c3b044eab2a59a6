#include "mtc/job.hpp"

namespace essex::mtc {

std::string to_string(JobStatus s) {
  switch (s) {
    case JobStatus::kQueued: return "queued";
    case JobStatus::kRunning: return "running";
    case JobStatus::kDone: return "done";
    case JobStatus::kFailed: return "failed";
    case JobStatus::kCancelled: return "cancelled";
    case JobStatus::kEvicted: return "evicted";
  }
  return "?";
}

std::string to_string(OutputTransfer s) {
  switch (s) {
    case OutputTransfer::kPushImmediate: return "push-immediate";
    case OutputTransfer::kPullPaced: return "pull-paced";
    case OutputTransfer::kTwoStagePut: return "two-stage-put";
  }
  return "?";
}

}  // namespace essex::mtc
