#include "fault/fault.h"

namespace clampi::fault {

const char* to_string(OpKind k) {
  switch (k) {
    case OpKind::kGet: return "get";
    case OpKind::kPut: return "put";
    case OpKind::kGetBlocks: return "get_blocks";
    case OpKind::kFlush: return "flush";
  }
  return "?";
}

const char* to_string(FailureKind k) {
  switch (k) {
    case FailureKind::kTransient: return "transient";
    case FailureKind::kRankDead: return "rank_dead";
    case FailureKind::kQuarantined: return "quarantined";
    case FailureKind::kPartitioned: return "partitioned";
    case FailureKind::kDeadline: return "deadline";
    case FailureKind::kShed: return "shed";
    case FailureKind::kRecovering: return "recovering";
  }
  return "?";
}

namespace {
std::string describe(FailureKind failure, const OpDesc& op) {
  return std::string("rmasim: injected ") + to_string(failure) + " failure: " +
         to_string(op.kind) + " rank " + std::to_string(op.origin) + " -> rank " +
         std::to_string(op.target) + " (" + std::to_string(op.bytes) + " B @ disp " +
         std::to_string(op.disp) + ", t=" + std::to_string(op.time_us) + "us)";
}
}  // namespace

OpFailedError::OpFailedError(FailureKind failure, const OpDesc& op)
    : std::runtime_error(describe(failure, op)), failure_(failure), op_(op) {}

}  // namespace clampi::fault
