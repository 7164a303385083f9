#include "clampi/health.h"

#include "util/error.h"

namespace clampi {

const char* to_string(HealthState s) {
  switch (s) {
    case HealthState::kHealthy: return "healthy";
    case HealthState::kQuarantined: return "quarantined";
    case HealthState::kProbing: return "probing";
  }
  return "?";
}

HealthMonitor::Target& HealthMonitor::at(int target) {
  CLAMPI_ASSERT(target >= 0, "health: negative target rank");
  while (targets_.size() <= static_cast<std::size_t>(target)) {
    targets_.emplace_back(cfg_);
  }
  return targets_[static_cast<std::size_t>(target)];
}

const HealthMonitor::Target* HealthMonitor::find(int target) const {
  if (target < 0 || static_cast<std::size_t>(target) >= targets_.size()) {
    return nullptr;
  }
  return &targets_[static_cast<std::size_t>(target)];
}

HealthState HealthMonitor::record_success(int target) {
  Target& t = at(target);
  ++t.counters.successes;
  // A success should not reach a quarantined target (the window
  // fast-fails them), but if one does — e.g. an op issued just before the
  // quarantine landed — the detector takes it as the first probe.
  if (enabled()) t.detector.record_success();
  return state(target);
}

HealthState HealthMonitor::record_failure(int target, double now_us, bool fatal) {
  Target& t = at(target);
  ++t.counters.failures;
  if (enabled()) t.detector.record_failure(now_us, fatal);
  return state(target);
}

HealthState HealthMonitor::state(int target) const {
  // Indexed by FailureDetector::State: closed, open, probing.
  constexpr HealthState kStateOf[] = {HealthState::kHealthy, HealthState::kQuarantined,
                                      HealthState::kProbing};
  const Target* t = find(target);
  return t == nullptr ? HealthState::kHealthy
                      : kStateOf[static_cast<int>(t->detector.state())];
}

TargetStatus HealthMonitor::status(int target) const {
  TargetStatus st;
  if (const Target* t = find(target)) {
    st = t->counters;
    st.state = state(target);
    if (st.state != HealthState::kHealthy) {
      st.quarantined_since_us = t->detector.opened_at_us();
    }
  }
  st.usable = st.state != HealthState::kQuarantined;
  return st;
}

std::vector<int> HealthMonitor::on_epoch_close(double now_us) {
  reset_epoch_backoff();
  std::vector<int> promoted;
  for (std::size_t i = 0; i < targets_.size(); ++i) {
    if (targets_[i].detector.probe_due(now_us)) promoted.push_back(static_cast<int>(i));
  }
  return promoted;
}

void HealthMonitor::reset_epoch_backoff() {
  for (Target& t : targets_) t.counters.epoch_backoff_us = 0.0;
}

}  // namespace clampi
