#include "clampi/window.h"

#include <cstring>

#include "clampi/trace.h"
#include "fault/injector.h"

namespace clampi {

namespace {

/// Consecutive successful probes that return a PROBING target to HEALTHY.
constexpr int kHealthProbeSuccesses = 2;
/// Growth of the retry backoff per attempt (exponential backoff).
constexpr double kRetryBackoffFactor = 2.0;

HealthMonitor::Config health_config(const Config& cfg) {
  return {cfg.health_failure_threshold, cfg.health_window_us,
          cfg.health_quarantine_dwell_us, kHealthProbeSuccesses};
}

LoadShedder::Config shedder_config(const Config& cfg) {
  LoadShedder::Config sc;
  sc.window_us = cfg.shed_window_us;
  sc.miss_ratio = cfg.shed_miss_ratio;
  sc.decrease_factor = cfg.shed_decrease_factor;
  sc.increase = cfg.shed_increase;
  sc.min_admit = cfg.shed_min_admit;
  return sc;
}

}  // namespace

const char* to_string(BreakerState s) {
  switch (s) {
    case BreakerState::kClosed: return "closed";
    case BreakerState::kOpen: return "open";
    case BreakerState::kHalfOpen: return "half_open";
  }
  return "?";
}

CachedWindow::CachedWindow(rmasim::Process& p, rmasim::Window win, const Config& cfg)
    : p_(&p),
      win_(win),
      cfg_(cfg),
      core_(std::make_unique<CacheCore>(cfg)),
      tuner_(cfg),
      retry_rng_(cfg.seed ^ 0x7e7a11edbac0ffull),
      health_(health_config(cfg)) {
  if (cfg_.breaker_failure_threshold > 0) {
    breaker_ = std::make_unique<FailureDetector>(FailureDetector::Config{
        cfg_.breaker_failure_threshold, cfg_.breaker_window_us, cfg_.breaker_open_us,
        cfg_.breaker_halfopen_successes});
  }
  if (cfg_.load_shedding) shedder_ = std::make_unique<LoadShedder>(shedder_config(cfg_));
}

CachedWindow CachedWindow::allocate(rmasim::Process& p, std::size_t bytes, void** base,
                                    const Config& cfg) {
  const rmasim::Window w = p.win_allocate(bytes, base);
  return CachedWindow(p, w, cfg);
}

void CachedWindow::free_window() { p_->win_free(win_); }

void CachedWindow::serve_cached(void* origin, std::uint32_t entry, std::size_t bytes) {
  const double t0 = cfg_.collect_phase_timings ? phase_clock_ns() : 0.0;
  std::memcpy(origin, core_->entry_data(entry), bytes);
  p_->charge_local_copy(bytes);
  if (cfg_.collect_phase_timings) last_phases_.copy_ns += phase_clock_ns() - t0;
}

void CachedWindow::issue_network_get(void* origin, std::size_t bytes, int target,
                                     std::size_t disp) {
  // Quarantined targets fast-fail before touching the network: no retries,
  // no backoff burned. PROBING lets ops through half-open; enough
  // consecutive successes reclose the target to HEALTHY. Placed here (not
  // at the top of get()) so pure cache hits on a down target still serve.
  if (health_.enabled() && health_.state(target) == HealthState::kQuarantined) {
    ++core_->mutable_stats().fast_fails;
    ++health_.counters(target).fast_fails;
    throw_get_failure(fault::FailureKind::kQuarantined, target, disp, bytes);
  }
  // A walk-wide deadline (kv replica fall-through) may already be spent
  // before this target's first attempt: miss without touching the network.
  if (deadline_abs_ >= 0.0 && p_->now_us() >= deadline_abs_) {
    ++core_->mutable_stats().deadline_misses;
    if (shedder_ != nullptr) shedder_->on_deadline_miss(p_->now_us());
    breaker_failure();
    throw_get_failure(fault::FailureKind::kDeadline, target, disp, bytes);
  }
  int attempt = 0;
  for (;;) {
    try {
      p_->get(origin, bytes, target, disp, win_);
      record_target_outcome(target, /*success=*/true);
      return;
    } catch (const fault::OpFailedError& err) {
      Stats& st = core_->mutable_stats();
      ++st.injected_faults;
      if (fault_trace_ != nullptr) fault_trace_->add_fault(target, disp, bytes);
      // Rank death and partitions persist until external state changes:
      // quarantine immediately rather than waiting for the window count.
      record_target_outcome(target, /*success=*/false,
                            /*fatal=*/err.failure() != fault::FailureKind::kTransient);
      if (!err.recoverable() || attempt >= cfg_.max_retries) {
        // Give-ups only count when a retry policy was actually in play
        // and could not help (transient fault, retries exhausted).
        if (cfg_.max_retries > 0 && err.recoverable()) {
          ++st.retry_giveups;
          breaker_failure();
        }
        throw;
      }
      if (health_.enabled() && health_.state(target) == HealthState::kQuarantined) {
        // This failure tipped the target into quarantine: stop burning
        // retries on it now, future gets fast-fail until the re-probe.
        throw;
      }
      double backoff = cfg_.retry_backoff_us;
      for (int i = 0; i < attempt; ++i) backoff *= kRetryBackoffFactor;
      if (cfg_.retry_jitter > 0.0) {
        backoff *= 1.0 + cfg_.retry_jitter * (2.0 * retry_rng_.uniform() - 1.0);
      }
      // Deadline budget (docs/FAULTS.md §8): checked *before* the backoff
      // is charged, so an op never overshoots its deadline by more than
      // the one network attempt already in flight. Cached hits never reach
      // this loop and keep serving under an expired budget — the "best
      // degraded outcome" the deadline contract promises.
      if (deadline_abs_ >= 0.0 && p_->now_us() + backoff > deadline_abs_) {
        ++st.deadline_misses;
        if (shedder_ != nullptr) shedder_->on_deadline_miss(p_->now_us());
        breaker_failure();
        throw_get_failure(fault::FailureKind::kDeadline, target, disp, bytes);
      }
      // The retry budget is per target per epoch: a dead target exhausting
      // its pool cannot starve retries for a healthy one.
      double& pool = health_.epoch_backoff_us(target);
      if (cfg_.epoch_retry_budget_us > 0.0 &&
          pool + backoff > cfg_.epoch_retry_budget_us) {
        ++st.retry_giveups;
        breaker_failure();
        throw;
      }
      pool += backoff;
      ++attempt;
      ++st.retries;
      if (fault_trace_ != nullptr) {
        fault_trace_->add_retry(target, static_cast<std::uint64_t>(attempt),
                                static_cast<std::uint64_t>(backoff * 1e3));
      }
      p_->compute_us(backoff);  // the wait is real virtual time
    }
  }
}

void CachedWindow::throw_get_failure(fault::FailureKind kind, int target,
                                     std::size_t disp, std::size_t bytes) const {
  fault::OpDesc desc;
  desc.kind = fault::OpKind::kGet;
  desc.origin = p_->rank();
  desc.target = target;
  desc.disp = disp;
  desc.bytes = bytes;
  desc.time_us = p_->now_us();
  throw fault::OpFailedError(kind, desc);
}

void CachedWindow::begin_op_deadline() {
  if (extern_deadline_us_ >= 0.0) {
    deadline_abs_ = extern_deadline_us_;
  } else if (cfg_.op_deadline_us > 0.0) {
    deadline_abs_ = p_->now_us() + cfg_.op_deadline_us;
  } else {
    deadline_abs_ = -1.0;
  }
}

void CachedWindow::shed_admission(int target, std::size_t disp, std::size_t bytes) {
  if (shedder_ == nullptr || shedder_->admit(p_->now_us())) return;
  ++core_->mutable_stats().ops_shed;
  throw_get_failure(fault::FailureKind::kShed, target, disp, bytes);
}

void CachedWindow::abandon_target(int target) {
  p_->discard_pending(target, win_);
  std::size_t kept = 0;
  for (std::size_t i = 0; i < pending_.size(); ++i) {
    if (pending_[i].target != target) pending_[kept++] = pending_[i];
  }
  pending_.resize(kept);
  core_->drop_pending(target);
}

bool CachedWindow::target_down(int target) const {
  if (health_.state(target) == HealthState::kQuarantined) return true;
  const fault::Injector* inj = p_->fault_injector();
  if (inj == nullptr) return false;
  const double now = p_->now_us();
  return inj->dead(target, now) || inj->degraded(target, now) ||
         inj->partitioned(p_->rank(), target, now) || p_->crash_recovering(target);
}

void CachedWindow::crash_epoch_check(int target) {
  const int due = p_->crash_restarts_due(target);
  if (due == 0) return;  // the no-injector / no-crash common case
  if (crash_restarts_seen_.empty()) {
    crash_restarts_seen_.assign(static_cast<std::size_t>(p_->nranks()), 0);
  }
  int& seen = crash_restarts_seen_[static_cast<std::size_t>(target)];
  if (due <= seen) return;
  // Sweep the target's CACHED entries: all of them predate the wipe.
  // Retained degraded survivors are not spared — "last known good" means
  // nothing across a memory-wiping restart (unlike a death/revival, which
  // leaves the window bytes intact).
  Stats& st = core_->mutable_stats();
  const std::size_t slots = core_->entry_slots();
  for (std::uint32_t id = 0; id < slots; ++id) {
    if (!core_->entry_live(id) || core_->entry_pending(id)) continue;
    if (core_->entry_key(id).target != target) continue;
    core_->quarantine(id);
    ++st.crash_invalidations;
  }
  // Entries a still-pending op commits later also predate the wipe, so
  // the restart is only acknowledged once nothing for this target is in
  // flight; until then every access re-sweeps (see window.h).
  for (const PendingOp& op : pending_) {
    if (op.target == target) return;
  }
  seen = due;
}

bool CachedWindow::try_degraded_read(void* origin, std::size_t bytes, int target,
                                     std::size_t disp) {
  last_degraded_ = false;
  // Outside this path a CACHED entry of a down target still serves as an
  // ordinary hit in the read-only modes (access() never touches the
  // network for it); only this path can serve a transparent-mode survivor.
  if (!cfg_.degraded_reads) return false;
  const std::uint32_t id =
      core_->find_cached(Key{target, static_cast<std::uint64_t>(disp)});
  if (id == kNoEntry) return false;
  // A transparent-mode entry retained across an epoch boundary for a down
  // target (its stamp predates the current epoch) is only ever servable
  // through this bounded path. If it no longer qualifies — the target
  // recovered, or the payload outlived its staleness bound — it must be
  // dropped here, or the ordinary hit path in access() would serve it
  // without any bound at all.
  const bool survivor =
      cfg_.mode == Mode::kTransparent && core_->entry_stamp(id) < epoch_open_us_;
  Stats& st = core_->mutable_stats();
  if (!target_down(target)) {
    if (survivor) {
      // The target is reachable again: an honest miss re-fetches fresh data.
      core_->quarantine(id);
      ++st.degraded_expired;
    }
    return false;
  }
  if (core_->entry_bytes(id) < bytes) return false;
  if (!core_->entry_checksum_ok(id)) {
    // Bit rot does not spare a down target's retained entries, and the hit
    // path's sampled verification never sees this entry (it serves here,
    // outside access()). A corrupt "last known good" value is worse than
    // failing honestly, so drop it and let the miss path surface the
    // target's failure.
    core_->quarantine(id);
    ++st.corruption_detected;
    ++st.degraded_corrupt_drops;
    if (fault_trace_ != nullptr) fault_trace_->add_corruption(target, disp, bytes);
    breaker_failure();
    return false;
  }
  const double age = p_->now_us() - core_->entry_stamp(id);
  if (cfg_.degraded_max_staleness_us <= 0.0 || age <= cfg_.degraded_max_staleness_us) {
    serve_cached(origin, id, bytes);
    ++st.degraded_hits;
    ++health_.counters(target).degraded_hits;
    // Deliberately not counted as a total_get: degraded serves happen
    // outside access() and must not skew the adaptive tuner's ratios.
    st.bytes_from_cache += bytes;
    last_access_ = AccessType::kHit;
    last_degraded_ = true;
    last_degraded_age_us_ = age;
    return true;
  }
  if (survivor) {
    // Over its bound: drop it, so the miss path surfaces the target's
    // failure honestly.
    core_->quarantine(id);
    ++st.degraded_expired;
  }
  return false;
}

TargetStatus CachedWindow::target_status(int target) const {
  CLAMPI_REQUIRE(target >= 0 && target < p_->nranks(), "target rank out of range");
  const double now = p_->now_us();
  TargetStatus ts = health_.status(target);
  const fault::Injector* inj = p_->fault_injector();
  if (inj != nullptr) {
    ts.dead = inj->dead(target, now);
    ts.partitioned = inj->partitioned(p_->rank(), target, now);
    ts.slow = inj->slow(target, now);
    ts.recovering = p_->crash_recovering(target);
  }
  ts.usable = !ts.dead && !ts.partitioned && !ts.recovering &&
              ts.state != HealthState::kQuarantined;
  return ts;
}

void CachedWindow::reset_after_crash() {
  // The engine's wipe already discarded this rank's in-flight
  // completions, so the registered copy-ins/outs will never fire.
  pending_.clear();
  core_->invalidate();
  ++epoch_;
  epoch_open_us_ = p_->now_us();
  health_ = HealthMonitor(health_config(cfg_));
  if (shedder_ != nullptr) shedder_ = std::make_unique<LoadShedder>(shedder_config(cfg_));
  extern_deadline_us_ = -1.0;
  deadline_abs_ = -1.0;
}

void CachedWindow::record_target_outcome(int target, bool success, bool fatal) {
  if (success) {
    // SLOW observation (docs/FAULTS.md §8): the op completed while a
    // straggler epoch covered the target. Fed to the monitor as a pure
    // counter — slowness alone must never quarantine.
    const fault::Injector* inj = p_->fault_injector();
    if (inj != nullptr && inj->slow(target, p_->now_us())) {
      ++core_->mutable_stats().slow_observations;
      ++health_.counters(target).slow_observations;
    }
  }
  // The monitor counts every outcome per target; with the detector off
  // (threshold 0) the state just never changes.
  const HealthState before = health_.state(target);
  const HealthState after = success ? health_.record_success(target)
                                    : health_.record_failure(target, p_->now_us(), fatal);
  if (after != before) health_note(target, after);
}

void CachedWindow::health_note(int target, HealthState after) {
  Stats& st = core_->mutable_stats();
  switch (after) {
    case HealthState::kQuarantined: ++st.health_quarantines; break;
    case HealthState::kProbing: ++st.health_probes; break;
    case HealthState::kHealthy: ++st.health_recoveries; break;
  }
  if (fault_trace_ != nullptr) {
    fault_trace_->add_health(target, static_cast<int>(after));
  }
  // Recovery callbacks (docs/KV.md "Repair & convergence"): the KV layer
  // taps PROBING -> HEALTHY edges to schedule hinted-handoff drains. The
  // observer may be invoked mid-operation, so it must only record state
  // (no re-entrant window calls).
  if (health_observer_) health_observer_(target, after);
}

void CachedWindow::health_epoch_close() {
  for (const int target : health_.on_epoch_close(p_->now_us())) {
    health_note(target, HealthState::kProbing);
  }
}

void CachedWindow::rollback_failed(const CacheCore::Result& res,
                                   std::size_t pending_mark) {
  pending_.resize(pending_mark);
  if (res.entry == kNoEntry) return;
  if (res.inserted) {
    // The entry is waiting for data that will never arrive.
    core_->drop_failed(res.entry);
  } else if (res.extended) {
    // A pre-existing entry grew for this access; earlier gets in the
    // epoch may already hold copy-in/copy-out registrations against it,
    // so dropping it would leave them dangling (chaos_fuzz seed 89).
    // Shrink it back instead — its previously cached prefix is intact.
    core_->revert_extension(res.entry, res.prev_bytes, res.prev_pending);
  }
}

void CachedWindow::handle_result(const CacheCore::Result& res, void* origin,
                                 std::size_t bytes, int target, std::size_t disp) {
  switch (res.type) {
    case AccessType::kHit:
      serve_cached(origin, res.entry, bytes);
      break;  // no network, no flush dependency
    case AccessType::kHitPending:
      pending_.push_back({PendingOp::Kind::kCopyOut, res.entry, target,
                          static_cast<std::byte*>(origin), 0, bytes, 0.0});
      break;
    case AccessType::kPartialHit: {
      const std::size_t head = res.cached_bytes;
      if (res.serve_now) {
        serve_cached(origin, res.entry, head);
      } else {
        pending_.push_back({PendingOp::Kind::kCopyOut, res.entry, target,
                            static_cast<std::byte*>(origin), 0, head, 0.0});
      }
      auto* tail_dst = static_cast<std::byte*>(origin) + head;
      issue_network_get(tail_dst, bytes - head, target, disp + head);
      if (res.extended) {
        pending_.push_back({PendingOp::Kind::kCopyIn, res.entry, target, tail_dst, head,
                            bytes - head, p_->now_us()});
      }
      break;
    }
    case AccessType::kDirect:
    case AccessType::kConflicting:
    case AccessType::kCapacity:
      issue_network_get(origin, bytes, target, disp);
      pending_.push_back({PendingOp::Kind::kCopyIn, res.entry, target,
                          static_cast<std::byte*>(origin), 0, bytes, p_->now_us()});
      break;
    case AccessType::kFailing:
      issue_network_get(origin, bytes, target, disp);
      break;
  }
}

void CachedWindow::notify_get(int target, std::size_t disp, std::size_t bytes,
                              bool degraded, bool healed) {
  if (!get_observer_) [[likely]] return;
  GetObservation o;
  o.target = target;
  o.disp = disp;
  o.bytes = bytes;
  o.type = last_access_;
  o.degraded = degraded;
  o.degraded_age_us = degraded ? last_degraded_age_us_ : 0.0;
  o.healed = healed;
  get_observer_(o);
}

void CachedWindow::get(void* origin, std::size_t bytes, int target, std::size_t disp) {
  CLAMPI_REQUIRE(bytes > 0, "zero-byte get");
  // A hit never reaches the engine's own target check.
  CLAMPI_REQUIRE(target >= 0 && target < p_->nranks(), "target rank out of range");
  crash_epoch_check(target);
  shed_admission(target, disp, bytes);
  begin_op_deadline();
  last_phases_ = PhaseBreakdown{};
  if (breaker_says_passthrough()) {
    issue_network_get(origin, bytes, target, disp);
    notify_get(target, disp, bytes, /*degraded=*/false, /*healed=*/false);
    return;
  }
  if (try_degraded_read(origin, bytes, target, disp)) {
    notify_get(target, disp, bytes, /*degraded=*/true, /*healed=*/false);
    return;
  }
  const CacheCore::Result res = core_->access(
      Key{target, disp}, bytes, cfg_.collect_phase_timings ? &last_phases_ : nullptr);
  if (res.healed) [[unlikely]] note_heal(target, disp, bytes);
  last_access_ = res.type;
  const std::size_t pending_mark = pending_.size();
  try {
    handle_result(res, origin, bytes, target, disp);
  } catch (const fault::OpFailedError&) {
    rollback_failed(res, pending_mark);
    throw;
  }
  if (!res.healed) breaker_probe_success();
  if (cfg_.shadow_verify_every_n != 0 && res.type == AccessType::kHit) [[unlikely]] {
    if (++shadow_tick_ >= cfg_.shadow_verify_every_n) {
      shadow_tick_ = 0;
      shadow_verify(origin, bytes, target, disp, res.entry);
    }
  }
  notify_get(target, disp, bytes, /*degraded=*/false, res.healed);
}

void CachedWindow::get_nocache(void* origin, std::size_t bytes, int target,
                               std::size_t disp) {
  p_->get(origin, bytes, target, disp, win_);
}

void CachedWindow::put(const void* origin, std::size_t bytes, int target,
                       std::size_t disp) {
  CLAMPI_REQUIRE(target >= 0 && target < p_->nranks(), "target rank out of range");
  crash_epoch_check(target);
  p_->put(origin, bytes, target, disp, win_);
  // Local coherence: the put makes any cached entry overlapping the target
  // range stale, so drop those entries and let the next get re-fetch. The
  // stale-put fault (fault::Plan::stale_put_prob) skips exactly this step,
  // modelling the invalidation bug that shadow-verify exists to catch.
  const fault::Injector* inj = p_->fault_injector();
  if (inj != nullptr && inj->plan().stale_put_prob > 0.0 &&
      inj->stale_put_verdict(p_->rank(), target)) {
    ++core_->mutable_stats().stale_puts_injected;
    return;
  }
  const std::size_t dropped = core_->invalidate_overlap(target, disp, bytes);
  // Fan-out accounting: put_invalidations counts entries dropped; this
  // counts puts that hit at least one cached entry, so fan-out per
  // invalidating put = put_invalidations / put_invalidation_ops.
  if (dropped > 0) ++core_->mutable_stats().put_invalidation_ops;
}

void CachedWindow::process_pending(int target) {
  if (pending_.empty()) return;
  std::size_t kept = 0;
  for (std::size_t i = 0; i < pending_.size(); ++i) {
    PendingOp& op = pending_[i];
    if (target >= 0 && op.target != target) {
      pending_[kept++] = op;
      continue;
    }
    if (op.kind == PendingOp::Kind::kCopyIn) {
      std::memcpy(core_->entry_data(op.entry) + op.entry_off, op.user, op.bytes);
      p_->charge_local_copy(op.bytes);
      core_->mark_cached(op.entry);
      // Freshness stamp for bounded-staleness degraded reads: only a full
      // repopulation refreshes it — a tail extension keeps the (older)
      // head's stamp, so staleness is never understated.
      if (op.entry_off == 0 && op.bytes == core_->entry_bytes(op.entry)) {
        core_->set_entry_stamp(op.entry, op.issued_us);
      }
    } else {
      std::memcpy(op.user, core_->entry_data(op.entry), op.bytes);
      p_->charge_local_copy(op.bytes);
    }
  }
  pending_.resize(kept);
}

void CachedWindow::on_flush_failure(const fault::OpFailedError& err, bool all_taken) {
  Stats& st = core_->mutable_stats();
  ++st.injected_faults;
  const int target = err.op().target;
  if (fault_trace_ != nullptr) fault_trace_->add_fault(target, 0, 0);
  record_target_outcome(target, /*success=*/false,
                        /*fatal=*/err.failure() != fault::FailureKind::kTransient);
  // The dead target's in-flight data will never be *completed*. Ops that
  // failed at issue were already rolled back, so every surviving pending
  // op against the target was issued before the death — and data movement
  // is eager, so its payload has arrived. With degraded reads enabled,
  // materialize those as last-known-good survivors; otherwise discard the
  // copy-ins/outs and PENDING entries, matching MPI completion semantics.
  if (cfg_.degraded_reads) {
    process_pending(target);
  } else {
    std::size_t kept = 0;
    for (std::size_t i = 0; i < pending_.size(); ++i) {
      if (pending_[i].target != target) pending_[kept++] = pending_[i];
    }
    pending_.resize(kept);
    core_->drop_pending(target);
  }
  if (all_taken) {
    // The engine cleared every target's completions before throwing, and
    // data movement is eager: the surviving targets' payloads are already
    // in place, so materialize them rather than stranding PENDING entries.
    process_pending(-1);
    ++epoch_;
    if (cfg_.mode == Mode::kTransparent) transparent_invalidate();
    health_epoch_close();  // a real epoch boundary: backoff + promotions
    epoch_open_us_ = p_->now_us();
    return;
  }
  // The epoch itself survives (per-target flush): only the abandoned
  // retries' backoff pools reset, quarantine dwell keeps running.
  health_.reset_epoch_backoff();
}

void CachedWindow::transparent_invalidate() {
  if (core_->cached_entries() == 0) return;
  if (cfg_.degraded_reads) {
    // A down target cannot be accepting writes, so its last-known-good
    // entries legally survive the transparent invalidation and stay
    // servable as bounded-staleness degraded reads (docs/FAULTS.md §6).
    std::vector<int> keep;
    const int n = p_->nranks();
    for (int t = 0; t < n; ++t) {
      if (target_down(t)) keep.push_back(t);
    }
    if (!keep.empty()) {
      core_->invalidate_retaining(keep);
      return;
    }
  }
  core_->invalidate();
}

void CachedWindow::close_epoch(bool all_complete) {
  ++epoch_;
  health_epoch_close();
  if (cfg_.mode == Mode::kTransparent) {
    CLAMPI_ASSERT(all_complete, "transparent epoch closure requires full completion");
    process_pending(-1);
    transparent_invalidate();
    epoch_open_us_ = p_->now_us();
    return;  // nothing to adapt: the cache restarts from scratch each epoch
  }
  integrity_epoch_tasks();
  maybe_adapt();
  epoch_open_us_ = p_->now_us();
}

void CachedWindow::maybe_adapt() {
  if (!cfg_.adaptive) return;
  if (core_->pending_entries() != 0 || !pending_.empty()) return;
  const Stats delta = core_->stats().delta_since(adapt_base_);
  if (delta.total_gets < cfg_.adapt_interval) return;
  const AdaptiveTuner::Decision d = tuner_.evaluate(
      delta, core_->index_entries(), core_->storage_bytes(), core_->free_bytes());
  if (d.change) {
    core_->resize(d.index_entries, d.storage_bytes);
  }
  adapt_base_ = core_->stats();
}

void CachedWindow::complete(int target) {
  try {
    if (target < 0) {
      p_->flush_all(win_);
    } else {
      p_->flush(target, win_);
    }
  } catch (const fault::OpFailedError& err) {
    on_flush_failure(err, /*all_taken=*/target < 0);
    throw;
  }
}

void CachedWindow::flush(int target) {
  if (cfg_.mode == Mode::kTransparent) {
    // Transparent invalidation needs every in-flight get materialized.
    complete(-1);
    close_epoch(/*all_complete=*/true);
    return;
  }
  complete(target);
  process_pending(target);
  close_epoch(/*all_complete=*/false);
}

void CachedWindow::flush_all() {
  complete(-1);
  process_pending(-1);
  close_epoch(/*all_complete=*/true);
}

void CachedWindow::lock_all() { p_->lock_all(win_); }

void CachedWindow::unlock_all() {
  flush_all();
  p_->unlock_all(win_);  // nothing left to complete: ends the rmasim epoch
}

// --- integrity guard (docs/INTEGRITY.md) ---

bool CachedWindow::breaker_says_passthrough() {
  if (!breaker_) [[likely]] return false;
  const double now = p_->now_us();
  if (breaker_->probe_due(now)) {
    // Dwell served: start probing with this get.
    breaker_open_us_ += now - breaker_->opened_at_us();
    breaker_probe_tick_ = 0;
    breaker_note(BreakerState::kOpen);
  }
  const BreakerState state = breaker_state();
  if (state == BreakerState::kClosed) return false;
  // Half-open: 1 of every probe_every_n gets probes the cache.
  if (state == BreakerState::kHalfOpen &&
      breaker_probe_tick_++ % cfg_.breaker_probe_every_n == 0) {
    return false;
  }
  ++core_->mutable_stats().breaker_passthrough_gets;
  last_access_ = AccessType::kDirect;
  return true;
}

void CachedWindow::breaker_failure() {
  if (!breaker_) return;
  const BreakerState before = breaker_state();
  breaker_->record_failure(p_->now_us());
  breaker_note(before);
}

void CachedWindow::breaker_probe_success() {
  if (breaker_state() != BreakerState::kHalfOpen) return;
  breaker_->record_success();
  breaker_note(BreakerState::kHalfOpen);
}

double CachedWindow::breaker_time_in_open_us() const {
  if (breaker_state() != BreakerState::kOpen) return breaker_open_us_;
  return breaker_open_us_ + (p_->now_us() - breaker_->opened_at_us());
}

void CachedWindow::breaker_note(BreakerState before) {
  const BreakerState now = breaker_state();
  if (now == before) return;
  Stats& st = core_->mutable_stats();
  if (now == BreakerState::kOpen) ++st.breaker_trips;
  if (now == BreakerState::kClosed) ++st.breaker_recloses;
  if (fault_trace_ != nullptr) fault_trace_->add_breaker(static_cast<int>(now));
}

void CachedWindow::note_heal(int target, std::size_t disp, std::size_t bytes) {
  if (fault_trace_ != nullptr) fault_trace_->add_corruption(target, disp, bytes);
  breaker_failure();
}

void CachedWindow::shadow_verify(void* origin, std::size_t bytes, int target,
                                 std::size_t disp, std::uint32_t entry) {
  if (shadow_buf_.size() < bytes) shadow_buf_.resize(bytes);
  try {
    // Data movement is eager in the simulated runtime, so the remote bytes
    // are in shadow_buf_ on return (completion is only bookkeeping).
    issue_network_get(shadow_buf_.data(), bytes, target, disp);
  } catch (const fault::OpFailedError&) {
    return;  // origin unreachable right now: this sample is simply skipped
  }
  Stats& st = core_->mutable_stats();
  ++st.shadow_verifications;
  if (std::memcmp(shadow_buf_.data(), origin, bytes) == 0) return;
  // Silent staleness: the cached entry no longer matches the origin window
  // (e.g. an invalidation was skipped). Quarantine it, hand the caller the
  // fresh bytes, and count it as a failure for the breaker.
  ++st.shadow_mismatches;
  ++st.self_heals;
  core_->quarantine(entry);
  std::memcpy(origin, shadow_buf_.data(), bytes);
  if (fault_trace_ != nullptr) fault_trace_->add_corruption(target, disp, bytes);
  breaker_failure();
}

void CachedWindow::integrity_epoch_tasks() {
  const fault::Injector* inj = p_->fault_injector();
  if (inj != nullptr && inj->plan().storage_bitflip_prob > 0.0) {
    // Seeded bit rot: one corruptor per (rank, epoch) sweeps the live
    // CACHED payloads with geometric skipping, so the expected flip count
    // is storage_bitflip_prob per cached byte per epoch, deterministically.
    fault::Corruptor corr = inj->corruptor(p_->rank(), epoch_);
    std::uint64_t flips = 0;
    const std::size_t nslots = core_->entry_slots();
    for (std::size_t id = 0; id < nslots; ++id) {
      const auto eid = static_cast<std::uint32_t>(id);
      if (!core_->entry_live(eid) || core_->entry_pending(eid)) continue;
      flips += corr.apply(core_->entry_data(eid), core_->entry_bytes(eid));
    }
    if (flips > 0) core_->mutable_stats().storage_bitflips += flips;
  }
  if (cfg_.scrub_entries_per_epoch > 0) {
    const CacheCore::ScrubReport rep = core_->scrub(cfg_.scrub_entries_per_epoch);
    for (std::size_t i = 0; i < rep.corrupted; ++i) breaker_failure();
    if (!rep.invariants_ok) breaker_failure();
    if (rep.corrupted > 0 && fault_trace_ != nullptr) {
      // Scrub heals have no single (target, disp); log one summary event.
      fault_trace_->add_corruption(-1, 0, rep.corrupted);
    }
  }
}

void CachedWindow::invalidate() {
  if (!pending_.empty() || core_->pending_entries() != 0) {
    complete(-1);
    process_pending(-1);
  }
  core_->invalidate();
  // Restart the adaptation window: refilling a freshly invalidated cache
  // looks like both capacity pressure and (early on) a shrinkable state.
  adapt_base_ = core_->stats();
  tuner_.reset();
}

}  // namespace clampi
